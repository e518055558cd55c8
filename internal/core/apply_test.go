package core

import (
	"runtime"
	"testing"

	"hovercraft/internal/r2p2"
)

// depthRunner is syncRunner that also records the stack depth at which
// each operation executes.
type depthRunner struct {
	pcs    []uintptr
	depths []int
}

func (r *depthRunner) Run(payload []byte, readOnly bool, done func([]byte)) {
	r.depths = append(r.depths, runtime.Callers(0, r.pcs))
	syncRunner{}.Run(payload, readOnly, done)
}

// TestSyncApplyBacklogRunsFlat commits a 1000-entry backlog in one step
// on a leader whose runner completes before Run returns, the UDP plane's
// shape. The apply loop must iterate over synchronous completions, not
// recurse through them: entry 1 and entry 1000 execute at the same stack
// depth. And the step must flush once: its 1000 replies leave behind a
// single coalesced FEEDBACK send.
func TestSyncApplyBacklogRunsFlat(t *testing.T) {
	const n = 1000
	w := newWorldWith(t, ModeHovercraft, 3, func(c *Config) {
		c.DisableReplyLB = true       // the leader answers, and feeds back, every entry
		c.MaxEntriesPerAppend = 2 * n // one append carries the whole backlog
	})
	lead := w.electLeader(1)
	dr := &depthRunner{pcs: make([]uintptr, 1<<16)}
	lead.runner = dr

	// Proposals send nothing: the backlog waits for the leader's pacer.
	rids := make([]uint32, n)
	for i := range rids {
		rids[i] = w.request(r2p2.PolicyReplicated, []byte{byte(i), byte(i >> 8)})
	}
	if len(dr.depths) != 0 {
		t.Fatalf("%d entries executed before replication", len(dr.depths))
	}
	applied0 := lead.Node().Log().Applied()
	flushes0, records0 := w.fbFlushes, w.feedbacks

	// One tick ships the backlog in one append per follower; the first
	// ack commits all of it, and that HandleMessage step executes it.
	lead.Tick()
	w.deliver()

	if got := lead.Node().Log().Applied() - applied0; got != n {
		t.Fatalf("leader applied %d entries, want %d", got, n)
	}
	if len(dr.depths) != n {
		t.Fatalf("leader executed %d operations, want %d", len(dr.depths), n)
	}
	for i, d := range dr.depths {
		if d != dr.depths[0] {
			t.Fatalf("entry %d executed at stack depth %d, entry 1 at %d: the apply loop recurses",
				i+1, d, dr.depths[0])
		}
	}
	if got := w.fbFlushes - flushes0; got != 1 {
		t.Fatalf("%d FEEDBACK sends for one step's replies, want 1", got)
	}
	if got := w.feedbacks - records0; got != n {
		t.Fatalf("FEEDBACK covers %d replies, want %d", got, n)
	}
	for i, rid := range rids {
		if _, ok := w.responses[rid]; !ok {
			t.Fatalf("request %d unanswered", i)
		}
	}
}
