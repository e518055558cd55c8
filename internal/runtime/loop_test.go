package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type delivered struct {
	dg   []byte
	src  uint32
	port uint16
}

// newOwnerLoop builds an owning loop whose deliveries and kicks are
// recorded, with a controllable clock.
func newOwnerLoop(now *atomic.Int64, kicks *atomic.Uint64, tickEvery time.Duration, ticks *int) (*Loop, *[]delivered) {
	var got []delivered
	closed := make(chan struct{})
	l := NewLoop(LoopOptions{
		Deliver: func(dg []byte, src uint32, port uint16, owned bool) {
			cp := append([]byte(nil), dg...)
			got = append(got, delivered{cp, src, port})
		},
		Tick: func() {
			if ticks != nil {
				*ticks++
			}
		},
		TickEvery: tickEvery,
		Now:       func() time.Duration { return time.Duration(now.Load()) },
		Kick: func() {
			if kicks != nil {
				kicks.Add(1)
			}
		},
		Closed: closed,
	})
	return l, &got
}

func TestLoopOwnerIngestsRunToCompletion(t *testing.T) {
	var now atomic.Int64
	l, got := newOwnerLoop(&now, nil, 0, nil)
	if !l.IsOwner() {
		t.Fatal("loop without Owner must own")
	}
	l.Ingest([]byte{1, 2}, 7, 9)
	if len(*got) != 1 || (*got)[0].src != 7 || (*got)[0].port != 9 {
		t.Fatalf("direct ingest not delivered: %+v", *got)
	}
	if n := l.Counters().Get("ingress_datagrams").Load(); n != 1 {
		t.Fatalf("ingress_datagrams = %d, want 1", n)
	}
}

func TestLoopHandoffKickAndDrain(t *testing.T) {
	var now atomic.Int64
	var kicks atomic.Uint64
	owner, got := newOwnerLoop(&now, &kicks, 0, nil)
	peer := NewLoop(LoopOptions{Core: 1, Owner: owner, MailboxCap: 8,
		Now: func() time.Duration { return time.Duration(now.Load()) }})
	if peer.IsOwner() {
		t.Fatal("forwarding loop must not own")
	}

	// The read slab is reused between ingests: the mailbox must copy.
	slab := []byte{0xAA}
	peer.Ingest(slab, 3, 4)
	slab[0] = 0xBB
	peer.Ingest(slab, 5, 6)

	if k := kicks.Load(); k != 1 {
		t.Fatalf("kicks = %d, want exactly 1 (edge-triggered on 0→1)", k)
	}
	if owner.ShouldPark() {
		t.Fatal("owner must not park with handoffs pending")
	}
	owner.Advance()
	want := []delivered{{[]byte{0xAA}, 3, 4}, {[]byte{0xBB}, 5, 6}}
	if len(*got) != 2 {
		t.Fatalf("drained %d datagrams, want 2", len(*got))
	}
	for i, w := range want {
		g := (*got)[i]
		if g.src != w.src || g.port != w.port || g.dg[0] != w.dg[0] {
			t.Fatalf("handoff %d = %+v, want %+v", i, g, w)
		}
	}
	if !owner.ShouldPark() {
		t.Fatal("owner must park once drained")
	}
	if n := peer.Counters().Get("handoff_out").Load(); n != 2 {
		t.Fatalf("handoff_out = %d, want 2", n)
	}
	if n := owner.Counters().Get("handoff_in").Load(); n != 2 {
		t.Fatalf("handoff_in = %d, want 2", n)
	}

	// A second burst re-arms the kick: the edge trigger reset on drain.
	peer.Ingest([]byte{1}, 1, 1)
	if k := kicks.Load(); k != 2 {
		t.Fatalf("kicks = %d, want 2 after drain reset the pending flag", k)
	}
}

func TestLoopHandoffBackpressure(t *testing.T) {
	var now atomic.Int64
	owner, got := newOwnerLoop(&now, nil, 0, nil)
	peer := NewLoop(LoopOptions{Owner: owner, MailboxCap: 2,
		Now: func() time.Duration { return time.Duration(now.Load()) }})
	for i := 0; i < 5; i++ {
		peer.Ingest([]byte{byte(i)}, 0, 0)
	}
	if n := peer.Counters().Get("handoff_drops").Load(); n != 3 {
		t.Fatalf("handoff_drops = %d, want 3 (ring cap 2)", n)
	}
	owner.Advance()
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want the 2 that fit", len(*got))
	}
}

func TestLoopSubmitRunsInOwnerContext(t *testing.T) {
	var now atomic.Int64
	var kicks atomic.Uint64
	owner, _ := newOwnerLoop(&now, &kicks, 0, nil)
	ran := false
	if !owner.Submit(func() { ran = true }) {
		t.Fatal("Submit rejected on a live loop")
	}
	if ran {
		t.Fatal("command ran on the submitting goroutine")
	}
	if kicks.Load() == 0 {
		t.Fatal("Submit must kick the parked owner")
	}
	owner.Advance()
	if !ran {
		t.Fatal("Advance did not drain the command")
	}
}

func TestLoopTickCadenceAndNextTick(t *testing.T) {
	var now atomic.Int64
	ticks := 0
	l, _ := newOwnerLoop(&now, nil, 10*time.Millisecond, &ticks)
	if at := l.NextTick(); at != 10*time.Millisecond {
		t.Fatalf("NextTick = %v, want 10ms", at)
	}
	now.Store(int64(4 * time.Millisecond))
	l.Advance() // not due yet
	if ticks != 0 {
		t.Fatalf("ticked %d times before the deadline", ticks)
	}
	// The due time is absolute: passes between ticks leave it alone, so
	// the owner's armed read deadline stays valid.
	if at := l.NextTick(); at != 10*time.Millisecond {
		t.Fatalf("NextTick moved between ticks: %v", at)
	}
	now.Store(int64(12 * time.Millisecond))
	l.Advance()
	if ticks != 1 {
		t.Fatalf("ticked %d times after the deadline, want 1", ticks)
	}
	if at := l.NextTick(); at != 22*time.Millisecond {
		t.Fatalf("NextTick after tick = %v, want 22ms", at)
	}
	// An overdue tick reads as a due time in the past: the owner's read
	// deadline expires at once and the next Advance runs the tick.
	now.Store(int64(100 * time.Millisecond))
	if at := l.NextTick(); at >= 100*time.Millisecond {
		t.Fatalf("overdue NextTick = %v, want a time in the past", at)
	}
}

// TestLoopConcurrentHandoff runs a forwarding producer against a
// consuming owner under the race detector: the full wake/park protocol
// with no locks anywhere.
func TestLoopConcurrentHandoff(t *testing.T) {
	var now atomic.Int64
	var received atomic.Uint64
	closed := make(chan struct{})
	wake := make(chan struct{}, 1)
	owner := NewLoop(LoopOptions{
		Deliver: func(dg []byte, src uint32, port uint16, owned bool) { received.Add(1) },
		Now:     func() time.Duration { return time.Duration(now.Load()) },
		Kick: func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		},
		Closed: closed,
	})
	peer := NewLoop(LoopOptions{Core: 1, Owner: owner, MailboxCap: 256,
		Now: func() time.Duration { return time.Duration(now.Load()) }})

	const total = 50000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dg := []byte{0}
		for i := 0; i < total; i++ {
			peer.Ingest(dg, uint32(i), 0)
		}
		close(closed)
	}()
	for {
		select {
		case <-wake:
			owner.Advance()
		case <-closed:
			wg.Wait()
			owner.Advance() // tail drain
			sent := peer.Counters().Get("handoff_out").Load()
			if got := received.Load(); got != sent {
				t.Fatalf("received %d of %d handed off (%d dropped)",
					got, sent, peer.Counters().Get("handoff_drops").Load())
			}
			return
		}
	}
}
