package core

import (
	"testing"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
)

// settle releases the bus until it is quiet, then freezes it again. The
// leader only emits AppendEntries from EndBatch or Tick, so between two
// of those calls the bus always drains.
func (w *world) settle() {
	w.hold = false
	w.deliver()
	w.hold = true
}

// dropTo discards every queued packet addressed to node id.
func (w *world) dropTo(id raft.NodeID) {
	kept := w.queue[:0]
	for _, p := range w.queue {
		if p.toNode != id {
			kept = append(kept, p)
		}
	}
	w.queue = kept
}

// TestEndBatchAckClockedPacing walks the boundary pacer through its
// rules on three in-memory engines, for both point-to-point modes.
func TestEndBatchAckClockedPacing(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeHovercraft} {
		t.Run(mode.String(), func(t *testing.T) {
			w := newWorld(t, mode, 3)
			lead := w.electLeader(1)
			w.tick(6) // noop committed and every follower told
			log := lead.Node().Log()
			boundary := lead.Counters().Get("tx_ae_boundary")
			w.hold = true

			// Nothing in flight: a proposal leaves in the pass that
			// ingested it, one AppendEntries per follower.
			ridA := w.request(r2p2.PolicyReplicated, []byte("a"))
			idxA := log.LastIndex()
			if n := len(snoopAEs(w)); n != 0 {
				t.Fatalf("%d AppendEntries left at propose time, before the boundary", n)
			}
			lead.EndBatch()
			aes := snoopAEs(w)
			if len(aes) != 2 || aes[0].To == aes[1].To {
				t.Fatalf("boundary after a proposal: got %d AppendEntries, want one per follower", len(aes))
			}
			for _, m := range aes {
				if len(m.Entries) != 1 || m.Entries[0].Index != idxA {
					t.Fatalf("AE to %d carries %d entries, want exactly entry %d", m.To, len(m.Entries), idxA)
				}
			}

			// A is un-acked: the next proposal waits for the ack.
			ridB := w.request(r2p2.PolicyReplicated, []byte("b"))
			idxB := log.LastIndex()
			lead.EndBatch()
			if n := len(snoopAEs(w)); n != 2 {
				t.Fatalf("boundary with an append in flight: %d AppendEntries queued, want still 2", n)
			}

			// The acks clock it: exactly one AE per follower, carrying
			// the new entry and the commit of the old one.
			w.settle()
			if log.Commit() != idxA {
				t.Fatalf("commit = %d after the acks, want %d", log.Commit(), idxA)
			}
			lead.EndBatch()
			lead.EndBatch() // a second boundary has nothing to add
			aes = snoopAEs(w)
			if len(aes) != 2 || aes[0].To == aes[1].To {
				t.Fatalf("boundary after the acks: got %d AppendEntries, want one per follower", len(aes))
			}
			for _, m := range aes {
				if len(m.Entries) != 1 || m.Entries[0].Index != idxB || m.Commit != idxA {
					t.Fatalf("AE to %d: %d entries, commit %d; want entry %d with commit %d",
						m.To, len(m.Entries), m.Commit, idxB, idxA)
				}
			}

			// Lose the append to node 3. Node 2's ack commits B; the
			// commit-only notify goes to node 2, once. Node 3 still has
			// an append in flight and is left to the timer.
			w.dropTo(3)
			w.settle()
			if log.Commit() != idxB {
				t.Fatalf("commit = %d with one follower acked, want %d", log.Commit(), idxB)
			}
			lead.EndBatch()
			lead.EndBatch()
			aes = snoopAEs(w)
			if len(aes) != 1 || aes[0].To != 2 || len(aes[0].Entries) != 0 || aes[0].Commit != idxB {
				t.Fatalf("commit notify: got %d AppendEntries %+v, want one empty AE to node 2 with commit %d",
					len(aes), aes, idxB)
			}
			w.settle()
			if got := boundary.Load(); got != 5 {
				t.Fatalf("tx_ae_boundary = %d, want 5 (2 + 2 + 1)", got)
			}
			if last := w.engines[3].Node().Log().LastIndex(); last != idxA {
				t.Fatalf("node 3 last index = %d, want %d (its append was dropped)", last, idxA)
			}

			// The tick path heals the loss: its broadcast probes node 3,
			// the reject backs Next off, the resend carries B.
			lead.Tick()
			w.settle()
			if lead.Counters().Value("tx_ae_tick") == 0 {
				t.Fatal("tick emitted no AppendEntries for the follower the boundary skipped")
			}
			l3 := w.engines[3].Node().Log()
			if l3.LastIndex() != idxB || l3.Commit() != idxB {
				t.Fatalf("node 3 after the tick: last %d commit %d, want both %d", l3.LastIndex(), l3.Commit(), idxB)
			}
			for _, rid := range []uint32{ridA, ridB} {
				if _, ok := w.responses[rid]; !ok {
					t.Fatalf("request %d never answered", rid)
				}
			}
		})
	}
}

// TestEndBatchGroupModeHeartbeatStaysOnTicks: in HovercRaft++ group mode
// the boundary sends for new entries or a moved commit only; the idle
// heartbeat clock is a timer and must not advance with loop passes.
func TestEndBatchGroupModeHeartbeatStaysOnTicks(t *testing.T) {
	w := newWorld(t, ModeHovercraftPP, 3)
	lead := w.electLeader(1)
	for i := 0; i < 50 && !lead.groupMode; i++ {
		w.tick(1)
	}
	if !lead.groupMode {
		t.Fatal("leader never entered group mode")
	}
	w.tick(10)
	w.hold = true
	aggAE := lead.Counters().Get("tx_agg_ae")
	hb, sent := lead.idleHB, aggAE.Load()
	for i := 0; i < 3*lead.cfg.HeartbeatTicks; i++ {
		lead.EndBatch()
	}
	if lead.idleHB != hb || aggAE.Load() != sent || len(w.queue) != 0 {
		t.Fatalf("idle boundaries moved the heartbeat clock: idleHB %d→%d, tx_agg_ae %d→%d, %d packets queued",
			hb, lead.idleHB, sent, aggAE.Load(), len(w.queue))
	}
	rid := w.request(r2p2.PolicyReplicated, []byte("grouped"))
	lead.EndBatch()
	if aggAE.Load() != sent+1 {
		t.Fatalf("tx_agg_ae = %d after a proposal and a boundary, want %d", aggAE.Load(), sent+1)
	}
	// Arrivals alone finish the request: no tick from here on.
	for i := 0; i < 4; i++ {
		w.settle()
		lead.EndBatch()
	}
	if _, ok := w.responses[rid]; !ok {
		t.Fatal("group-mode request not answered by boundary pacing alone")
	}
}

// TestLateBodyPromotion: an AppendEntries that overtakes the client's own
// datagram must cost neither a stall nor a recovery round trip.
func TestLateBodyPromotion(t *testing.T) {
	setup := func(t *testing.T) (w *world, f *Engine, idx uint64, rid uint32, dgs [][]byte) {
		w = newWorld(t, ModeHovercraft, 3)
		lead := w.electLeader(1)
		w.tick(6)
		id, dgs := w.client.NewRequest(r2p2.PolicyReplicated, []byte("late-body"))
		w.ingestRequest(1, dgs)
		w.ingestRequest(3, dgs)
		lead.EndBatch() // AE overtakes node 2's copy of the body
		w.deliver()
		lead.EndBatch() // node 3's ack committed it: notify
		w.deliver()
		f, idx = w.engines[2], lead.Node().Log().LastIndex()
		if l := f.Node().Log(); l.Commit() != idx || l.Applied() != idx-1 {
			t.Fatalf("node 2 commit %d applied %d, want stalled at %d behind commit %d",
				l.Commit(), l.Applied(), idx-1, idx)
		}
		if n := f.Counters().Value("tx_recovery_req"); n != 0 {
			t.Fatalf("node 2 asked for recovery %d times in the step that found the body missing", n)
		}
		return w, f, idx, id.ReqID, dgs
	}

	t.Run("body one datagram behind", func(t *testing.T) {
		w, f, idx, rid, dgs := setup(t)
		w.ingestRequest(2, dgs)
		if got := f.Node().Log().Applied(); got != idx {
			t.Fatalf("applied = %d after the body arrived, want %d in the same step", got, idx)
		}
		w.tick(5)
		for id, e := range w.engines {
			if n := e.Counters().Value("tx_recovery_req"); n != 0 {
				t.Fatalf("node %d sent %d recovery requests", id, n)
			}
		}
		if f.Counters().Value("late_body_promoted") != 1 || !logHasBody(f, "late-body") {
			t.Fatal("late body not promoted from the unordered set")
		}
		if _, ok := w.responses[rid]; !ok {
			t.Fatal("request never answered")
		}
	})

	t.Run("body lost", func(t *testing.T) {
		w, f, idx, rid, _ := setup(t)
		w.tick(1) // the deferred first request goes out with the next tick
		if n := f.Counters().Value("tx_recovery_req"); n != 1 {
			t.Fatalf("tx_recovery_req = %d one tick after the miss, want 1", n)
		}
		if got := f.Node().Log().Applied(); got != idx {
			t.Fatalf("applied = %d after recovery, want %d", got, idx)
		}
		w.tick(2)
		if _, ok := w.responses[rid]; !ok {
			t.Fatal("request never answered")
		}
	})
}

// TestLoneHovercraftLeaderAnnouncesBeforeApply: a quorum of one commits
// at Propose, before a replier is designated. The entry must wait for
// its announce, from either clock, and then be answered.
func TestLoneHovercraftLeaderAnnouncesBeforeApply(t *testing.T) {
	w := newWorld(t, ModeHovercraft, 1)
	lead := w.electLeader(1)
	log := lead.Node().Log()

	rid := w.request(r2p2.PolicyReplicated, []byte("solo-boundary"))
	if log.Commit() != log.LastIndex() || log.Applied() == log.LastIndex() {
		t.Fatalf("commit %d applied %d last %d: want committed at propose but not applied before the announce",
			log.Commit(), log.Applied(), log.LastIndex())
	}
	lead.EndBatch()
	if _, ok := w.responses[rid]; !ok {
		t.Fatal("not answered at the loop boundary")
	}

	rid = w.request(r2p2.PolicyReplicated, []byte("solo-tick"))
	lead.Tick()
	if _, ok := w.responses[rid]; !ok {
		t.Fatal("not answered at the tick (the simulator's only clock)")
	}
}
