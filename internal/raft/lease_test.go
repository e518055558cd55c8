package raft

import "testing"

// settleUntilLease establishes a leader and runs heartbeat rounds until
// its lease holds (or fails the test).
func settleUntilLease(t *testing.T, c *cluster) *Node {
	t.Helper()
	lead := c.runUntilLeader()
	for i := 0; i < 50; i++ {
		if lead.LeaseValid() {
			return lead
		}
		c.tickAll()
	}
	t.Fatal("lease never established")
	return nil
}

func TestLeaseEstablishedByHeartbeats(t *testing.T) {
	c := newCluster(t, 3)
	lead := settleUntilLease(t, c)

	idx, confirm, ok := lead.ReadIndex()
	if !ok {
		t.Fatal("ReadIndex refused on a leased leader")
	}
	if confirm != 0 {
		t.Fatalf("leased leader demanded confirmation round (confirm=%d)", confirm)
	}
	if idx != lead.Log().Commit() {
		t.Fatalf("read index %d != commit %d", idx, lead.Log().Commit())
	}

	// The lease must keep extending as heartbeats keep flowing.
	for i := 0; i < 5*int(uint64(lead.cfg.ElectionTicks)); i++ {
		c.tickAll()
		if !lead.LeaseValid() {
			t.Fatalf("lease lapsed at tick %d despite healthy heartbeats", i)
		}
	}
}

func TestSingleNodeLease(t *testing.T) {
	c := newCluster(t, 1)
	lead := settleUntilLease(t, c)
	if wm := lead.AckWatermark(); wm != lead.Ticks() {
		t.Fatalf("single-node watermark %d != own clock %d", wm, lead.Ticks())
	}
	if _, confirm, ok := lead.ReadIndex(); !ok || confirm != 0 {
		t.Fatalf("single-node ReadIndex = (confirm=%d, ok=%v), want lease-served", confirm, ok)
	}
}

func TestNoLeaseBeforeTermCommit(t *testing.T) {
	c := newCluster(t, 3)
	// Let votes through but drop all appends: a leader emerges whose
	// term noop can never commit.
	c.dropFn = func(m Message) bool {
		return m.Type == MsgApp || m.Type == MsgAppResp
	}
	lead := c.runUntilLeader()
	if lead.LeaseValid() {
		t.Fatal("lease held before the term noop committed")
	}
	if _, _, ok := lead.ReadIndex(); ok {
		t.Fatal("ReadIndex served before the term noop committed")
	}
}

func TestLeaseExpiresUnderPartition(t *testing.T) {
	c := newCluster(t, 3)
	lead := settleUntilLease(t, c)

	// Isolate the leader: its probes stop being echoed, so the ack
	// watermark freezes and the lease must lapse within
	// the lease length (leaseTicks).
	for id := range c.nodes {
		if id != lead.ID() {
			c.cut[lead.ID()] = map[NodeID]bool{}
			c.cut[id] = map[NodeID]bool{}
		}
	}
	for id := range c.nodes {
		if id != lead.ID() {
			c.cut[lead.ID()][id] = true
			c.cut[id][lead.ID()] = true
		}
	}

	leaseTicks := int(lead.leaseTicks())
	for i := 0; i <= leaseTicks; i++ {
		c.tickAll()
	}
	if lead.LeaseValid() {
		t.Fatal("lease survived a full lease interval without quorum contact")
	}
	// The node may still believe it is leader; reads must now demand a
	// confirmation round that can never succeed while partitioned.
	if lead.State() == StateLeader {
		if _, confirm, ok := lead.ReadIndex(); ok && confirm == 0 {
			t.Fatal("partitioned leader claims lease-served read")
		}
	}
}

// TestLeaseExpiresBeforeRivalElected is the safety property the whole
// design rests on: by the time any rival wins an election, the old
// leader's lease has already lapsed — so it can never lease-serve a
// read that a new leader's committed writes would make stale. All nodes
// tick in lockstep here, modelling zero drift; the lease's drift margin
// covers the real-world skew on top.
func TestLeaseExpiresBeforeRivalElected(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		c := newSeededCluster(t, 3, seed)
		lead := settleUntilLease(t, c)

		for id := range c.nodes {
			if id != lead.ID() {
				if c.cut[lead.ID()] == nil {
					c.cut[lead.ID()] = map[NodeID]bool{}
				}
				if c.cut[id] == nil {
					c.cut[id] = map[NodeID]bool{}
				}
				c.cut[lead.ID()][id] = true
				c.cut[id][lead.ID()] = true
			}
		}

		for i := 0; i < 1000; i++ {
			c.tickAll()
			var rival *Node
			for id, n := range c.nodes {
				if id != lead.ID() && n.State() == StateLeader {
					rival = n
				}
			}
			if rival == nil {
				continue
			}
			if lead.LeaseValid() {
				t.Fatalf("seed %d: old leader still holds lease at the tick rival %d won term %d",
					seed, rival.ID(), rival.Term())
			}
			break
		}
	}
}

func TestAckWatermarkAdvancesWithQuorum(t *testing.T) {
	c := newCluster(t, 5)
	lead := settleUntilLease(t, c)

	// Cut one follower: quorum is 3, so the watermark must still advance
	// from the remaining three echoes (self + 2).
	var cutID NodeID
	for id := range c.nodes {
		if id != lead.ID() {
			cutID = id
			break
		}
	}
	c.cut[lead.ID()] = map[NodeID]bool{cutID: true}
	before := lead.AckWatermark()
	c.settle(5)
	if after := lead.AckWatermark(); after <= before {
		t.Fatalf("watermark stuck at %d with a quorum alive", after)
	}
	if !lead.LeaseValid() {
		t.Fatal("lease lost despite quorum contact")
	}
}

func TestReadIndexConfirmViaQuorumRound(t *testing.T) {
	c := newCluster(t, 3)
	lead := settleUntilLease(t, c)

	// Force lease expiry by freezing message delivery while ticking the
	// leader alone past its lease, without any follower election firing
	// (followers don't tick at all here).
	for i := 0; i <= int(lead.leaseTicks()); i++ {
		lead.Tick()
		lead.ReadMessages() // drop outbound heartbeats on the floor
	}
	if lead.LeaseValid() {
		t.Fatal("lease survived without echoes")
	}
	_, confirm, ok := lead.ReadIndex()
	if !ok || confirm == 0 {
		t.Fatalf("expired-lease ReadIndex = (confirm=%d, ok=%v), want confirmation round", confirm, ok)
	}
	// Resume normal operation: the next heartbeat round's echoes must
	// ratify the pending read.
	for i := 0; i < 50 && lead.AckWatermark() < confirm; i++ {
		c.tickAll()
	}
	if lead.AckWatermark() < confirm {
		t.Fatalf("watermark %d never reached confirm %d", lead.AckWatermark(), confirm)
	}
}

func TestFollowerHasNoLease(t *testing.T) {
	c := newCluster(t, 3)
	lead := settleUntilLease(t, c)
	for id, n := range c.nodes {
		if id == lead.ID() {
			continue
		}
		if n.LeaseValid() {
			t.Fatalf("follower %d claims a lease", id)
		}
		if n.AckWatermark() != 0 {
			t.Fatalf("follower %d has nonzero watermark", id)
		}
		if _, _, ok := n.ReadIndex(); ok {
			t.Fatalf("follower %d served ReadIndex", id)
		}
	}
}

func TestProbeEchoedOnReject(t *testing.T) {
	// A rejecting follower still echoes the probe: receipt reset its
	// election timer, which is what the lease counts.
	n := NewNode(Config{
		ID: 2, Peers: []NodeID{1, 2, 3},
		ElectionTicks: 10, HeartbeatTicks: 2,
	})
	n.Step(Message{
		Type: MsgApp, From: 1, To: 2, Term: 5,
		Index: 99, LogTerm: 4, // mismatched prev → reject
		Probe: 1234,
	})
	msgs := n.ReadMessages()
	if len(msgs) != 1 || msgs[0].Type != MsgAppResp {
		t.Fatalf("want one MsgAppResp, got %v", msgs)
	}
	if msgs[0].Success {
		t.Fatal("append unexpectedly succeeded")
	}
	if msgs[0].Probe != 1234 {
		t.Fatalf("reject reply echoed probe %d, want 1234", msgs[0].Probe)
	}
}
