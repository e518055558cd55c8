package raft

import (
	"fmt"
	"math/rand"
	"testing"
)

// cluster is an in-memory message bus for deterministic protocol tests.
type cluster struct {
	t     *testing.T
	nodes map[NodeID]*Node
	// down nodes drop all traffic.
	down map[NodeID]bool
	// cut[a][b] drops a→b traffic.
	cut map[NodeID]map[NodeID]bool
	// dropFn, if set, can drop any message.
	dropFn func(m Message) bool
	// leaderTerms records term→leader for election-safety checking.
	leaderTerms map[uint64]NodeID
}

func newCluster(t *testing.T, n int) *cluster { return newSeededCluster(t, n, 0) }

// newSeededCluster builds an n-node cluster whose election jitter is
// seeded from seed and each node's id (seed 0 is newCluster's).
func newSeededCluster(t *testing.T, n int, seed int64) *cluster {
	c := &cluster{
		t:           t,
		nodes:       make(map[NodeID]*Node),
		down:        make(map[NodeID]bool),
		cut:         make(map[NodeID]map[NodeID]bool),
		leaderTerms: make(map[uint64]NodeID),
	}
	peers := make([]NodeID, n)
	for i := range peers {
		peers[i] = NodeID(i + 1)
	}
	for _, id := range peers {
		c.nodes[id] = NewNode(Config{
			ID: id, Peers: peers,
			ElectionTicks: 10, HeartbeatTicks: 2,
			Rand: rand.New(rand.NewSource(seed*1000 + int64(id)*7)),
		})
	}
	return c
}

func (c *cluster) checkElectionSafety() {
	for id, n := range c.nodes {
		if n.State() == StateLeader {
			if prev, ok := c.leaderTerms[n.Term()]; ok && prev != id {
				c.t.Fatalf("election safety violated: term %d has leaders %d and %d",
					n.Term(), prev, id)
			}
			c.leaderTerms[n.Term()] = id
		}
	}
}

// deliver flushes all outboxes repeatedly until no messages remain (or
// the bound trips).
func (c *cluster) deliver() {
	for round := 0; round < 10000; round++ {
		var queue []Message
		for id, n := range c.nodes {
			msgs := n.ReadMessages()
			if c.down[id] {
				continue
			}
			queue = append(queue, msgs...)
		}
		if len(queue) == 0 {
			return
		}
		for _, m := range queue {
			if c.down[m.To] || c.cut[m.From][m.To] {
				continue
			}
			if c.dropFn != nil && c.dropFn(m) {
				continue
			}
			if dst, ok := c.nodes[m.To]; ok {
				dst.Step(m)
			}
		}
		c.checkElectionSafety()
	}
	c.t.Fatal("deliver did not quiesce")
}

// tickAll advances every live node one tick and flushes messages.
func (c *cluster) tickAll() {
	for id, n := range c.nodes {
		if !c.down[id] {
			n.Tick()
		}
	}
	c.deliver()
}

// settle ticks the cluster k times, letting commit indices propagate on
// heartbeats.
func (c *cluster) settle(k int) {
	for i := 0; i < k; i++ {
		c.tickAll()
	}
}

// runUntilLeader ticks until some live node is leader; returns it.
func (c *cluster) runUntilLeader() *Node {
	for i := 0; i < 1000; i++ {
		c.tickAll()
		for id, n := range c.nodes {
			if !c.down[id] && n.State() == StateLeader {
				// All live nodes should soon agree; keep it simple
				// and return the leader with the highest term.
				return n
			}
		}
	}
	c.t.Fatal("no leader elected")
	return nil
}

// applyAll applies committed entries everywhere and returns per-node
// applied data strings for convergence checks.
func (c *cluster) applyAll() map[NodeID][]string {
	out := make(map[NodeID][]string)
	for id, n := range c.nodes {
		var applied []string
		for i := uint64(1); i <= n.Log().Applied(); i++ {
			if e := n.Log().Entry(i); e != nil && e.Kind != KindNoop {
				applied = append(applied, string(e.Data))
			}
		}
		out[id] = applied
	}
	return out
}

func (c *cluster) applyCommitted() {
	for _, n := range c.nodes {
		if ents := n.NextCommitted(0); len(ents) > 0 {
			n.AppliedTo(ents[len(ents)-1].Index)
		}
	}
}

func TestSingleNodeClusterElectsAndCommits(t *testing.T) {
	c := newCluster(t, 1)
	n := c.nodes[1]
	n.Campaign()
	if n.State() != StateLeader {
		t.Fatalf("state = %v", n.State())
	}
	idx, err := n.Propose(Entry{Kind: KindReadWrite, Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if n.Log().Commit() != idx {
		t.Fatalf("commit = %d, want %d", n.Log().Commit(), idx)
	}
}

func TestThreeNodeElection(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	// All nodes agree on the leader.
	c.tickAll()
	for _, n := range c.nodes {
		if n.Leader() != lead.ID() {
			t.Fatalf("node %d thinks leader is %d, want %d", n.ID(), n.Leader(), lead.ID())
		}
	}
	// The leader's no-op commits.
	if lead.Log().Commit() < 1 {
		t.Fatalf("noop not committed: %v", lead.Status())
	}
}

func TestProposeNonLeaderFails(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	for id, n := range c.nodes {
		if id == lead.ID() {
			continue
		}
		if _, err := n.Propose(Entry{Kind: KindReadWrite}); err != ErrNotLeader {
			t.Fatalf("follower propose: %v", err)
		}
	}
}

func TestReplicationAndApply(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	for i := 0; i < 10; i++ {
		if _, err := lead.Propose(Entry{Kind: KindReadWrite, Data: []byte(fmt.Sprintf("op%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	lead.BroadcastAppend()
	c.deliver()
	c.settle(5) // commit index propagates on subsequent AEs
	c.applyCommitted()
	states := c.applyAll()
	want := states[lead.ID()]
	if len(want) != 10 {
		t.Fatalf("leader applied %d entries", len(want))
	}
	for id, got := range states {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("node %d state %v != leader %v", id, got, want)
		}
	}
}

func TestLeaderFailoverPreservesCommitted(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	lead.Propose(Entry{Kind: KindReadWrite, Data: []byte("keep")})
	lead.BroadcastAppend()
	c.deliver()
	c.tickAll()
	if lead.Log().Commit() < 2 {
		t.Fatalf("entry not committed: %v", lead.Status())
	}
	c.down[lead.ID()] = true
	newLead := c.runUntilLeader()
	if newLead.ID() == lead.ID() {
		t.Fatal("dead leader still leading")
	}
	// Leader completeness: the committed entry must be in the new
	// leader's log.
	found := false
	for i := uint64(1); i <= newLead.Log().LastIndex(); i++ {
		if e := newLead.Log().Entry(i); e != nil && string(e.Data) == "keep" {
			found = true
		}
	}
	if !found {
		t.Fatal("committed entry lost across failover")
	}
	// And the new leader can still commit new entries.
	newLead.Propose(Entry{Kind: KindReadWrite, Data: []byte("after")})
	newLead.BroadcastAppend()
	c.deliver()
	c.tickAll()
	if newLead.Log().Commit() < newLead.Log().LastIndex() {
		t.Fatalf("new leader cannot commit: %v", newLead.Status())
	}
}

func TestPartitionedLeaderStepsDown(t *testing.T) {
	c := newCluster(t, 5)
	lead := c.runUntilLeader()
	// Isolate the leader (both directions, all peers).
	c.cut[lead.ID()] = map[NodeID]bool{}
	for id := range c.nodes {
		if id != lead.ID() {
			if c.cut[id] == nil {
				c.cut[id] = map[NodeID]bool{}
			}
			c.cut[lead.ID()][id] = true
			c.cut[id][lead.ID()] = true
		}
	}
	// Old leader proposes into the void.
	lead.Propose(Entry{Kind: KindReadWrite, Data: []byte("lost")})
	// Wait for a *different* node to take over (the isolated leader
	// cannot observe the new term and stays leader until healed).
	var newLead *Node
	for i := 0; i < 1000 && newLead == nil; i++ {
		c.tickAll()
		for id, n := range c.nodes {
			if id != lead.ID() && n.State() == StateLeader {
				newLead = n
			}
		}
	}
	if newLead == nil {
		t.Fatal("majority side never elected a leader")
	}
	// Heal: old leader must step down and adopt the new log.
	c.cut = map[NodeID]map[NodeID]bool{}
	for i := 0; i < 50; i++ {
		c.tickAll()
	}
	if lead.State() == StateLeader && lead.Term() <= newLead.Term() {
		t.Fatalf("stale leader did not step down: %v vs %v", lead.Status(), newLead.Status())
	}
	// The uncommitted "lost" proposal must not appear anywhere applied.
	c.applyCommitted()
	for id, applied := range c.applyAll() {
		for _, d := range applied {
			if d == "lost" {
				t.Fatalf("node %d applied uncommitted entry from deposed leader", id)
			}
		}
	}
}

func TestSnapshotCatchup(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	// Take a follower down, fill the log, compact it away.
	var slow NodeID
	for id := range c.nodes {
		if id != lead.ID() {
			slow = id
			break
		}
	}
	c.down[slow] = true
	for i := 0; i < 20; i++ {
		lead.Propose(Entry{Kind: KindReadWrite, Data: []byte(fmt.Sprintf("e%d", i))})
	}
	lead.BroadcastAppend()
	c.deliver()
	c.tickAll()
	c.applyCommitted()
	if err := lead.Compact(lead.Log().Applied(), []byte("snapshot-blob")); err != nil {
		t.Fatal(err)
	}
	if lead.Log().FirstIndex() <= 1 {
		t.Fatal("compaction did nothing")
	}
	// Revive the follower: it must be restored via InstallSnapshot.
	c.down[slow] = false
	for i := 0; i < 50; i++ {
		c.tickAll()
	}
	sn := c.nodes[slow]
	if sn.Log().SnapIndex() == 0 {
		t.Fatalf("follower %d never got a snapshot: %v", slow, sn.Status())
	}
	if string(sn.Log().SnapData()) != "snapshot-blob" {
		t.Fatalf("snapshot data = %q", sn.Log().SnapData())
	}
	if sn.Log().Commit() < lead.Log().SnapIndex() {
		t.Fatalf("follower commit %d below snapshot %d", sn.Log().Commit(), lead.Log().SnapIndex())
	}
}

func TestAppliedIndexPiggyback(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	lead.Propose(Entry{Kind: KindReadWrite, Data: []byte("x")})
	lead.BroadcastAppend()
	c.deliver()
	c.settle(3)
	c.applyCommitted()
	c.settle(3) // AE replies carry applied idx
	for id := range c.nodes {
		if id == lead.ID() {
			continue
		}
		pr := lead.Progress(id)
		if pr == nil {
			t.Fatalf("no progress for %d", id)
		}
		if pr.Applied == 0 {
			t.Fatalf("leader never learned applied idx of %d", id)
		}
	}
}

func TestForceCommit(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	idx, _ := lead.Propose(Entry{Kind: KindReadWrite, Data: []byte("x")})
	// Simulate an AGG_COMMIT: commit without local quorum accounting.
	if !lead.ForceCommit(idx) {
		t.Fatal("force commit did not advance")
	}
	if lead.Log().Commit() != idx {
		t.Fatalf("commit = %d", lead.Log().Commit())
	}
	// Never regresses, never exceeds the log.
	if lead.ForceCommit(idx - 1) {
		t.Fatal("force commit regressed")
	}
	lead.ForceCommit(idx + 100)
	if lead.Log().Commit() != lead.Log().LastIndex() {
		t.Fatal("force commit exceeded log")
	}
}

func TestAppendMsgFrom(t *testing.T) {
	c := newCluster(t, 3)
	lead := c.runUntilLeader()
	for i := 0; i < 5; i++ {
		lead.Propose(Entry{Kind: KindReadWrite, Data: []byte{byte(i)}})
	}
	m, ok := lead.AppendMsgFrom(2, 99, 0)
	if !ok {
		t.Fatal("AppendMsgFrom failed")
	}
	if m.Index != 1 || len(m.Entries) == 0 || m.Entries[0].Index != 2 {
		t.Fatalf("group append = %+v", m)
	}
	if m.To != 99 || m.Type != MsgApp {
		t.Fatalf("addressing = %+v", m)
	}
	// Below the compaction horizon it must refuse.
	if _, ok := lead.AppendMsgFrom(0, 99, 0); ok {
		t.Fatal("accepted next=0")
	}
	// Non-leader refuses.
	for id, n := range c.nodes {
		if id != lead.ID() {
			if _, ok := n.AppendMsgFrom(1, 99, 0); ok {
				t.Fatal("follower built group append")
			}
		}
	}
}

func TestStorageCallbacks(t *testing.T) {
	peers := []NodeID{1}
	st := NewMemoryStorage()
	n := NewNode(Config{ID: 1, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Storage: st})
	n.Campaign()
	n.Propose(Entry{Kind: KindReadWrite, Data: []byte("d")})
	if st.Term != 1 {
		t.Fatalf("persisted term = %d", st.Term)
	}
	if st.EntryCount() != 2 { // noop + entry
		t.Fatalf("persisted entries = %d", st.EntryCount())
	}
	if ents := n.NextCommitted(0); len(ents) > 0 {
		n.AppliedTo(ents[len(ents)-1].Index)
	}
	if err := n.Compact(n.Log().Applied(), []byte("s")); err != nil {
		t.Fatal(err)
	}
	if st.SnapIdx != 2 || st.EntryCount() != 0 {
		t.Fatalf("snapshot persistence: idx=%d entries=%d", st.SnapIdx, st.EntryCount())
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(cfg Config) {
		defer func() {
			if recover() == nil {
				t.Fatalf("config %+v accepted", cfg)
			}
		}()
		NewNode(cfg)
	}
	mustPanic(Config{ID: 0, Peers: []NodeID{1}})
	mustPanic(Config{ID: 2, Peers: []NodeID{1}})
	mustPanic(Config{ID: 1, Peers: []NodeID{1}, ElectionTicks: 2, HeartbeatTicks: 5})
}

// TestFuzzConsensusSafety runs randomized message loss, partitions, and
// leader churn, continuously checking:
//   - election safety: at most one leader per term,
//   - log matching / state machine safety: all applied prefixes agree.
func TestFuzzConsensusSafety(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newCluster(t, 5)
			c.dropFn = func(m Message) bool { return rng.Float64() < 0.1 }
			var proposed int
			for step := 0; step < 400; step++ {
				c.tickAll()
				// Random proposals at whoever thinks it leads.
				for _, n := range c.nodes {
					if n.State() == StateLeader && rng.Float64() < 0.5 {
						n.Propose(Entry{Kind: KindReadWrite,
							Data: []byte(fmt.Sprintf("p%d", proposed))})
						proposed++
					}
				}
				// Random crash/restart.
				if rng.Float64() < 0.03 {
					id := NodeID(rng.Intn(5) + 1)
					c.down[id] = !c.down[id]
					// Never take a majority down.
					downCount := 0
					for _, d := range c.down {
						if d {
							downCount++
						}
					}
					if downCount > 2 {
						c.down[id] = false
					}
				}
				c.applyCommitted()
				// State machine safety: applied sequences must be
				// prefixes of each other.
				var longest []string
				states := c.applyAll()
				for _, s := range states {
					if len(s) > len(longest) {
						longest = s
					}
				}
				for id, s := range states {
					for i := range s {
						if s[i] != longest[i] {
							t.Fatalf("step %d: node %d diverged at %d: %q vs %q",
								step, id, i, s[i], longest[i])
						}
					}
				}
			}
		})
	}
}
