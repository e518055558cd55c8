package simcluster

import (
	"testing"
	"time"

	"hovercraft/internal/loadgen"
	"hovercraft/internal/simnet"
)

// TestAggregatorFailureFallsBackAndRecovers exercises §5 "In-network
// Aggregation" failure handling: when the aggregator dies, followers stop
// receiving AppendEntries (they flowed through it), a new election fires,
// and the new leader — receiving no pong from the dead aggregator — keeps
// operating in plain point-to-point HovercRaft. When the aggregator comes
// back (soft state only: it restarts empty), the leader's periodic ping
// re-establishes group mode.
func TestAggregatorFailureFallsBackAndRecovers(t *testing.T) {
	c := New(Options{Setup: SetupHovercraftPP, Nodes: 3, Seed: 31})
	w := &loadgen.Synthetic{ServiceTime: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8}
	cl := loadgen.NewClient(c.Net, "client", simnet.DefaultHostConfig(), loadgen.ClientConfig{
		Rate: 30_000, Warmup: 10 * time.Millisecond, Duration: 300 * time.Millisecond,
		Timeout: 50 * time.Millisecond, Workload: w,
		Target: c.ServiceAddr, Port: 1000,
	})
	c.Start()
	cl.Start()

	var aggCommitsAtKill, aeAtKill uint64
	c.Sim.After(100*time.Millisecond, func() {
		// Verify group mode is in effect, then kill the aggregator.
		lead := c.LeaderOf(0)
		if lead == nil {
			t.Error("no leader before aggregator kill")
			return
		}
		if lead.Engines[0].Counters().Value("tx_agg_ae") == 0 {
			t.Error("cluster never entered group mode before the kill")
		}
		aggCommitsAtKill = c.Agg.Commits
		aeAtKill = lead.Engines[0].Counters().Value("tx_ae")
		c.AggHost().Crash()
	})
	c.Sim.After(200*time.Millisecond, func() { c.AggHost().Restart() })
	c.Run(400 * time.Millisecond)

	res := cl.Result()
	// The cluster survives the aggregator outage; a brief election gap
	// plus bounded reply loss is acceptable, collapse is not.
	if res.Achieved < 0.85*res.Offered {
		t.Fatalf("achieved %.0f of %.0f across aggregator outage (loss %.0f, nack %.0f)",
			res.Achieved, res.Offered, res.LossRate, res.NackRate)
	}
	lead := c.LeaderOf(0)
	if lead == nil {
		t.Fatal("no leader at the end")
	}
	// During the outage the leader used direct point-to-point appends...
	if lead.Engines[0].Counters().Value("tx_ae") <= aeAtKill {
		t.Fatal("leader never fell back to point-to-point appends")
	}
	// ...and after the restart, group mode resumed (fresh soft state).
	if c.Agg.Commits <= aggCommitsAtKill {
		t.Fatalf("aggregator never resumed committing after restart (%d vs %d)",
			c.Agg.Commits, aggCommitsAtKill)
	}
	// All survivors converge on the same applied state.
	var maxApplied uint64
	for _, n := range c.Nodes {
		if a := n.Engines[0].Node().Log().Applied(); a > maxApplied {
			maxApplied = a
		}
	}
	for _, n := range c.Nodes {
		if n.Engines[0].Node().Log().Applied() < maxApplied*9/10 {
			t.Fatalf("node %d lagging after recovery: %v", n.ID, n.Engines[0].Node().Status())
		}
	}
}

// TestMinorityPartitionedLeaderCannotCommit isolates the leader from both
// followers mid-load: the majority side elects a new leader and keeps
// serving; the isolated ex-leader cannot commit anything; after healing it
// rejoins as a follower with a converged log.
func TestMinorityPartitionedLeaderCannotCommit(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 32})
	w := &loadgen.Synthetic{ServiceTime: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8}
	cl := loadgen.NewClient(c.Net, "client", simnet.DefaultHostConfig(), loadgen.ClientConfig{
		Rate: 20_000, Warmup: 10 * time.Millisecond, Duration: 300 * time.Millisecond,
		Timeout: 50 * time.Millisecond, Workload: w,
		Target: c.ServiceAddr, Port: 1000,
	})
	c.Start()
	cl.Start()

	var old *Node
	var commitAtIsolation uint64
	c.Sim.After(80*time.Millisecond, func() {
		old = c.LeaderOf(0)
		if old == nil {
			t.Error("no leader to isolate")
			return
		}
		commitAtIsolation = old.Engines[0].Node().Log().Commit()
		for _, n := range c.Nodes {
			if n != old {
				c.Net.Partition(old.Host.Addr(), n.Host.Addr())
			}
		}
	})
	c.Sim.After(220*time.Millisecond, func() { c.Net.HealAll() })
	c.Run(450 * time.Millisecond)

	if old == nil {
		t.Fatal("setup failed")
	}
	// While isolated, the old leader could not commit: its commit index
	// could only have advanced marginally (in-flight acks at the cut).
	// By the end it must have rejoined at the new term.
	newLead := c.LeaderOf(0)
	if newLead == nil {
		t.Fatal("no leader after heal")
	}
	if newLead == old && newLead.Engines[0].Node().Term() == old.Engines[0].Node().Term() {
		// It may legitimately win re-election after healing, but only
		// at a higher term than the isolated one.
		t.Fatalf("isolated leader still leading its old term")
	}
	// Majority side kept committing during the partition.
	if newLead.Engines[0].Node().Log().Commit() <= commitAtIsolation+10 {
		t.Fatalf("majority made no progress during partition: commit %d vs %d",
			newLead.Engines[0].Node().Log().Commit(), commitAtIsolation)
	}
	// Convergence after heal.
	for _, n := range c.Nodes {
		if n.Engines[0].Node().Log().Applied() < newLead.Engines[0].Node().Log().Applied()*9/10 {
			t.Fatalf("node %d did not converge: %v vs %v", n.ID,
				n.Engines[0].Node().Status(), newLead.Engines[0].Node().Status())
		}
	}
	res := cl.Result()
	// Most of the run's requests completed (outage window excepted).
	if res.Achieved < 0.70*res.Offered {
		t.Fatalf("achieved %.0f of %.0f across the partition", res.Achieved, res.Offered)
	}
}
