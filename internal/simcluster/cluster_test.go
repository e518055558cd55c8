package simcluster

import (
	"testing"
	"time"

	"hovercraft/internal/loadgen"
	"hovercraft/internal/simnet"
)

func synthWorkload(svc time.Duration, reqSize, replySize int, roFrac float64, unrep bool) *loadgen.Synthetic {
	return &loadgen.Synthetic{
		ServiceTime:  loadgen.Fixed(svc),
		ReqSize:      reqSize,
		ReplySize:    replySize,
		ReadFraction: roFrac,
		Unreplicated: unrep,
	}
}

// runLoad drives one client against the cluster and returns its result.
func runLoad(t *testing.T, c *Cluster, rate float64, w loadgen.Workload, warm, dur time.Duration) loadgen.Result {
	t.Helper()
	cfg := simnet.DefaultHostConfig()
	cl := loadgen.NewClient(c.Net, "client", cfg, loadgen.ClientConfig{
		Rate: rate, Warmup: warm, Duration: dur,
		Timeout: 50 * time.Millisecond, Workload: w,
		Target: c.ServiceAddr, Port: 1000,
	})
	c.Start()
	cl.Start()
	c.Run(warm + dur + 60*time.Millisecond)
	return cl.Result()
}

func TestUnreplicatedServing(t *testing.T) {
	c := New(Options{Setup: SetupUnreplicated, Seed: 1})
	res := runLoad(t, c, 50_000, synthWorkload(time.Microsecond, 24, 8, 0, true),
		10*time.Millisecond, 100*time.Millisecond)
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of offered %.0f", res.Achieved, res.Offered)
	}
	// Unloaded latency should be in the tens of µs.
	if res.Latency.P99 > 100*time.Microsecond {
		t.Fatalf("p99 = %v", res.Latency.P99)
	}
	if res.Latency.P50 < 10*time.Microsecond {
		t.Fatalf("p50 = %v implausibly fast", res.Latency.P50)
	}
}

func TestVanillaRaftServing(t *testing.T) {
	c := New(Options{Setup: SetupVanilla, Nodes: 3, Seed: 2})
	res := runLoad(t, c, 50_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 100*time.Millisecond)
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of offered %.0f (p99 %v, loss %.0f)",
			res.Achieved, res.Offered, res.Latency.P99, res.LossRate)
	}
	if res.Latency.P99 > 500*time.Microsecond {
		t.Fatalf("p99 = %v over SLO at moderate load", res.Latency.P99)
	}
	// Replication adds latency over a bare RTT but stays µs-scale.
	if res.Latency.P50 < 15*time.Microsecond {
		t.Fatalf("p50 = %v implausibly fast for consensus", res.Latency.P50)
	}
	if c.LeaderOf(0) == nil || c.LeaderOf(0).ID != 1 {
		t.Fatal("bootstrap leader wrong")
	}
}

func TestHovercraftServing(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 3})
	res := runLoad(t, c, 100_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 100*time.Millisecond)
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of offered %.0f (p99 %v, nack %.0f, loss %.0f)",
			res.Achieved, res.Offered, res.Latency.P99, res.NackRate, res.LossRate)
	}
	if res.Latency.P99 > 500*time.Microsecond {
		t.Fatalf("p99 = %v over SLO", res.Latency.P99)
	}
	// All three nodes applied the whole log (full replication).
	lead := c.LeaderOf(0)
	for _, n := range c.Nodes {
		if n.Engines[0].Node().Log().Applied() < lead.Engines[0].Node().Log().Applied()*9/10 {
			t.Fatalf("node %d lagging: %v vs %v", n.ID,
				n.Engines[0].Node().Status(), lead.Engines[0].Node().Status())
		}
	}
}

func TestHovercraftPPServing(t *testing.T) {
	c := New(Options{Setup: SetupHovercraftPP, Nodes: 5, Seed: 4})
	res := runLoad(t, c, 100_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 100*time.Millisecond)
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of offered %.0f (p99 %v)", res.Achieved, res.Offered, res.Latency.P99)
	}
	if res.Latency.P99 > 500*time.Microsecond {
		t.Fatalf("p99 = %v over SLO", res.Latency.P99)
	}
	// The aggregator actually carried the traffic.
	if c.Agg.ForwardedAE == 0 || c.Agg.Commits == 0 {
		t.Fatalf("aggregator idle: fwd=%d commits=%d", c.Agg.ForwardedAE, c.Agg.Commits)
	}
	lead := c.LeaderOf(0)
	if lead.Engines[0].Counters().Value("tx_agg_ae") == 0 {
		t.Fatal("leader not in group mode")
	}
}

func TestReplyLoadBalancingSpreadsReplies(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 5})
	res := runLoad(t, c, 50_000, synthWorkload(time.Microsecond, 24, 1024, 0.75, false),
		10*time.Millisecond, 100*time.Millisecond)
	if res.Achieved < 0.9*res.Offered {
		t.Fatalf("achieved %.0f of %.0f", res.Achieved, res.Offered)
	}
	// Each node sent a meaningful share of replies.
	var total uint64
	for _, n := range c.Nodes {
		total += n.Engines[0].Counters().Value("tx_resp")
	}
	for _, n := range c.Nodes {
		replies := n.Engines[0].Counters().Value("tx_resp")
		if replies < total/10 {
			t.Fatalf("node %d sent only %d of %d replies", n.ID, replies, total)
		}
	}
}

func TestDisableReplyLBAllFromLeader(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 6, DisableReplyLB: true})
	res := runLoad(t, c, 20_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 50*time.Millisecond)
	if res.Achieved < 0.9*res.Offered {
		t.Fatalf("achieved %.0f of %.0f", res.Achieved, res.Offered)
	}
	for _, n := range c.Nodes {
		replies := n.Engines[0].Counters().Value("tx_resp")
		if n.ID == 1 && replies == 0 {
			t.Fatal("leader sent no replies")
		}
		if n.ID != 1 && replies != 0 {
			t.Fatalf("follower %d sent %d replies with LB disabled", n.ID, replies)
		}
	}
}

func TestLeaderFailoverUnderLoad(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 7})
	cfg := simnet.DefaultHostConfig()
	w := synthWorkload(time.Microsecond, 24, 8, 0, false)
	cl := loadgen.NewClient(c.Net, "client", cfg, loadgen.ClientConfig{
		Rate: 20_000, Warmup: 10 * time.Millisecond, Duration: 200 * time.Millisecond,
		Timeout: 50 * time.Millisecond, Workload: w,
		Target: c.ServiceAddr, Port: 1000,
	})
	c.Start()
	cl.Start()
	// Kill the leader mid-run.
	c.Sim.After(80*time.Millisecond, func() {
		lead := c.LeaderOf(0)
		if lead == nil {
			t.Error("no leader to kill")
			return
		}
		lead.Crash()
	})
	c.Run(300 * time.Millisecond)
	newLead := c.LeaderOf(0)
	if newLead == nil {
		t.Fatal("no leader after failover")
	}
	if newLead.ID == 1 {
		t.Fatal("dead leader still leading")
	}
	res := cl.Result()
	// The vast majority of requests must still complete: brief outage
	// during the election, bounded reply loss (B) at the failed node.
	if res.Achieved < 0.80*res.Offered {
		t.Fatalf("achieved %.0f of %.0f across failover", res.Achieved, res.Offered)
	}
	// The survivors converge.
	live := 0
	for _, n := range c.Nodes {
		if !n.Crashed() {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("live = %d", live)
	}
}

func TestFlowControlNacksOverload(t *testing.T) {
	// Offer 3x the app capacity (S=10µs → 100 kRPS max) with the
	// Fig. 12 flow-control window of 1000 requests: the middlebox must
	// shed the excess while goodput stays near capacity.
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 8, FlowLimit: 1000})
	res := runLoad(t, c, 300_000, synthWorkload(10*time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 50*time.Millisecond)
	if res.NackRate == 0 {
		t.Fatal("no NACKs under 3x overload")
	}
	// No collapse: goodput stays close to app capacity (~100k/s).
	if res.Achieved < 60_000 {
		t.Fatalf("throughput collapsed: %.0f", res.Achieved)
	}
	// Admitted requests complete: drops happen at admission, not after.
	if res.LossRate > 0.10*res.Achieved {
		t.Fatalf("excessive post-admission loss: %.0f/s", res.LossRate)
	}
}

func TestMulticastLossRecovery(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 9})
	c.Net.SetDropRate(0.01) // 1% of every packet copy dropped
	res := runLoad(t, c, 20_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 100*time.Millisecond)
	// With 1% loss and recovery, nearly everything still completes.
	if res.Achieved < 0.90*res.Offered {
		t.Fatalf("achieved %.0f of %.0f under loss", res.Achieved, res.Offered)
	}
	// Recovery actually ran on some node.
	var recoveries uint64
	for _, n := range c.Nodes {
		recoveries += n.Engines[0].Counters().Value("tx_recovery_req")
	}
	if recoveries == 0 {
		t.Fatal("no recovery traffic despite forced loss")
	}
}

func TestCrashRestartCatchesUp(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 10})
	cfg := simnet.DefaultHostConfig()
	cl := loadgen.NewClient(c.Net, "client", cfg, loadgen.ClientConfig{
		Rate: 20_000, Warmup: 10 * time.Millisecond, Duration: 200 * time.Millisecond,
		Timeout:  50 * time.Millisecond,
		Workload: synthWorkload(time.Microsecond, 24, 8, 0, false),
		Target:   c.ServiceAddr, Port: 1000,
	})
	c.Start()
	cl.Start()
	var victim *Node
	c.Sim.After(50*time.Millisecond, func() {
		victim = c.Nodes[2] // a follower
		victim.Crash()
	})
	c.Sim.After(120*time.Millisecond, func() { victim.Restart() })
	c.Run(300 * time.Millisecond)
	lead := c.LeaderOf(0)
	if lead == nil {
		t.Fatal("no leader")
	}
	if victim.Engines[0].Node().Log().Applied() < lead.Engines[0].Node().Log().Applied()*9/10 {
		t.Fatalf("restarted follower did not catch up: %v vs %v",
			victim.Engines[0].Node().Status(), lead.Engines[0].Node().Status())
	}
}
