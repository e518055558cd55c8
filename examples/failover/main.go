// Failover demo (§7.4, Fig. 12): a HovercRaft++ cluster under fixed load
// loses its leader; a follower takes over within the election timeout,
// the cluster gracefully degrades to 2-node capacity, and flow control
// sheds the overflow instead of letting the system collapse.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"time"

	"hovercraft/internal/harness"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/simcluster"
)

func main() {
	fmt.Println("HovercRaft++ 3-node cluster, bimodal S̄=10µs, 75% read-only,")
	fmt.Println("165 kRPS fixed offered load, flow-control window 1000.")
	fmt.Println("Killing the leader at t=600ms...")
	fmt.Println()

	sys := harness.HovercraftPP(3)
	sys.DisableReplyLB = false
	sys.Bound = 32
	sys.FlowLimit = 1000
	wl := harness.SyntheticSpec{
		Service:  loadgen.PaperBimodal(10 * time.Microsecond),
		ReqSize:  24,
		ReadFrac: 0.75,
	}
	var killedAt time.Duration
	res := harness.RunPoint(sys, wl, 165_000, harness.RunConfig{
		Seed: 7, Warmup: 0, Duration: 1200 * time.Millisecond, Clients: 4,
		SampleEvery: 50 * time.Millisecond,
		OnCluster: func(c *simcluster.Cluster) {
			c.Sim.After(600*time.Millisecond, func() {
				if lead := c.LeaderOf(0); lead != nil {
					killedAt = c.Sim.Now()
					lead.Crash()
				}
			})
		},
	})

	fmt.Printf("%10s  %12s  %10s\n", "t", "kRPS", "p99")
	for i := 0; i < res.Clients[0].Throughput.Len(); i++ {
		var sum, worst float64
		var tm time.Duration
		for _, cl := range res.Clients {
			if i >= cl.Throughput.Len() {
				continue
			}
			t, v := cl.Throughput.At(i)
			tm, sum = t, sum+v
			if _, l := cl.TailP99.At(i); l > worst {
				worst = l
			}
		}
		marker := ""
		if killedAt > 0 && tm >= killedAt && tm < killedAt+50*time.Millisecond {
			marker = "   <- leader killed"
		}
		fmt.Printf("%10v  %12.0f  %8.2fms%s\n", tm.Round(time.Millisecond), sum/1000, worst, marker)
	}

	lead := "none"
	for _, n := range res.Cluster.Nodes {
		if !n.Crashed() && n.Engines[0].IsLeader() {
			lead = fmt.Sprintf("node %d", n.ID)
		}
	}
	fmt.Println()
	fmt.Printf("new leader: %s;  achieved %.0f kRPS overall, %.1f kRPS shed by flow control, %.1f kRPS lost\n",
		lead, res.Point.AchievedKRPS, res.Point.NackKRPS, res.Point.LossKRPS)
	fmt.Println("(paper: throughput drops 165k -> ~160k with ~5 kRPS shed; no collapse)")
}
