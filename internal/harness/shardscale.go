package harness

import (
	"fmt"
	"time"

	"hovercraft/internal/loadgen"
	"hovercraft/internal/simcluster"
	"hovercraft/internal/stats"
)

// shardWorkload is the §7.1 microbenchmark with a routing keyspace large
// enough that consistent hashing splits it evenly.
type shardWorkload struct{ SyntheticSpec }

// NewWorkload implements WorkloadSpec.
func (w shardWorkload) NewWorkload(bool) loadgen.Workload {
	return &loadgen.Synthetic{
		ServiceTime: w.Service, ReqSize: w.ReqSize, ReplySize: w.ReplySize,
		Keys: 1 << 16,
	}
}

// shardSystem is G HovercRaft groups of replication replicas placed over
// a fixed pool of nodes. Holding the pool constant while G varies is the
// honest scaling question — sharding over full-membership groups cannot
// scale (every node still executes every write); sharding scales by
// turning idle pool nodes into independent consensus groups, until
// G*replication exceeds the pool and placements overlap.
func shardSystem(groups, pool, replication int) SystemSpec {
	return SystemSpec{
		Label: fmt.Sprintf("G=%d (pool %d, R=%d)", groups, pool, replication),
		Setup: simcluster.SetupHovercraft, Nodes: pool,
		Groups: groups, Replication: replication,
		DisableReplyLB: true, // isolate protocol overheads, as in §7.1
	}
}

// Shardscale is the Multi-Raft scale-out experiment: max throughput under
// the 500µs SLO as the group count G sweeps over a fixed 12-node pool
// with replication 3. Groups are disjoint up to G=4 (= pool/replication),
// so aggregate capacity grows near-linearly there; at G=8 placements
// overlap — every node hosts two groups — and throughput saturates at
// the pool's aggregate capacity instead of collapsing.
func Shardscale(sc Scale) *Report {
	const (
		pool        = 12
		replication = 3
	)
	groups := sc.ShardGroups
	if len(groups) == 0 {
		groups = []int{1, 2, 4, 8}
	}
	wl := shardWorkload{SyntheticSpec{Service: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8}}

	t := &stats.Table{
		Title:   fmt.Sprintf("Max kRPS under 500µs SLO vs group count (pool %d, R=%d, S=1µs, 24B/8B)", pool, replication),
		Headers: []string{"groups", "max kRPS under SLO", "speedup vs G=1", "p99 at max"},
	}
	rep := &Report{
		ID:    "shardscale",
		Title: "Multi-Raft scale-out: throughput under SLO vs shard count",
		PaperClaim: "the paper's single-group HovercRaft is leader-throughput-bound; " +
			"partitioning the keyspace over G groups placed across the same pool " +
			"scales aggregate RPS near-linearly until G exceeds pool/replication, " +
			"then saturates at pool capacity (no collapse)",
		Tables: []*stats.Table{t},
	}

	var curves []Curve
	base := 0.0
	for _, g := range groups {
		eff := g
		if max := pool / replication; eff > max {
			eff = max
		}
		sys := shardSystem(g, pool, replication)
		cfg := sc.runCfg()
		// Spread client load so the generators never bottleneck a multi-
		// group sweep (each group can absorb ~1M RPS on its own).
		cfg.Clients = 4 * eff
		rates := SweepRates(1_050_000*float64(eff), sc.Points)
		curve := RunCurve(sys, wl, rates, cfg)
		curve.Label = sys.Label
		curves = append(curves, curve)

		max := curve.MaxUnderSLO(SLO)
		if g == groups[0] && g == 1 {
			base = max
		}
		speedup := "n/a"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", max/base)
		}
		p99 := "n/a"
		for _, p := range curve.Points {
			if p.AchievedKRPS == max {
				p99 = p.P99.String()
			}
		}
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%.0f", max), speedup, p99)
	}
	rep.Curves = curves
	rep.Tables = append(rep.Tables, CurveTable("shardscale data", curves))

	// Per-shard breakdown at the largest G, highest under-SLO load: shows
	// the consistent-hash partition is balanced and every group carries
	// its share.
	last := groups[len(groups)-1]
	eff := last
	if max := pool / replication; eff > max {
		eff = max
	}
	cfg := sc.runCfg()
	cfg.Clients = 4 * eff
	res := RunPoint(shardSystem(last, pool, replication), wl, 700_000*float64(eff), cfg)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("per-shard breakdown at G=%d, %.0f kRPS offered:\n%s",
			last, res.Point.OfferedKRPS, loadgen.ShardTable(loadgen.MergeShardStats(res.Clients), cfg.Duration)))
	return rep
}
