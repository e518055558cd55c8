package harness

import (
	"fmt"
	"time"

	"hovercraft/internal/core"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/simcluster"
	"hovercraft/internal/stats"
)

// Scale trades fidelity for runtime: Full regenerates the paper figures,
// Quick keeps CI and `go test -bench` fast.
type Scale struct {
	Warmup   time.Duration
	Duration time.Duration
	Points   int // sweep points per curve
	Seed     int64
	// TraceDir, when set, makes experiments attach a tracer to one
	// representative run per system and drop Perfetto-loadable
	// *.trace.json plus *.metrics.json artifacts into the directory.
	TraceDir string
	// ShardGroups overrides the group counts the shardscale experiment
	// sweeps (empty = {1, 2, 4, 8}).
	ShardGroups []int
}

// FullScale is the figure-quality configuration.
func FullScale() Scale {
	return Scale{Warmup: 20 * time.Millisecond, Duration: 80 * time.Millisecond, Points: 7, Seed: 42}
}

// QuickScale is the CI configuration.
func QuickScale() Scale {
	return Scale{Warmup: 10 * time.Millisecond, Duration: 30 * time.Millisecond, Points: 4, Seed: 42}
}

func (s Scale) runCfg() RunConfig {
	return RunConfig{Seed: s.Seed, Warmup: s.Warmup, Duration: s.Duration, Clients: 4}
}

// baselineWorkload is the §7.1 microbenchmark: S=1µs fixed, 24B requests,
// 8B replies, no read-only operations.
func baselineWorkload() SyntheticSpec {
	return SyntheticSpec{Service: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8}
}

// Experiments lists every reproduction in paper order.
func Experiments() []string {
	return []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "shardscale", "failover", "overload", "readscale"}
}

// Run dispatches an experiment by ID.
func Run(id string, sc Scale) (*Report, error) {
	switch id {
	case "table1":
		return Table1(sc), nil
	case "fig7":
		return Fig7(sc), nil
	case "fig8":
		return Fig8(sc), nil
	case "fig9":
		return Fig9(sc), nil
	case "fig10":
		return Fig10(sc), nil
	case "fig11":
		return Fig11(sc), nil
	case "fig12":
		return Fig12(sc), nil
	case "fig13":
		return Fig13(sc), nil
	case "shardscale":
		return Shardscale(sc), nil
	case "failover":
		return Failover(sc), nil
	case "overload":
		return Overload(sc), nil
	case "readscale":
		return Readscale(sc), nil
	default:
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, Experiments())
	}
}

// --- Table 1 ---------------------------------------------------------------

// Table1 measures the leader's per-request Rx/Tx message counts for the
// three replicated systems on N=5 and compares them with the paper's
// analytic complexity (Raft: rx 1+(N-1), tx (N-1)+1; HovercRaft: rx
// 1+(N-1), tx (N-1)+1/N; HovercRaft++: rx 1+1, tx 1+1/N).
func Table1(sc Scale) *Report {
	const n = 5
	wl := baselineWorkload()
	rate := 200_000.0

	t := &stats.Table{
		Title: "Leader message complexity per request (N=5, 200 kRPS)",
		Headers: []string{"system", "rx/req(paper)", "rx/req(measured)",
			"tx/req(paper)", "tx/req(measured)"},
	}
	type row struct {
		sys          SystemSpec
		paperRx      string
		paperTx      string
		enableLB     bool
		useAggregate bool
	}
	rows := []row{
		{Vanilla(n), "1+(N-1)=5", "(N-1)+1=5", false, false},
		{func() SystemSpec { s := Hovercraft(n); s.DisableReplyLB = false; return s }(),
			"1+(N-1)=5", "(N-1)+1/N=4.2", true, false},
		{func() SystemSpec { s := HovercraftPP(n); s.DisableReplyLB = false; return s }(),
			"1+1=2", "1+1/N=1.2", true, true},
	}
	rep := &Report{
		ID:    "table1",
		Title: "Rx/Tx message overheads at the leader",
		PaperClaim: "Raft leader handles Θ(N) messages per request; HovercRaft " +
			"shrinks Tx via reply LB; HovercRaft++ makes both ends ~constant",
		Tables: []*stats.Table{t},
	}
	for _, r := range rows {
		res := RunPoint(r.sys, wl, rate, sc.runCfg())
		lead := res.Cluster.LeaderOf(0)
		if lead == nil {
			continue
		}
		c := lead.Engines[0].Counters()
		reqs := float64(c.Value("rx_req"))
		if reqs == 0 {
			continue
		}
		rx := float64(c.Value("rx_req")+c.Value("rx_ae_resp")+
			c.Value("rx_agg_commit")+c.Value("rx_recovery_req")) / reqs
		tx := float64(c.Value("tx_ae")+c.Value("tx_agg_ae")+c.Value("tx_resp")+
			c.Value("tx_feedback")+c.Value("tx_recovery_resp")) / reqs
		t.AddRow(r.sys.Label, r.paperRx, fmt.Sprintf("%.2f", rx),
			r.paperTx, fmt.Sprintf("%.2f", tx))
	}
	rep.Notes = append(rep.Notes,
		"measured counts are below the per-request analytic formulas because the "+
			"implementation batches AppendEntries on a 10µs interval (the paper's "+
			"DPDK poll loop batches similarly under load); the shape to check is the "+
			"Θ(N) vs Θ(1) scaling across systems")
	return rep
}

// --- Fig. 7 ----------------------------------------------------------------

// Fig7 is the §7.1 baseline: latency vs throughput on N=3 for all four
// setups, S=1µs, 24B/8B, reply LB disabled.
func Fig7(sc Scale) *Report {
	wl := baselineWorkload()
	rates := SweepRates(1_000_000, sc.Points)
	systems := []SystemSpec{Unrep(), Vanilla(3), Hovercraft(3), HovercraftPP(3)}
	var curves []Curve
	for _, sys := range systems {
		curves = append(curves, RunCurve(sys, wl, rates, sc.runCfg()))
	}
	rep := fig7Report(curves)
	if sc.TraceDir != "" {
		// One traced run per system at the lightest sweep load: the
		// per-stage decomposition shows where the replication latency
		// offset lives, and the trace files open in Perfetto.
		for _, sys := range systems {
			_, o := TracedPoint(sys, wl, rates[0], sc.runCfg())
			rep.Tables = append(rep.Tables, o.BreakdownTable(fmt.Sprintf(
				"Latency decomposition: %s at %.0f kRPS", label(sys), rates[0]/1000)))
			writeTraceArtifacts(rep, o, sc.TraceDir, "fig7_"+slug(label(sys)))
		}
	}
	return rep
}

func fig7Report(curves []Curve) *Report {
	rep := &Report{
		ID:    "fig7",
		Title: "Tail latency vs throughput, S=1µs, 24B req / 8B reply, N=3",
		PaperClaim: "all four setups reach ≈1M RPS under the 500µs SLO; the " +
			"replicated configurations add a small latency offset (≤68µs) over UnRep",
		Curves: curves,
		Tables: []*stats.Table{
			CurveTable("Fig. 7 data", curves),
			SLOTable("Fig. 7", curves, SLO),
		},
	}
	// Report the replication latency offset at the lowest common load.
	if len(curves) == 4 && len(curves[0].Points) > 0 {
		base := curves[0].Points[0].P99
		worst := time.Duration(0)
		for _, c := range curves[1:] {
			if d := c.Points[0].P99 - base; d > worst {
				worst = d
			}
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"replication p99 offset at %.0f kRPS: %v (paper: ≤68µs)",
			curves[0].Points[0].OfferedKRPS, worst))
	}
	return rep
}

// --- Fig. 8 ----------------------------------------------------------------

// Fig8 varies the request size (24/64/512B): VanillaRaft degrades with
// request size because it ships bodies through the leader; HovercRaft and
// HovercRaft++ are size-insensitive thanks to multicast replication.
func Fig8(sc Scale) *Report {
	sizes := []int{24, 64, 512}
	systems := []SystemSpec{Unrep(), Vanilla(3), Hovercraft(3), HovercraftPP(3)}
	t := &stats.Table{
		Title:   "Max kRPS under 500µs SLO vs request size (N=3, S=1µs)",
		Headers: []string{"system", "24B", "64B", "512B", "512B vs 24B"},
	}
	rep := &Report{
		ID:    "fig8",
		Title: "Throughput under SLO vs request size",
		PaperClaim: "VanillaRaft loses 2% at 64B and 48% at 512B; HovercRaft and " +
			"HovercRaft++ are unaffected by request size",
		Tables: []*stats.Table{t},
	}
	rates := SweepRates(1_000_000, sc.Points)
	for _, sys := range systems {
		var maxes []float64
		for _, size := range sizes {
			wl := baselineWorkload()
			wl.ReqSize = size
			curve := RunCurve(sys, wl, rates, sc.runCfg())
			maxes = append(maxes, curve.MaxUnderSLO(SLO))
		}
		delta := "n/a"
		if maxes[0] > 0 {
			delta = fmt.Sprintf("%+.0f%%", 100*(maxes[2]-maxes[0])/maxes[0])
		}
		t.AddRow(sys.Label,
			fmt.Sprintf("%.0f", maxes[0]), fmt.Sprintf("%.0f", maxes[1]),
			fmt.Sprintf("%.0f", maxes[2]), delta)
	}
	return rep
}

// --- Fig. 9 ----------------------------------------------------------------

// Fig9 scales the cluster (3/5/7/9 nodes) on the baseline workload.
func Fig9(sc Scale) *Report {
	clusterSizes := []int{3, 5, 7, 9}
	t := &stats.Table{
		Title:   "Max kRPS under 500µs SLO vs cluster size (S=1µs, 24B/8B)",
		Headers: []string{"system", "N=3", "N=5", "N=7", "N=9", "N=9 vs N=3"},
	}
	rep := &Report{
		ID:    "fig9",
		Title: "Throughput under SLO vs cluster size",
		PaperClaim: "VanillaRaft degrades most (−43% at N=9); HovercRaft holds to " +
			"N=5 then dips; HovercRaft++ is flat — in-network aggregation makes " +
			"leader cost independent of N",
		Tables: []*stats.Table{t},
	}
	rates := SweepRates(1_000_000, sc.Points)
	wl := baselineWorkload()
	for _, mk := range []func(int) SystemSpec{Vanilla, Hovercraft, HovercraftPP} {
		var maxes []float64
		for _, n := range clusterSizes {
			curve := RunCurve(mk(n), wl, rates, sc.runCfg())
			maxes = append(maxes, curve.MaxUnderSLO(SLO))
		}
		delta := "n/a"
		if maxes[0] > 0 {
			delta = fmt.Sprintf("%+.0f%%", 100*(maxes[3]-maxes[0])/maxes[0])
		}
		t.AddRow(mk(3).Label,
			fmt.Sprintf("%.0f", maxes[0]), fmt.Sprintf("%.0f", maxes[1]),
			fmt.Sprintf("%.0f", maxes[2]), fmt.Sprintf("%.0f", maxes[3]), delta)
	}
	return rep
}

// --- Fig. 10 ---------------------------------------------------------------

// Fig10 turns reply load balancing on with 6kB replies: the unreplicated
// server is I/O-bound at ≈200 kRPS (one 10G link); N=3/N=5 HovercRaft++
// multiply reply bandwidth by the cluster size.
func Fig10(sc Scale) *Report {
	wl := SyntheticSpec{Service: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 6 * 1024}
	mk := func(n int) SystemSpec {
		s := HovercraftPP(n)
		s.DisableReplyLB = false
		s.Bound = 128
		return s
	}
	cfg := sc.runCfg()
	cfg.Clients = 8
	cfg.ClientLinkBps = 40_000_000_000 // Lancet boxes must not bottleneck
	var curves []Curve
	curves = append(curves, RunCurve(Unrep(), wl, Linspace(50_000, 260_000, sc.Points), cfg))
	curves = append(curves, RunCurve(mk(3), wl, Linspace(100_000, 700_000, sc.Points), cfg))
	curves = append(curves, RunCurve(mk(5), wl, Linspace(100_000, 1_100_000, sc.Points), cfg))
	return &Report{
		ID:    "fig10",
		Title: "Reply load balancing under 6kB replies (S=1µs, B=128)",
		PaperClaim: "UnRep is NIC-bound at ≈200 kRPS; replication *increases* " +
			"capacity ≈3× on 3 nodes and ≈5× on 5 nodes because all replicas reply",
		Curves: curves,
		Tables: []*stats.Table{
			CurveTable("Fig. 10 data", curves),
			SLOTable("Fig. 10", curves, SLO),
		},
	}
}

// --- Fig. 11 ---------------------------------------------------------------

// Fig11 studies CPU load balancing of read-only requests under service
// time dispersion: S̄=10µs bimodal (10% of requests 10× longer), 75%
// read-only, B=32, JBSQ vs RANDOM on HovercRaft++ N=3.
func Fig11(sc Scale) *Report {
	wl := SyntheticSpec{
		Service: loadgen.PaperBimodal(10 * time.Microsecond),
		ReqSize: 24, ReplySize: 8,
		ReadFrac: 0.75,
	}
	mk := func(policy core.SelectPolicy, label string) SystemSpec {
		s := HovercraftPP(3)
		s.DisableReplyLB = false
		s.Bound = 32
		s.Policy = policy
		s.Label = label
		return s
	}
	var curves []Curve
	curves = append(curves, RunCurve(Unrep(), wl, Linspace(30_000, 110_000, sc.Points), sc.runCfg()))
	curves = append(curves, RunCurve(mk(core.PolicyRandom, "HovercRaft++ RAND"), wl,
		Linspace(50_000, 200_000, sc.Points), sc.runCfg()))
	curves = append(curves, RunCurve(mk(core.PolicyJBSQ, "HovercRaft++ JBSQ"), wl,
		Linspace(50_000, 200_000, sc.Points), sc.runCfg()))
	return &Report{
		ID:    "fig11",
		Title: "Read-only load balancing, bimodal S̄=10µs, 75% RO, B=32, N=3",
		PaperClaim: "load balancing read-only work raises capacity ≈57% over UnRep " +
			"under SLO; JBSQ beats RANDOM at the tail by avoiding busy followers",
		Curves: curves,
		Tables: []*stats.Table{
			CurveTable("Fig. 11 data", curves),
			SLOTable("Fig. 11", curves, SLO),
		},
	}
}

// --- Fig. 12 ---------------------------------------------------------------

// Fig12 kills the leader under fixed load (same workload as Fig. 11,
// fixed 165 kRPS offered, flow-control window 1000) and records the
// throughput and p99 timelines: brief election blip, graceful degradation
// to 2-node capacity, flow control sheds the excess, no collapse.
func Fig12(sc Scale) *Report {
	wl := SyntheticSpec{
		Service: loadgen.PaperBimodal(10 * time.Microsecond),
		ReqSize: 24, ReplySize: 8,
		ReadFrac: 0.75,
	}
	sys := HovercraftPP(3)
	sys.DisableReplyLB = false
	sys.Bound = 32
	sys.FlowLimit = 1000

	total := 1500 * time.Millisecond
	killAt := 600 * time.Millisecond
	cfg := RunConfig{
		Seed: sc.Seed, Warmup: 0, Duration: total, Clients: 4,
		SampleEvery: 25 * time.Millisecond,
		OnCluster: func(c *simcluster.Cluster) {
			c.Sim.After(killAt, func() {
				if lead := c.LeaderOf(0); lead != nil {
					lead.Crash()
				}
			})
		},
	}
	res, o := TracedPoint(sys, wl, 165_000, cfg)

	// Merge per-client series into cluster-wide throughput and worst p99.
	tput := &stats.Series{Name: "throughput", YLegend: "kRPS"}
	p99 := &stats.Series{Name: "p99", YLegend: "ms"}
	nPoints := res.Clients[0].Throughput.Len()
	for i := 0; i < nPoints; i++ {
		var sum float64
		var worst float64
		var tm time.Duration
		for _, cl := range res.Clients {
			if i >= cl.Throughput.Len() {
				continue
			}
			t, v := cl.Throughput.At(i)
			tm = t
			sum += v
			_, l := cl.TailP99.At(i)
			if l > worst {
				worst = l
			}
		}
		tput.Add(tm, sum/1000)
		p99.Add(tm, worst)
	}
	rep := &Report{
		ID:    "fig12",
		Title: "Leader failure under 165 kRPS fixed load (flow-control limit 1000)",
		PaperClaim: "after the leader dies throughput drops from 165k to the 2-node " +
			"capacity (≈160k) with ≈5 kRPS shed by flow control; latency spikes " +
			"briefly during the election but the system does not collapse",
		Series: []*stats.Series{tput, p99},
		Tables: []*stats.Table{
			o.BreakdownTable("Latency decomposition across the failure (full run)"),
			o.EventTable("Failure timeline: what happened when", 30, "raft", "node", "flow"),
		},
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("leader killed at t=%v; post-failure achieved %.0f kRPS, NACKed %.1f kRPS, lost %.1f kRPS",
			killAt, res.Point.AchievedKRPS, res.Point.NackKRPS, res.Point.LossKRPS))
	if sc.TraceDir != "" {
		writeTraceArtifacts(rep, o, sc.TraceDir, "fig12_leader_failure")
	}
	return rep
}

// --- Fig. 13 ---------------------------------------------------------------

// Fig13 runs YCSB-E against the Redis-like store: UnRep vs HovercRaft++
// on 3/5/7 nodes. SCANs (95%) are read-only and load balanced; INSERTs
// (5%) run everywhere — Amdahl caps the speedup near the paper's 4×.
func Fig13(sc Scale) *Report {
	wl := &YCSBESpec{Records: 2000}
	mk := func(n int) SystemSpec {
		s := HovercraftPP(n)
		s.DisableReplyLB = false
		s.Bound = 64
		return s
	}
	cfg := sc.runCfg()
	cfg.Clients = 6
	cfg.ClientLinkBps = 40_000_000_000
	var curves []Curve
	curves = append(curves, RunCurve(Unrep(), wl, Linspace(10_000, 50_000, sc.Points), cfg))
	for _, n := range []int{3, 5, 7} {
		hi := 45_000.0 * float64(n)
		curves = append(curves, RunCurve(mk(n), wl, Linspace(20_000, hi, sc.Points), cfg))
	}
	return &Report{
		ID:    "fig13",
		Title: "YCSB-E (95% SCAN / 5% INSERT) on the Redis-like store",
		PaperClaim: "UnRep is CPU-bound; 7 nodes reach ≈142k ops/s under 500µs SLO " +
			"— ≈4× over UnRep, consistent with Amdahl's law given that only SCANs " +
			"load balance",
		Curves: curves,
		Tables: []*stats.Table{
			CurveTable("Fig. 13 data", curves),
			SLOTable("Fig. 13", curves, SLO),
		},
	}
}
