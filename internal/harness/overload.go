package harness

import (
	"fmt"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/shard"
	"hovercraft/internal/simcluster"
	"hovercraft/internal/simnet"
	"hovercraft/internal/stats"
)

// OverloadClients is the swarm population every overload run offers
// load from: 10⁵ open-loop simulated clients, so the middlebox and the
// dedup caches face a realistic (port-diverse) client fleet rather than
// four fat generators.
const OverloadClients = 100_000

// OverloadRun configures one swarm-driven overload measurement against
// a 3-node HovercRaft++ cluster behind the flow-control middlebox.
type OverloadRun struct {
	Label string
	// Adaptive turns the AIMD admission controller on; otherwise the
	// middlebox window is the fixed FlowLimit for the whole run.
	Adaptive  bool
	FlowLimit int
	WL        WorkloadSpec
	// Rate is the offered load (req/s); RateFn overrides it per-arrival
	// when non-nil (ramps, flash crowds).
	Rate   float64
	RateFn func(time.Duration) float64
	// Retries is the swarm's per-request retransmission budget (NACKed
	// requests re-offer after the retry-after hint, jittered).
	Retries   int
	OnCluster func(c *simcluster.Cluster)
	Sample    time.Duration
}

// OverloadResult is one overload measurement: the usual point plus the
// SLO burn of admitted traffic and the admission controller's final
// state.
type OverloadResult struct {
	Point Point
	// Burn is the admitted-traffic SLO burn rate: fraction of completed
	// requests over the 500µs p99 budget divided by the 1% allowance
	// (1.0 = exactly spending the budget).
	Burn      float64
	Res       loadgen.Result
	Cluster   *simcluster.Cluster
	Swarm     *loadgen.Swarm
	Admission admission.Summary // zero unless adaptive
}

// RunOverloadPoint builds the cluster, offers load from the client
// swarm, and reports the measurement.
func RunOverloadPoint(r OverloadRun, rc RunConfig) OverloadResult {
	rc.defaults()
	serverHost := simnet.DefaultHostConfig()
	serverHost.ProcBytesPerSec = 1_670_000_000
	serverHost.ProcFilter = consensusPayload
	cl := simcluster.New(simcluster.Options{
		Setup: simcluster.SetupHovercraftPP, Nodes: 3, Seed: rc.Seed, Host: serverHost,
		Bound:             32,
		FlowLimit:         r.FlowLimit,
		AdaptiveAdmission: r.Adaptive,
		// Slow-start: open at a modest window and let additive increase
		// find the ceiling, instead of admitting a FlowLimit-deep backlog
		// before the first congestion signal arrives.
		Admission:  admission.Config{Initial: 256},
		NewService: r.WL.NewService,
		Preload:    r.WL.Preload(),
		Obs:        rc.Obs,
	})
	sw := loadgen.NewSwarm(cl.Net, "swarm", simnet.DefaultHostConfig(), loadgen.SwarmConfig{
		Clients: OverloadClients,
		Rate:    r.Rate, RateFn: r.RateFn,
		Warmup: rc.Warmup, Duration: rc.Duration,
		Timeout: 20 * time.Millisecond,
		Retries: r.Retries, RetryBackoff: time.Millisecond,
		Workload:    r.WL.NewWorkload(false),
		Target:      cl.ServiceAddr,
		SampleEvery: r.Sample,
	})
	cl.Start()
	sw.Start()
	if r.OnCluster != nil {
		r.OnCluster(cl)
	}
	// Controller state is most meaningful at the instant load stops: by
	// run end the drained cluster has relaxed the retry-after hint and
	// the signal reflects idle heartbeats, not the overload.
	adm := cl.Groups[0].Admission
	var admAtLoadEnd admission.Summary
	if adm != nil {
		cl.Sim.After(rc.Warmup+rc.Duration, func() { admAtLoadEnd = adm.Snapshot() })
	}
	cl.Run(rc.Warmup + rc.Duration + 40*time.Millisecond)

	res := sw.Result()
	out := OverloadResult{
		Point: Point{
			OfferedKRPS:  res.Offered / 1000,
			AchievedKRPS: res.Achieved / 1000,
			P99:          res.Latency.P99,
			P50:          res.Latency.P50,
			NackKRPS:     res.NackRate / 1000,
			LossKRPS:     res.LossRate / 1000,
		},
		Burn:    sw.Latency.FractionAbove(int64(SLO)) / 0.01,
		Res:     res,
		Cluster: cl,
		Swarm:   sw,
	}
	if adm != nil {
		// Window/hint/signal from the load-end capture; the lifetime
		// counters (increases/decreases/nacks) from the final snapshot.
		final := adm.Snapshot()
		admAtLoadEnd.Increases = final.Increases
		admAtLoadEnd.Decreases = final.Decreases
		out.Admission = admAtLoadEnd
	}
	return out
}

// overloadRow renders one measurement into the head-to-head table.
func overloadRow(t *stats.Table, label string, capacity float64, r OverloadResult) {
	window := "fixed"
	if r.Admission.Window > 0 {
		window = fmt.Sprintf("%d", r.Admission.Window)
	}
	t.AddRow(label,
		fmt.Sprintf("%.0f", r.Point.OfferedKRPS),
		fmt.Sprintf("%.0f", r.Point.AchievedKRPS),
		fmt.Sprintf("%.0f%%", 100*r.Point.AchievedKRPS/capacity),
		r.Point.P99.String(),
		fmt.Sprintf("%.1f", r.Point.NackKRPS),
		fmt.Sprintf("%.2f", r.Burn),
		window,
	)
}

// Overload is the graceful-degradation experiment: a 10⁵-client swarm
// drives a 3-node HovercRaft++ cluster to 2× its measured capacity and
// beyond. With the fixed flow-control window the admitted queue depth
// is whatever the window allows, so the tail blows through the SLO;
// with the AIMD admission controller the window tracks the queue-delay
// budget, excess load is shed as hinted NACKs, and goodput holds near
// capacity with the admitted tail inside the SLO. Adversarial scenarios
// (heavy tails, hot-shard storms, diurnal ramps, a retry storm across a
// failover) probe the same property from different directions.
func Overload(sc Scale) *Report {
	wl := SyntheticSpec{Service: loadgen.Fixed(10 * time.Microsecond), ReqSize: 24, ReplySize: 8}
	const nominal = 100_000.0 // 1/S̄: one core's worth of 10µs writes
	const fixedLimit = 4096   // the permissive default window
	cfg := sc.runCfg()

	rep := &Report{
		ID:    "overload",
		Title: "Adaptive admission under 2x overload (10^5-client swarm, N=3 HovercRaft++)",
		PaperClaim: "flow control must shed excess load before it queues (§6.3): a " +
			"fixed window admits a full window's worth of queueing and the tail " +
			"collapses under sustained overload, while a queue-delay-driven window " +
			"keeps goodput near capacity with the admitted tail inside the 500µs SLO",
	}

	// 1× capacity probe: offered load at the analytic capacity with the
	// adaptive controller on; what completes is the measured capacity.
	probe := RunOverloadPoint(OverloadRun{
		Adaptive: true, FlowLimit: fixedLimit, WL: wl, Rate: nominal, Retries: 2,
	}, cfg)
	capacity := probe.Point.AchievedKRPS
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"measured 1x capacity: %.0f kRPS (offered %.0f kRPS, p99 %v)",
		capacity, probe.Point.OfferedKRPS, probe.Point.P99))

	// Head-to-head at 2× capacity: fixed window vs adaptive controller.
	head := &stats.Table{
		Title: fmt.Sprintf("2x overload (offered %.0f kRPS): fixed window vs adaptive admission", 2*capacity),
		Headers: []string{"admission", "offered k", "goodput k", "of 1x cap",
			"admitted p99", "nack k/s", "SLO burn", "final window"},
	}
	rate2x := 2 * capacity * 1000
	fixed := RunOverloadPoint(OverloadRun{
		Adaptive: false, FlowLimit: fixedLimit, WL: wl, Rate: rate2x, Retries: 2,
	}, cfg)
	adaptive := RunOverloadPoint(OverloadRun{
		Adaptive: true, FlowLimit: fixedLimit, WL: wl, Rate: rate2x, Retries: 2,
	}, cfg)
	overloadRow(head, fmt.Sprintf("fixed limit %d", fixedLimit), capacity, fixed)
	overloadRow(head, "adaptive (AIMD)", capacity, adaptive)
	rep.Tables = append(rep.Tables, head)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"adaptive controller at 2x: window %d, retry-after hint %v, signal p99 %v, %d decreases / %d increases",
		adaptive.Admission.Window, adaptive.Admission.Hint,
		adaptive.Admission.P99, adaptive.Admission.Decreases, adaptive.Admission.Increases))

	// Load sweep 0.5×..2× capacity, both admission modes: the goodput-
	// vs-offered-load curve that shows shape, not just the 2× endpoint.
	sweepT := &stats.Table{
		Title: "Load sweep: goodput / admitted p99 / NACK rate / SLO burn vs offered load",
		Headers: []string{"offered k", "mode", "goodput k", "admitted p99",
			"nack k/s", "SLO burn"},
	}
	var fixedCurve, adaptCurve Curve
	fixedCurve.Label = "fixed window"
	adaptCurve.Label = "adaptive admission"
	for _, mult := range Linspace(0.5, 2.0, sc.Points) {
		rate := mult * capacity * 1000
		for _, mode := range []struct {
			label    string
			adaptive bool
			curve    *Curve
		}{{"fixed", false, &fixedCurve}, {"adaptive", true, &adaptCurve}} {
			r := RunOverloadPoint(OverloadRun{
				Adaptive: mode.adaptive, FlowLimit: fixedLimit, WL: wl,
				Rate: rate, Retries: 2,
			}, cfg)
			mode.curve.Points = append(mode.curve.Points, r.Point)
			sweepT.AddRow(fmt.Sprintf("%.0f", r.Point.OfferedKRPS), mode.label,
				fmt.Sprintf("%.0f", r.Point.AchievedKRPS), r.Point.P99.String(),
				fmt.Sprintf("%.1f", r.Point.NackKRPS), fmt.Sprintf("%.2f", r.Burn))
		}
	}
	rep.Curves = append(rep.Curves, fixedCurve, adaptCurve)
	rep.Tables = append(rep.Tables, sweepT)

	// Adversarial scenarios, all with the adaptive controller at ~2×.
	adv := &stats.Table{
		Title: "Adversarial overload scenarios (adaptive admission)",
		Headers: []string{"scenario", "offered k", "goodput k", "of 1x cap",
			"admitted p99", "nack k/s", "SLO burn", "final window"},
	}
	bimodal := RunOverloadPoint(OverloadRun{
		Adaptive: true, FlowLimit: fixedLimit,
		WL:   SyntheticSpec{Service: loadgen.PaperBimodal(10 * time.Microsecond), ReqSize: 24, ReplySize: 8},
		Rate: rate2x, Retries: 2,
	}, cfg)
	overloadRow(adv, "bimodal 10x/10% at 2x", capacity, bimodal)

	pareto := loadgen.Pareto{Scale: 5 * time.Microsecond, Alpha: 1.3, Cap: 2 * time.Millisecond}
	paretoCap := 1e9 / float64(pareto.Mean().Nanoseconds()) // req/s one core sustains
	heavy := RunOverloadPoint(OverloadRun{
		Adaptive: true, FlowLimit: fixedLimit,
		WL:   SyntheticSpec{Service: pareto, ReqSize: 24, ReplySize: 8},
		Rate: 2 * paretoCap, Retries: 2,
	}, cfg)
	overloadRow(adv, "heavy tail (Pareto a=1.3) at 2x", paretoCap/1000, heavy)

	ramp := RunOverloadPoint(OverloadRun{
		Adaptive: true, FlowLimit: fixedLimit, WL: wl,
		RateFn:  loadgen.DiurnalRate(0.5*capacity*1000, 2.5*capacity*1000, cfg.Warmup+cfg.Duration),
		Retries: 2,
	}, cfg)
	overloadRow(adv, "diurnal ramp 0.5x..2.5x", capacity, ramp)

	storm := RunOverloadPoint(OverloadRun{
		Adaptive: true, FlowLimit: fixedLimit, WL: wl,
		Rate: 1.2 * capacity * 1000, Retries: 3,
		OnCluster: func(c *simcluster.Cluster) {
			c.Sim.After(cfg.Warmup+cfg.Duration/3, func() {
				if lead := c.LeaderOf(0); lead != nil {
					lead.Crash()
				}
			})
		},
	}, cfg)
	overloadRow(adv, "retry storm across failover (1.2x)", capacity, storm)
	rep.Tables = append(rep.Tables, adv)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"failover scenario: %d retransmissions from the swarm, %d duplicate replies suppressed",
		storm.Res.Retries, storm.Res.DupsSuppressed))

	// Hot-shard storm: Zipfian keys against a G=4 sharded deployment —
	// per-group admission sheds on the hot group only.
	rep.Tables = append(rep.Tables, overloadHotShard(sc))
	rep.Notes = append(rep.Notes,
		"hot-shard table: per-group admission confines NACKs and window shrinkage "+
			"to the group owning the Zipf head; cold groups keep their full window")
	return rep
}

// overloadHotShard runs the Zipf hot-key storm against a sharded
// deployment with per-group adaptive admission and reports the
// per-group breakdown: rejection and window shrinkage stay on the hot
// group.
func overloadHotShard(sc Scale) *stats.Table {
	cfg := sc.runCfg()
	serverHost := simnet.DefaultHostConfig()
	serverHost.ProcBytesPerSec = 1_670_000_000
	serverHost.ProcFilter = consensusPayload
	cl := simcluster.New(simcluster.Options{
		Setup:  simcluster.SetupHovercraft,
		Groups: 4, Nodes: 12, Replication: 3,
		Seed: cfg.Seed, Host: serverHost,
		DisableReplyLB:    true,
		FlowLimit:         4096,
		AdaptiveAdmission: true,
	})
	router := shard.NewRouter(cl.Map, nil)
	sw := loadgen.NewSwarm(cl.Net, "swarm", simnet.DefaultHostConfig(), loadgen.SwarmConfig{
		Clients: OverloadClients,
		// 2× one group's capacity, nearly all of it routed to the Zipf
		// head's group.
		Rate:   250_000,
		Warmup: cfg.Warmup, Duration: cfg.Duration,
		Timeout: 20 * time.Millisecond,
		Retries: 2, RetryBackoff: time.Millisecond,
		Workload: &loadgen.ZipfKeyed{
			Inner: &loadgen.Synthetic{ServiceTime: loadgen.Fixed(10 * time.Microsecond),
				ReqSize: 24, ReplySize: 8},
			Theta: 2.5, Keys: 1 << 16,
		},
		Target: cl.ServiceAddr,
		Router: router,
	})
	cl.Start()
	sw.Start()
	// Per-group controller state at load end, for the same reason
	// RunOverloadPoint captures it there: the post-drain snapshot shows
	// a relaxed window and an idle signal.
	snaps := make(map[int]admission.Summary)
	cl.Sim.After(cfg.Warmup+cfg.Duration, func() {
		for g, sg := range cl.Groups {
			snaps[g] = sg.Admission.Snapshot()
		}
	})
	cl.Run(cfg.Warmup + cfg.Duration + 40*time.Millisecond)

	t := &stats.Table{
		Title: "Zipf hot-key storm (theta=2.5) vs per-group admission, G=4, 250 kRPS offered",
		Headers: []string{"group", "offered/s", "achieved/s", "p99", "nacked",
			"window", "ctl p99"},
	}
	stats := sw.ShardStats()
	for g := range cl.Groups {
		var st *loadgen.ShardStat
		for _, s := range stats {
			if s.Group == g {
				st = s
			}
		}
		if st == nil {
			continue
		}
		snap := snaps[g]
		secs := cfg.Duration.Seconds()
		t.AddRow(fmt.Sprintf("g%d", g),
			fmt.Sprintf("%.0f", float64(st.Sent)/secs),
			fmt.Sprintf("%.0f", float64(st.Completed)/secs),
			st.Latency.Summary().P99.String(),
			fmt.Sprintf("%d", st.Nacked),
			fmt.Sprintf("%d", snap.Window),
			snap.P99.String(),
		)
	}
	return t
}
