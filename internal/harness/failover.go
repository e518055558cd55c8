package harness

import (
	"fmt"
	"math/rand"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/simcluster"
	"hovercraft/internal/stats"
)

// failoverWorkload emits globally unique replicated writes. Uniqueness
// is what makes the exactly-once audit possible: every acked payload can
// be located in the replicas' applied state and counted.
type failoverWorkload struct{ seq uint64 }

// Next implements loadgen.Workload.
func (w *failoverWorkload) Next(rng *rand.Rand) ([]byte, r2p2.Policy) {
	w.seq++
	return []byte(fmt.Sprintf("fo-%08d", w.seq)), r2p2.PolicyReplicated
}

// auditService counts how many times each unique op was applied, so the
// experiment can verify zero acked-but-lost and zero double-applied ops
// across the failover.
type auditService struct {
	applied map[string]int
	dups    uint64
}

// Execute implements app.Service.
func (s *auditService) Execute(p []byte, readOnly bool) []byte {
	if !readOnly {
		s.applied[string(p)]++
		if s.applied[string(p)] > 1 {
			s.dups++
		}
	}
	return []byte("acked!ok")
}

// failoverSpec is the WorkloadSpec for the failover experiment.
type failoverSpec struct{ wl *failoverWorkload }

// NewWorkload implements WorkloadSpec. All clients share the generator,
// keeping op IDs unique across the run (single-threaded simulation).
func (s failoverSpec) NewWorkload(bool) loadgen.Workload { return s.wl }

// NewService implements WorkloadSpec.
func (s failoverSpec) NewService(int) (app.Service, app.CostModel) {
	svc := &auditService{applied: make(map[string]int)}
	return svc, app.FixedCost{Service: svc, PerOp: time.Microsecond}
}

// Preload implements WorkloadSpec.
func (s failoverSpec) Preload() [][]byte { return nil }

// Describe implements WorkloadSpec.
func (s failoverSpec) Describe() string {
	return "unique replicated writes (1µs/op), per-op apply audit"
}

// Failover reproduces the paper's failure scenario (Fig. 12's setting)
// with the client retransmission path enabled and an exactly-once audit
// on top: kill the leader mid-load, measure the unavailability window
// and recovery time from a fine-grained throughput timeline, count
// client retransmissions and duplicate replies, and verify that every
// acked op is applied exactly once on every surviving replica.
func Failover(sc Scale) *Report {
	spec := failoverSpec{wl: &failoverWorkload{}}
	sys := HovercraftPP(3)
	sys.DisableReplyLB = false
	sys.Bound = 32
	sys.FlowLimit = 1000

	total := 10 * sc.Duration // 800ms full, 300ms quick
	killAt := 2 * total / 5
	const sample = 2 * time.Millisecond
	acked := make(map[string]bool)
	cfg := RunConfig{
		Seed: sc.Seed, Warmup: 0, Duration: total, Clients: 4,
		SampleEvery: sample,
		Retries:     8, RetryBackoff: time.Millisecond,
		OnComplete: func(p []byte) { acked[string(p)] = true },
		OnCluster: func(c *simcluster.Cluster) {
			c.Sim.After(killAt, func() {
				if lead := c.LeaderOf(0); lead != nil {
					lead.Crash()
				}
			})
		},
	}
	res, o := TracedPoint(sys, spec, 80_000, cfg)

	// Cluster-wide throughput/p99 timelines (same merge as Fig. 12, at a
	// finer grain so the election window is resolvable).
	tput := &stats.Series{Name: "throughput", YLegend: "kRPS"}
	p99 := &stats.Series{Name: "p99", YLegend: "ms"}
	nPoints := res.Clients[0].Throughput.Len()
	var times []time.Duration
	var sums []float64
	for i := 0; i < nPoints; i++ {
		var sum, worst float64
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
		times = append(times, tm)
		sums = append(sums, sum/1000)
	}

	// Availability analysis: baseline is the mean pre-kill throughput
	// (skipping the ramp-up eighth); the unavailability window is the
	// post-kill span below 50% of baseline, recovery is the first return
	// to 90%.
	var baseline float64
	nBase := 0
	for i, tm := range times {
		if tm >= total/8 && tm < killAt {
			baseline += sums[i]
			nBase++
		}
	}
	if nBase > 0 {
		baseline /= float64(nBase)
	}
	unavail := time.Duration(0)
	recovery := time.Duration(-1)
	for i, tm := range times {
		if tm <= killAt {
			continue
		}
		if sums[i] < 0.5*baseline {
			unavail += sample
		}
		if recovery < 0 && sums[i] >= 0.9*baseline {
			recovery = tm - killAt
		}
	}

	// Exactly-once audit against every surviving replica.
	var live []*simcluster.Node
	for _, n := range res.Cluster.Nodes {
		if !n.Crashed() {
			live = append(live, n)
		}
	}
	ackedButLost, doubleApplied := 0, 0
	for _, n := range live {
		svc := n.Services[0].(*auditService)
		lost := 0
		for op := range acked {
			if svc.applied[op] == 0 {
				lost++
			}
		}
		if lost > ackedButLost {
			ackedButLost = lost
		}
		if int(svc.dups) > doubleApplied {
			doubleApplied = int(svc.dups)
		}
	}

	var retries, dups, expired, completed uint64
	rt := &stats.Table{
		Title:   "Client retry accounting",
		Headers: []string{"client", "completed", "retransmits", "dups_suppressed", "expired"},
	}
	for i, cl := range res.Clients {
		rt.AddRow(fmt.Sprintf("client%d", i),
			fmt.Sprintf("%d", cl.Completed),
			fmt.Sprintf("%d", cl.Retries),
			fmt.Sprintf("%d", cl.DupsSuppressed),
			fmt.Sprintf("%d", cl.Expired))
		retries += cl.Retries
		dups += cl.DupsSuppressed
		expired += cl.Expired
		completed += cl.Completed
	}
	rt.AddRow("total",
		fmt.Sprintf("%d", completed),
		fmt.Sprintf("%d", retries),
		fmt.Sprintf("%d", dups),
		fmt.Sprintf("%d", expired))

	rec := &stats.Table{
		Title:   "Failover recovery summary",
		Headers: []string{"metric", "value"},
	}
	recStr := "never (still degraded at end of run)"
	if recovery >= 0 {
		recStr = fmtDur(recovery)
	}
	rec.AddRow("leader killed at", fmtDur(killAt))
	rec.AddRow("baseline throughput", fmt.Sprintf("%.0f kRPS", baseline))
	rec.AddRow("unavailability window (<50% baseline)", fmtDur(unavail))
	rec.AddRow("recovery time (back to 90% baseline)", recStr)
	rec.AddRow("client retransmissions", fmt.Sprintf("%d", retries))
	rec.AddRow("duplicate replies suppressed", fmt.Sprintf("%d", dups))
	rec.AddRow("acked ops", fmt.Sprintf("%d", len(acked)))
	rec.AddRow("acked-but-lost (must be 0)", fmt.Sprintf("%d", ackedButLost))
	rec.AddRow("double-applied (must be 0)", fmt.Sprintf("%d", doubleApplied))

	rep := &Report{
		ID:    "failover",
		Title: "Leader failure with client retransmission and exactly-once audit",
		PaperClaim: "killing the leader causes a bounded unavailability window (one " +
			"election) after which a new leader re-proposes parked requests; with " +
			"retransmission and request-ID dedup no acked op is lost or applied twice",
		Series: []*stats.Series{tput, p99},
		Tables: []*stats.Table{
			rec, rt,
			o.BreakdownTable("Latency decomposition across the failure (full run)"),
			o.EventTable("Failure timeline: what happened when", 30, "raft", "node", "client"),
		},
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("workload: %s, 80 kRPS offered over %v, 4 clients, retry budget 8 @ 1ms backoff",
			spec.Describe(), total))
	if ackedButLost > 0 || doubleApplied > 0 {
		rep.Notes = append(rep.Notes, "EXACTLY-ONCE VIOLATION — see tables above")
	}
	if sc.TraceDir != "" {
		writeTraceArtifacts(rep, o, sc.TraceDir, "failover_leader_kill")
	}
	return rep
}
