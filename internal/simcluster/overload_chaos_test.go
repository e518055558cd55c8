package simcluster

import (
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/app"
	"hovercraft/internal/fault"
	"hovercraft/internal/linearize"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/obs"
	"hovercraft/internal/simnet"
)

// overloadChaosService layers exactly-once accounting for the swarm's
// unique "op-*" writes on top of the linearizability register the
// closed-loop clients exercise.
type overloadChaosService struct {
	chaosService
	counts map[string]int
	dups   int
}

func (s *overloadChaosService) Execute(p []byte, readOnly bool) []byte {
	if len(p) >= 3 && string(p[:3]) == "op-" {
		if !readOnly {
			s.counts[string(p)]++
			if s.counts[string(p)] > 1 {
				s.dups++
			}
		}
		return append([]byte(nil), p...)
	}
	return s.chaosService.Execute(p, readOnly)
}

// overloadDrained reports whether every live replica has converged:
// commit caught up to the cluster-wide maximum and everything committed
// also applied (no residual overload backlog).
func overloadDrained(c *Cluster) bool {
	var maxCommit uint64
	for _, n := range c.Nodes {
		if n.Crashed() {
			continue
		}
		if cm := n.Engines[0].Node().Log().Commit(); cm > maxCommit {
			maxCommit = cm
		}
	}
	for _, n := range c.Nodes {
		if n.Crashed() {
			continue
		}
		log := n.Engines[0].Node().Log()
		if log.Commit() < maxCommit || log.Applied() < log.Commit() {
			return false
		}
	}
	return true
}

// overloadChaosRun is the fault.Runner for the overload seed set: a
// 3-node WAL-backed cluster behind the adaptive-admission middlebox,
// held past capacity by an open-loop swarm whose NACKed requests
// retransmit on the retry-after hint, while the schedule injects
// crashes and partitions. Asserts client-observed linearizability,
// exactly-once execution under NACK-triggered retransmits, and no
// acked-but-lost writes; fingerprints the run for replay determinism.
func overloadChaosRun(seed int64, sched fault.Schedule) (uint64, error) {
	const horizon = 80 * time.Millisecond
	tracer := obs.New()
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: seed, WAL: true, Obs: tracer,
		FlowLimit:         512,
		AdaptiveAdmission: true,
		Admission:         admission.Config{Initial: 128},
		NewService: func(int) (app.Service, app.CostModel) {
			s := &overloadChaosService{counts: make(map[string]int)}
			return s, app.FixedCost{Service: s, PerOp: 10 * time.Microsecond}
		},
	})
	// ~1.5× the 10µs-write capacity: enough sustained pressure that the
	// middlebox sheds continuously, on top of whatever the faults break.
	acked := make(map[string]bool)
	sw := loadgen.NewSwarm(c.Net, "swarm", simnet.DefaultHostConfig(), loadgen.SwarmConfig{
		Clients: 4096, Rate: 150_000,
		Warmup: 0, Duration: horizon,
		Timeout: 5 * time.Millisecond, Retries: 4, RetryBackoff: time.Millisecond,
		Workload:   &uniqueWorkload{},
		Target:     c.ServiceAddr,
		OnComplete: func(p []byte) { acked[string(p)] = true },
	})
	var clients []*closedLoopClient
	for i := 0; i < 2; i++ {
		clients = append(clients, newClosedLoopClient(c, i, horizon))
	}
	inj := fault.Attach(c.Sim, c.FaultTarget(), sched)
	c.Start()
	sw.Start()
	for _, cl := range clients {
		cl.start()
	}
	c.Run(horizon + 20*time.Millisecond)

	// Drain to quiescence: sustained overload ends the load phase with a
	// committed-but-unapplied backlog on slowed replicas — a compound
	// slowcpu+fsyncdelay incident can park seconds of work on one app
	// thread (queued WAL syncs keep the cost they were submitted with).
	// Failing to drain in bounded quiet time is itself a liveness bug.
	const drainDeadline = horizon + 2*time.Second
	for at := horizon + 40*time.Millisecond; at <= drainDeadline && !overloadDrained(c); at += 40 * time.Millisecond {
		c.Run(at)
	}
	if !overloadDrained(c) {
		return 0, fmt.Errorf("live replicas failed to drain apply backlog within %v of load end (faults: %s)",
			drainDeadline-horizon, inj.Log)
	}

	// The scenario must actually produce NACK-triggered retransmits —
	// otherwise the exactly-once claim below is vacuous.
	if sw.Nacked == 0 || sw.Retries == 0 {
		return 0, fmt.Errorf("no NACK pressure (nacked=%d retries=%d): overload too tame (faults: %s)",
			sw.Nacked, sw.Retries, inj.Log)
	}

	// Invariant 1: client-observed linearizability under overload.
	var history []linearize.Op
	for _, cl := range clients {
		history = append(history, cl.history...)
	}
	if !linearize.Check(regModel{}, history) {
		return 0, fmt.Errorf("history not linearizable (faults: %s)", inj.Log)
	}

	// Invariant 2: exactly-once — no unique write applied twice on any
	// surviving replica, despite hinted retransmits racing failovers.
	var live []*Node
	for _, n := range c.Nodes {
		if !n.Crashed() {
			live = append(live, n)
		}
	}
	for _, n := range live {
		svc := n.Services[0].(*overloadChaosService)
		if svc.dups != 0 {
			return 0, fmt.Errorf("node %d double-applied %d ops (faults: %s)", n.ID, svc.dups, inj.Log)
		}
	}

	// Invariant 3: no acked-but-lost — every swarm op that saw a
	// response survives in every live replica's state.
	for _, n := range live {
		svc := n.Services[0].(*overloadChaosService)
		lost := 0
		for op := range acked {
			if svc.counts[op] == 0 {
				lost++
			}
		}
		if lost > 0 {
			return 0, fmt.Errorf("node %d lost %d acked ops (faults: %s)", n.ID, lost, inj.Log)
		}
	}

	// Fingerprint for same-seed replay determinism.
	fp := fault.NewFingerprint()
	fp.Add("swarm sent=%d done=%d nack=%d exp=%d retry=%d dupresp=%d acked=%d",
		sw.Sent, sw.Completed, sw.Nacked, sw.Expired, sw.Retries, sw.DupsSuppressed, len(acked))
	for ci, cl := range clients {
		for _, op := range cl.history {
			fp.Add("c%d %d %q %q %d %d %v", ci, op.ClientID, op.Input, op.Output, op.Call, op.Return, op.Pending)
		}
	}
	for _, n := range c.Nodes {
		svc := n.Services[0].(*overloadChaosService)
		total := 0
		for _, k := range svc.counts {
			total += k
		}
		fp.Add("n%d v=%q reg=%d ops=%d applied=%d crashed=%v",
			n.ID, svc.v, len(svc.log), len(svc.counts), total, n.Crashed())
	}
	for _, line := range inj.Log {
		fp.Add("%s", line)
	}
	if adm := c.Groups[0].Admission; adm != nil {
		s := adm.Snapshot()
		fp.Add("adm window=%d inc=%d dec=%d", s.Window, s.Increases, s.Decreases)
	}
	return fp.Sum(), nil
}

// TestChaosOverloadAdmission sweeps seeded fault schedules (crashes,
// partitions, delay bursts) over a cluster pinned at ~1.5× capacity
// behind the adaptive-admission middlebox: the dedup path must keep
// exactly-once semantics while NACK-triggered retransmits race leader
// failovers, histories must stay linearizable, and same-seed replays
// must be bit-identical.
func TestChaosOverloadAdmission(t *testing.T) {
	seeds := fault.Seeds(12000, 12)
	every := 4
	if testing.Short() {
		seeds = fault.Seeds(12000, 3)
		every = 2
	}
	rep := fault.Explore(fault.Options{
		Seeds: seeds,
		Spec: fault.Spec{
			Nodes: 3, Incidents: 3, WAL: true,
			Start: 8 * time.Millisecond, End: 60 * time.Millisecond,
		},
		ReplayEvery: every,
	}, overloadChaosRun)
	for _, f := range rep.Failures {
		t.Errorf("overload chaos failure: %s", f)
	}
	for _, seed := range rep.Mismatches {
		t.Errorf("seed %d: replay fingerprint mismatch (nondeterminism)", seed)
	}
	t.Logf("%d runs, %d failures, %d replay mismatches",
		rep.Runs, len(rep.Failures), len(rep.Mismatches))
}
