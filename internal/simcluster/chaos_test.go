package simcluster

import (
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/fault"
	"hovercraft/internal/linearize"
	"hovercraft/internal/obs"
)

// chaosService is a register that also journals its applied write
// sequence, so the explorer can check state-machine safety (any two
// replicas' applied logs are prefixes of each other) on top of
// client-observed linearizability.
type chaosService struct {
	v   []byte
	log []string
}

func (s *chaosService) Execute(p []byte, readOnly bool) []byte {
	if len(p) > 0 && p[0] == 'w' && !readOnly {
		s.v = append([]byte(nil), p[1:]...)
		s.log = append(s.log, string(p))
	}
	return append([]byte(nil), s.v...)
}

// chaosRun is the fault.Runner for single-group clusters: build a
// 3-node WAL-backed HovercRaft cluster from seed, attach the schedule,
// drive closed-loop clients, then check every invariant and fingerprint
// the run.
func chaosRun(seed int64, sched fault.Schedule) (uint64, error) {
	return chaosRunWith(seed, sched, nil)
}

// chaosRunWith is chaosRun with a cluster-options hook, so runner
// variants (e.g. constrained replication pipelining) share the full
// invariant battery.
func chaosRunWith(seed int64, sched fault.Schedule, tweak func(*Options)) (uint64, error) {
	const horizon = 80 * time.Millisecond
	tracer := obs.New()
	opts := Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: seed, WAL: true, Obs: tracer,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &chaosService{}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	}
	if tweak != nil {
		tweak(&opts)
	}
	c := New(opts)
	var clients []*closedLoopClient
	for i := 0; i < 3; i++ {
		clients = append(clients, newClosedLoopClient(c, i, horizon))
	}
	inj := fault.Attach(c.Sim, c.FaultTarget(), sched)
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	// Quiet tail: load stops at horizon, faults end inside it, and the
	// cluster gets time to converge before the end-state checks.
	c.Run(horizon + 60*time.Millisecond)

	// Invariant 1: client-observed linearizability.
	var history []linearize.Op
	for _, cl := range clients {
		history = append(history, cl.history...)
	}
	if !linearize.Check(regModel{}, history) {
		return 0, fmt.Errorf("history not linearizable (faults: %s)", inj.Log)
	}

	// Invariant 2: election safety — at most one leader per term.
	byTerm := make(map[uint64]uint64) // term → node
	for _, ev := range tracer.Events() {
		if ev.Name != "leader_elected" {
			continue
		}
		var node, term uint64
		if _, err := fmt.Sscanf(ev.Detail, "node=%d term=%d", &node, &term); err != nil {
			continue
		}
		if prev, ok := byTerm[term]; ok && prev != node {
			return 0, fmt.Errorf("two leaders in term %d: nodes %d and %d", term, prev, node)
		}
		byTerm[term] = node
	}

	// Invariant 3: log matching over the committed overlap of live nodes.
	var live []*Node
	for _, n := range c.Nodes {
		if !n.Crashed() {
			live = append(live, n)
		}
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			la, lb := live[i].Engines[0].Node().Log(), live[j].Engines[0].Node().Log()
			lo := la.FirstIndex()
			if fb := lb.FirstIndex(); fb > lo {
				lo = fb
			}
			hi := la.Commit()
			if cb := lb.Commit(); cb < hi {
				hi = cb
			}
			for idx := lo; idx <= hi; idx++ {
				ea, eb := la.Entry(idx), lb.Entry(idx)
				if ea == nil || eb == nil {
					continue
				}
				if ea.Term != eb.Term || ea.ID != eb.ID {
					return 0, fmt.Errorf("log mismatch at index %d: node %d has term=%d id=%v, node %d has term=%d id=%v",
						idx, live[i].ID, ea.Term, ea.ID, live[j].ID, eb.Term, eb.ID)
				}
			}
		}
	}

	// Invariant 4: state-machine safety — applied write sequences of any
	// two live replicas are prefixes of each other.
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			a := live[i].Services[0].(*chaosService).log
			b := live[j].Services[0].(*chaosService).log
			if len(b) < len(a) {
				a, b = b, a
			}
			for k := range a {
				if a[k] != b[k] {
					return 0, fmt.Errorf("applied logs diverge at %d: node %d applied %q, node %d applied %q",
						k, live[i].ID, a[k], live[j].ID, b[k])
				}
			}
		}
	}

	// Fingerprint everything observable for the same-seed replay check.
	fp := fault.NewFingerprint()
	for ci, cl := range clients {
		for _, op := range cl.history {
			fp.Add("c%d %d %q %q %d %d %v", ci, op.ClientID, op.Input, op.Output, op.Call, op.Return, op.Pending)
		}
	}
	for _, n := range c.Nodes {
		svc := n.Services[0].(*chaosService)
		fp.Add("n%d v=%q applied=%d crashed=%v", n.ID, svc.v, len(svc.log), n.Crashed())
		for _, op := range svc.log {
			fp.Add("%s", op)
		}
	}
	for _, line := range inj.Log {
		fp.Add("%s", line)
	}
	return fp.Sum(), nil
}

// TestChaosExplorer sweeps ≥50 seeded random fault schedules through the
// single-group runner: linearizability, election safety, log matching,
// and state-machine safety must hold on every run, every fault kind must
// be exercised somewhere in the matrix, and sampled replays must be
// bit-for-bit deterministic.
func TestChaosExplorer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is long; run without -short (CI has a dedicated job)")
	}
	rep := fault.Explore(fault.Options{
		Seeds: fault.Seeds(1000, 50),
		Spec: fault.Spec{
			Nodes: 3, Incidents: 3, WAL: true,
			Start: 8 * time.Millisecond, End: 60 * time.Millisecond,
		},
		ReplayEvery: 10,
	}, chaosRun)

	for _, f := range rep.Failures {
		t.Errorf("chaos failure: %s", f)
	}
	for _, seed := range rep.Mismatches {
		t.Errorf("seed %d: replay fingerprint mismatch (nondeterminism)", seed)
	}
	for k := 0; k < fault.NumKinds; k++ {
		if rep.Coverage[k] == 0 {
			t.Errorf("fault kind %v never exercised across the seed matrix", fault.Kind(k))
		}
	}
	t.Logf("%d runs, %d failures, %d replay mismatches, coverage=%v",
		rep.Runs, len(rep.Failures), len(rep.Mismatches), rep.Coverage)
}

// TestChaosPipelinedAEReplication sweeps a dedicated fault-schedule
// seed set with replication pipelining constrained: MaxBatchBytes is
// squeezed so every multi-proposal batch splits into several
// AppendEntries, and the inflight window is small enough that faults
// land mid-pipeline. Partitions, delay bursts, and crashes then reorder
// and truncate the AE stream; the same safety battery (linearizability,
// election safety, log matching, state-machine safety) plus same-seed
// determinism must hold.
func TestChaosPipelinedAEReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("pipelined chaos sweep is long; run without -short")
	}
	pipelined := func(seed int64, sched fault.Schedule) (uint64, error) {
		return chaosRunWith(seed, sched, func(o *Options) {
			// ~3 metadata entries per AE; an 8-entry inflight window.
			o.MaxBatchBytes = 130
			o.MaxInflightEntries = 8
		})
	}
	rep := fault.Explore(fault.Options{
		Seeds: fault.Seeds(7000, 25),
		Spec: fault.Spec{
			Nodes: 3, Incidents: 4, WAL: true,
			Start: 8 * time.Millisecond, End: 60 * time.Millisecond,
		},
		ReplayEvery: 5,
	}, pipelined)
	for _, f := range rep.Failures {
		t.Errorf("pipelined chaos failure: %s", f)
	}
	for _, seed := range rep.Mismatches {
		t.Errorf("seed %d: replay fingerprint mismatch (nondeterminism)", seed)
	}
	t.Logf("%d runs, %d failures, %d replay mismatches",
		rep.Runs, len(rep.Failures), len(rep.Mismatches))
}

// TestChaosSmoke is the -short variant: a handful of seeds with replay
// checking, so the explorer machinery itself is exercised on every CI
// tier.
func TestChaosSmoke(t *testing.T) {
	rep := fault.Explore(fault.Options{
		Seeds: fault.Seeds(1000, 4),
		Spec: fault.Spec{
			Nodes: 3, Incidents: 3, WAL: true,
			Start: 8 * time.Millisecond, End: 60 * time.Millisecond,
		},
		ReplayEvery: 2,
	}, chaosRun)
	for _, f := range rep.Failures {
		t.Errorf("chaos failure: %s", f)
	}
	for _, seed := range rep.Mismatches {
		t.Errorf("seed %d: replay fingerprint mismatch", seed)
	}
}
