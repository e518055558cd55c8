package simcluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/simnet"
)

// opCountService counts how many times each distinct write body was
// applied; any count above one is a broken exactly-once guarantee.
type opCountService struct {
	applied map[string]int
	dups    int
}

func newOpCountService() *opCountService {
	return &opCountService{applied: make(map[string]int)}
}

func (s *opCountService) Execute(p []byte, readOnly bool) []byte {
	if !readOnly {
		key := string(p)
		s.applied[key]++
		if s.applied[key] > 1 {
			s.dups++
		}
	}
	return append([]byte(nil), p...)
}

// uniqueWorkload emits globally unique write bodies so double-applies
// are detectable at the service.
type uniqueWorkload struct{ n int }

func (w *uniqueWorkload) Next(_ *rand.Rand) ([]byte, r2p2.Policy) {
	w.n++
	return []byte(fmt.Sprintf("op-%06d", w.n)), r2p2.PolicyReplicated
}

// TestExactlyOnceAcrossFailover drives retrying clients through a leader
// crash: client retransmissions reuse their request IDs and the new
// leader re-proposes drained duplicates, so without the dedup cache some
// ops would execute twice. Asserts zero double-applies and zero
// acked-but-lost ops.
func TestExactlyOnceAcrossFailover(t *testing.T) {
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: 41,
		NewService: func(int) (app.Service, app.CostModel) {
			s := newOpCountService()
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	acked := make(map[string]bool)
	lg := loadgen.NewClient(c.Net, "lg", simnet.DefaultHostConfig(), loadgen.ClientConfig{
		Rate:     20000,
		Duration: 150 * time.Millisecond,
		// Backoff tighter than the failover window so retransmissions
		// genuinely race the new leader's re-proposal of drained bodies.
		Timeout:      2 * time.Millisecond,
		Retries:      6,
		RetryBackoff: time.Millisecond,
		Workload:     &uniqueWorkload{},
		Target:       c.ServiceAddr,
		Port:         7001,
		OnComplete:   func(p []byte) { acked[string(p)] = true },
	})
	c.Start()
	lg.Start()
	c.Sim.After(50*time.Millisecond, func() {
		if lead := c.LeaderOf(0); lead != nil {
			lead.Crash()
		}
	})
	c.Run(300 * time.Millisecond)

	if lg.Completed == 0 {
		t.Fatal("no completed ops")
	}
	if lg.Retries == 0 {
		t.Fatal("failover produced no retransmissions; scenario too tame to test exactly-once")
	}
	t.Logf("completed=%d retries=%d dup_responses=%d expired=%d acked=%d",
		lg.Completed, lg.Retries, lg.DupsSuppressed, lg.Expired, len(acked))
	for _, n := range c.Nodes {
		if n.Crashed() {
			continue
		}
		svc := n.Services[0].(*opCountService)
		if svc.dups != 0 {
			t.Errorf("node %d double-applied %d ops", n.ID, svc.dups)
		}
	}
	// Zero acked-but-lost: every op the client saw a response for is in
	// the surviving replicas' state.
	for _, n := range c.Nodes {
		if n.Crashed() {
			continue
		}
		svc := n.Services[0].(*opCountService)
		lost := 0
		for op := range acked {
			if svc.applied[op] == 0 {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("node %d lost %d acked ops", n.ID, lost)
		}
	}
}
