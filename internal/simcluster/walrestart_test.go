package simcluster

import (
	"bytes"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/linearize"
)

// runWALRestartScenario crashes a node mid-load and brings it back
// through RestartFromWAL (optionally shearing the WAL tail first). The
// history must stay linearizable and the recovered node's state machine
// must reconverge with the rest of the cluster.
func runWALRestartScenario(t *testing.T, seed int64, killLeader bool, tornBytes int) {
	t.Helper()
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: seed, WAL: true,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &regService{}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	const horizon = 120 * time.Millisecond
	var clients []*closedLoopClient
	for i := 0; i < 4; i++ {
		clients = append(clients, newClosedLoopClient(c, i, horizon))
	}
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	var victim *Node
	c.Sim.After(40*time.Millisecond, func() {
		if killLeader {
			victim = c.LeaderOf(0)
		} else {
			lead := c.LeaderOf(0)
			for _, n := range c.Nodes {
				if n != lead {
					victim = n
					break
				}
			}
		}
		if victim != nil {
			victim.Crash()
		}
	})
	c.Sim.After(70*time.Millisecond, func() {
		if victim == nil {
			return
		}
		if err := victim.RestartFromWAL(tornBytes); err != nil {
			t.Errorf("RestartFromWAL: %v", err)
		}
	})
	// Extra quiet time after the load stops lets replication converge.
	c.Run(horizon + 80*time.Millisecond)

	var history []linearize.Op
	completed := 0
	for _, cl := range clients {
		for _, op := range cl.history {
			history = append(history, op)
			if !op.Pending {
				completed++
			}
		}
	}
	if completed < 50 {
		t.Fatalf("only %d completed ops", completed)
	}
	if !linearize.Check(regModel{}, history) {
		t.Fatalf("seed %d: history NOT linearizable across WAL restart", seed)
	}
	if victim == nil {
		t.Fatal("no victim selected")
	}
	// The recovered replica must have replayed the same applied prefix:
	// its register equals some other live node's register once quiet.
	want := ""
	for _, n := range c.Nodes {
		if n != victim && !n.Crashed() {
			want = string(n.Services[0].(*regService).v)
			break
		}
	}
	got := string(victim.Services[0].(*regService).v)
	if !bytes.Equal([]byte(got), []byte(want)) {
		t.Fatalf("seed %d: recovered node diverged: got %q want %q", seed, got, want)
	}
}

func TestFollowerWALRestartIntactTail(t *testing.T) {
	runWALRestartScenario(t, 31, false, 0)
}

func TestFollowerWALRestartTornTail(t *testing.T) {
	runWALRestartScenario(t, 32, false, 7)
}

func TestLeaderWALRestartTornTail(t *testing.T) {
	runWALRestartScenario(t, 33, true, 11)
}
