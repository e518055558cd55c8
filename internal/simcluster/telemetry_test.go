package simcluster

import (
	"testing"
	"time"

	"hovercraft/internal/obs"
	"hovercraft/internal/raft"
)

// telemetryCluster builds a HovercRaft cluster with per-node telemetry
// attached and drives a short fixed-seed load through it.
func telemetryCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: seed,
		NewTelemetry: func(id raft.NodeID) *obs.Telemetry {
			return obs.NewTelemetry(nil, 10*time.Millisecond, 4)
		},
	})
	runLoad(t, c, 50_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 100*time.Millisecond)
	return c
}

// TestSimTelemetryRecords checks the virtual-time telemetry wiring: the
// DES world records deterministic per-stage counts (every duration is 0
// under virtual time unless the stage spans simulated work, but counts
// and rotations are exact).
func TestSimTelemetryRecords(t *testing.T) {
	c := telemetryCluster(t, 11)
	leader := c.LeaderOf(0)
	if leader == nil {
		t.Fatal("no leader")
	}
	if leader.Tel == nil {
		t.Fatal("telemetry not attached")
	}
	if n := leader.Tel.Window(obs.QEngine).Count; n == 0 {
		t.Error("leader recorded no engine dispatches")
	}
	if n := leader.Tel.Window(obs.QRaftStep).Count; n == 0 {
		t.Error("leader recorded no raft steps")
	}
	// The engine tick drove epoch rotation on virtual time: a 110ms run
	// with 10ms epochs rotates ~11 times.
	if rot := leader.Tel.Hist(obs.QEngine).Rotations(); rot < 5 {
		t.Errorf("rotations = %d, want several over a 110ms run", rot)
	}
	// Followers step AEs, so they also record.
	for _, n := range c.Nodes {
		if n == leader {
			continue
		}
		if cnt := n.Tel.Window(obs.QRaftStep).Count; cnt == 0 {
			t.Errorf("node %d recorded no raft steps", n.ID)
		}
	}
}

// TestSimTelemetryDeterministic runs the same seed twice and demands
// identical telemetry state — the property the golden scrape test
// builds on.
func TestSimTelemetryDeterministic(t *testing.T) {
	a := telemetryCluster(t, 23)
	b := telemetryCluster(t, 23)
	for i := range a.Nodes {
		for s := obs.QStage(0); s < obs.NumQStages; s++ {
			wa, wb := a.Nodes[i].Tel.Window(s), b.Nodes[i].Tel.Window(s)
			if wa != wb {
				t.Errorf("node %d stage %v: run A %+v != run B %+v",
					a.Nodes[i].ID, s, wa, wb)
			}
			ta := a.Nodes[i].Tel.Hist(s).TotalCount()
			tb := b.Nodes[i].Tel.Hist(s).TotalCount()
			if ta != tb {
				t.Errorf("node %d stage %v: total %d != %d", a.Nodes[i].ID, s, ta, tb)
			}
		}
	}
}
