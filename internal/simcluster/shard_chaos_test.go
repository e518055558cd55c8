package simcluster

import (
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/fault"
	"hovercraft/internal/linearize"
	"hovercraft/internal/shard"
)

// TestShardedClusterSurvivesFaultSchedule drives a sharded Cluster
// through a composite fault schedule — group-0 leader crash (and later
// restart), a 1% packet-loss burst, and a partition/heal cycle on a
// follower — and requires every per-key history to stay linearizable.
// With the overlapping placement, the crashed leader is also a follower
// of other groups, so several groups degrade at once.
func TestShardedClusterSurvivesFaultSchedule(t *testing.T) {
	for seed := int64(31); seed <= 32; seed++ {
		runShardChaosScenario(t, seed)
	}
}

// runShardChaosScenario returns a fingerprint of the run: every client
// history and every replica's final raft status.
func runShardChaosScenario(t *testing.T, seed int64) uint64 {
	t.Helper()
	c := New(Options{
		Setup: SetupHovercraft, Groups: 4, Nodes: 6, Replication: 3, Seed: seed,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &kregService{m: make(map[string][]byte)}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	router := shard.NewRouter(c.Map, nil)
	const horizon = 150 * time.Millisecond

	sched := fault.Schedule{Events: []fault.Event{
		// 1% loss for a third of the run.
		{At: 20 * time.Millisecond, Kind: fault.Loss, Rate: 0.01},
		{At: 70 * time.Millisecond, Kind: fault.Loss, Rate: 0},
		// Group-0 leader crashes mid-load and comes back later.
		{At: 50 * time.Millisecond, Kind: fault.Crash, Node: fault.PickLeader},
		{At: 90 * time.Millisecond, Kind: fault.Restart, Node: fault.PickCrashed},
		// Partition/heal cycle on a concrete node (node 5 overlaps several
		// groups in the 6-node placement).
		{At: 100 * time.Millisecond, Kind: fault.Partition, Node: 5, Peer: fault.AllOthers},
		{At: 125 * time.Millisecond, Kind: fault.Heal},
	}}
	inj := fault.Attach(c.Sim, c.FaultTarget(), sched)

	var clients []*shardLoopClient
	for i := 0; i < 4; i++ {
		clients = append(clients, newShardLoopClient(c, router, i, horizon))
	}
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	c.Run(horizon + 60*time.Millisecond)

	if inj.Skipped != 0 {
		t.Fatalf("seed %d: injector skipped events: %v", seed, inj.Log)
	}

	histories := make(map[string][]linearize.Op)
	completed := 0
	for _, cl := range clients {
		for i, op := range cl.history {
			histories[cl.keys[i]] = append(histories[cl.keys[i]], op)
			if !op.Pending {
				completed++
			}
		}
	}
	if completed < 80 {
		t.Fatalf("seed %d: only %d completed ops under faults (history too thin)", seed, completed)
	}
	groupsHit := make(map[shard.GroupID]bool)
	for key, h := range histories {
		groupsHit[c.Map.GroupFor([]byte(key))] = true
		if !linearize.Check(regModel{}, h) {
			t.Fatalf("seed %d: history for key %q (%d ops) is NOT linearizable under faults\nfaults: %v",
				seed, key, len(h), inj.Log)
		}
	}
	if len(groupsHit) < 2 {
		t.Fatalf("seed %d: keyspace exercised only %d groups", seed, len(groupsHit))
	}

	fp := fault.NewFingerprint()
	for ci, cl := range clients {
		for i, op := range cl.history {
			fp.Add("c%d %s %q %q %d %d %v", ci, cl.keys[i], op.Input, op.Output, op.Call, op.Return, op.Pending)
		}
	}
	for _, n := range c.Nodes {
		for g, e := range n.Engines {
			if e != nil {
				fp.Add("n%d g%d %v crashed=%v", n.ID, g, e.Node().Status(), n.Crashed())
			}
		}
	}
	for _, line := range inj.Log {
		fp.Add("%s", line)
	}
	return fp.Sum()
}
