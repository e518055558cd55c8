package simcluster

import (
	"math/rand"
	"testing"
	"time"

	"hovercraft/internal/fault"
)

// TestFingerprintsPinned replays one seed of every chaos runner and
// compares its fingerprint against a constant recorded when the runner
// last changed on purpose. The explorers only compare a run against its
// own same-process replay; this test catches a refactor that moves any
// observable number (a history timestamp, an applied count, a raft term)
// while staying deterministic. Re-baseline only for a deliberate
// behavior change, and say so in the commit.
func TestFingerprintsPinned(t *testing.T) {
	spec := fault.Spec{
		Nodes: 3, Incidents: 3, WAL: true,
		Start: 8 * time.Millisecond, End: 60 * time.Millisecond,
	}
	// The schedule TestChaosSmoke and the other explorers draw for seed.
	sched := func(seed int64) fault.Schedule {
		return fault.RandomSchedule(rand.New(rand.NewSource(seed)), spec)
	}
	for _, tc := range []struct {
		name string
		want uint64
		run  func() (uint64, error)
	}{
		{"hovercraft-wal", 0x1c606407e996768c, func() (uint64, error) {
			return chaosRunWith(1000, sched(1000), nil)
		}},
		{"hovercraftpp-wal", 0x29fb430c4c55115b, func() (uint64, error) {
			return chaosRunWith(1001, sched(1001), func(o *Options) { o.Setup = SetupHovercraftPP })
		}},
		{"read-lease", 0x7bdc45ff637e4aa4, func() (uint64, error) {
			return readChaosRun(9000, sched(9000))
		}},
		{"overload", 0x4d53c4ccc2846c96, func() (uint64, error) {
			return overloadChaosRun(12000, sched(12000))
		}},
		{"sharded", 0xacb2727bd6298fa1, func() (uint64, error) {
			return runShardChaosScenario(t, 31), nil
		}},
	} {
		got, err := tc.run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}
