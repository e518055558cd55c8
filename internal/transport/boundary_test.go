package transport

import (
	"sort"
	"testing"
	"time"

	"hovercraft/internal/core"
)

// withTick sets a node's tick, scaling the election and heartbeat tick
// counts so the timeouts stay around 1s / 100ms whatever the tick.
func withTick(tick time.Duration) func(*ServerConfig) {
	return func(c *ServerConfig) {
		c.TickInterval = tick
		c.ElectionTicks = int(time.Second / tick)
		c.HeartbeatTicks = int(100 * time.Millisecond / tick)
	}
}

// TestWriteLatencyIndependentOfTick pins the event-driven write path: a
// replicated write is clocked by packet arrivals (replicate, ack, commit
// notify, apply and reply all leave at loop boundaries), so a 20ms tick
// must not show up in its latency. With any timer on the path a write
// costs at least one tick and the median sits at 20-40ms.
func TestWriteLatencyIndependentOfTick(t *testing.T) {
	_, peers, cleanup := startClusterWith(t, core.ModeHovercraft, 3, withTick(20*time.Millisecond))
	defer cleanup()
	cl := dialCluster(t, peers)
	defer cl.Close()

	const writes = 200
	lat := make([]time.Duration, writes)
	for i := range lat {
		t0 := time.Now()
		if _, err := cl.Call([]byte("incr"), false); err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
		lat[i] = time.Since(t0)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[writes/2]; med >= 5*time.Millisecond {
		t.Fatalf("median write latency %v at a 20ms tick: a timer is on the write path (p10 %v, p90 %v)",
			med, lat[writes/10], lat[writes*9/10])
	}
}

// TestLoneHovercraftNodeAnswersFirstAttempt: a quorum of one commits at
// Propose. The entry must still wait for its announce (which designates
// the replier) before it applies, or the node executes it with no
// replier and the client is only answered by its retry through the dedup
// cache.
func TestLoneHovercraftNodeAnswersFirstAttempt(t *testing.T) {
	_, peers, cleanup := startClusterWith(t, core.ModeHovercraft, 1, withTick(time.Millisecond))
	defer cleanup()
	cl := dialCluster(t, peers) // 1s attempt timeout
	defer cl.Close()

	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := cl.Call([]byte("incr"), false); err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
		if d := time.Since(t0); d > 250*time.Millisecond {
			t.Fatalf("incr %d took %v: answered by a retry, not the first attempt", i, d)
		}
	}
}
