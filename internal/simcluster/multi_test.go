package simcluster

import (
	"testing"
	"time"

	"hovercraft/internal/loadgen"
	"hovercraft/internal/obs"
	"hovercraft/internal/shard"
	"hovercraft/internal/simnet"
)

func multiSynth(keys int) *loadgen.Synthetic {
	return &loadgen.Synthetic{
		ServiceTime: loadgen.Fixed(time.Microsecond),
		ReqSize:     24, ReplySize: 8,
		Keys: keys,
	}
}

func TestMultiClusterServing(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Groups: 4, Nodes: 12, Replication: 3, Seed: 11})
	router := shard.NewRouter(c.Map, nil)

	warm, dur := 10*time.Millisecond, 60*time.Millisecond
	var clients []*loadgen.Client
	for i := 0; i < 2; i++ {
		clients = append(clients, loadgen.NewClient(c.Net, "client", simnet.DefaultHostConfig(),
			loadgen.ClientConfig{
				Rate: 100_000, Warmup: warm, Duration: dur,
				Timeout: 50 * time.Millisecond, Workload: multiSynth(4096),
				Target: c.ServiceAddr, Port: uint16(1000 + i),
				Router: router,
			}))
	}
	c.Start()
	for _, cl := range clients {
		cl.Start()
	}
	c.Run(warm + dur + 60*time.Millisecond)

	var results []loadgen.Result
	for _, cl := range clients {
		results = append(results, cl.Result())
	}
	res := loadgen.Merge(results...)
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of offered %.0f (p99 %v, nack %.0f, loss %.0f)",
			res.Achieved, res.Offered, res.Latency.P99, res.NackRate, res.LossRate)
	}
	if res.Latency.P99 > 500*time.Microsecond {
		t.Fatalf("p99 = %v over SLO", res.Latency.P99)
	}

	// Placed leaders won their groups, one leadership per node.
	seen := make(map[int]bool)
	for g := range c.Groups {
		lead := c.LeaderOf(g)
		if lead == nil {
			t.Fatalf("group %d has no leader", g)
		}
		if lead.ID != c.Placement.Leaders[g] {
			t.Fatalf("group %d led by %d, placed %d", g, lead.ID, c.Placement.Leaders[g])
		}
		if seen[int(lead.ID)] {
			t.Fatalf("node %d leads more than one group", lead.ID)
		}
		seen[int(lead.ID)] = true
	}

	// Every group carried a meaningful share of the traffic.
	merged := loadgen.MergeShardStats(clients)
	if len(merged) != 4 {
		t.Fatalf("client saw %d groups, want 4", len(merged))
	}
	var total uint64
	for _, st := range merged {
		total += st.Completed
	}
	for _, st := range merged {
		if st.Completed < total/4/4 {
			t.Fatalf("group %d completed only %d of %d", st.Group, st.Completed, total)
		}
	}
	if c.StaleNacks != 0 {
		t.Fatalf("fresh map produced %d stale NACKs", c.StaleNacks)
	}
}

func TestMultiClusterStaleMapRedirect(t *testing.T) {
	// The client boots with a map for 4 groups; the deployment serves 2.
	// Requests hashed to groups 2..3 must come back as GroupInvalid NACKs,
	// the router must refresh, and the retried ops must complete.
	// The tracer checks that each redirected op's first request ID, which
	// is terminal after the NACK, gives up its trace span.
	tracer := obs.New()
	c := New(Options{Setup: SetupHovercraft, Groups: 2, Nodes: 6, Replication: 3, Seed: 12, Obs: tracer})
	stale := shard.NewMapVersion(4, 1)
	fresh := shard.NewMapVersion(2, 2)
	router := shard.NewRouter(stale, func(uint64) *shard.Map { return fresh })

	warm, dur := 5*time.Millisecond, 40*time.Millisecond
	cl := loadgen.NewClient(c.Net, "client", simnet.DefaultHostConfig(),
		loadgen.ClientConfig{
			Rate: 50_000, Warmup: warm, Duration: dur,
			Timeout: 50 * time.Millisecond, Workload: multiSynth(4096),
			Target: c.ServiceAddr, Port: 1000,
			Router: router, Obs: tracer,
		})
	c.Start()
	cl.Start()
	c.Run(warm + dur + 60*time.Millisecond)

	res := cl.Result()
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of offered %.0f after redirects", res.Achieved, res.Offered)
	}
	if c.StaleNacks == 0 {
		t.Fatal("stale map produced no redirect NACKs")
	}
	if router.Refreshes() != 1 {
		t.Fatalf("router refreshed %d times, want exactly 1", router.Refreshes())
	}
	if router.Groups() != 2 {
		t.Fatalf("router still routing over %d groups", router.Groups())
	}
	if cl.Redirected == 0 {
		t.Fatal("no redirected ops recorded")
	}
	if n := tracer.Pending(); n != 0 {
		t.Fatalf("%d trace spans still open after the drain", n)
	}
}
