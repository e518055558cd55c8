package simcluster

import (
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/kvstore"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/simnet"
	"hovercraft/internal/ycsb"
)

func TestLogCompactionUnderLoad(t *testing.T) {
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: 21,
		CompactEvery: 500,
		NewService: func(int) (app.Service, app.CostModel) {
			s := kvstore.New()
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	gen := ycsb.NewWorkloadE(100)
	cl := loadgen.NewClient(c.Net, "client", simnet.DefaultHostConfig(), loadgen.ClientConfig{
		Rate: 30_000, Warmup: 5 * time.Millisecond, Duration: 150 * time.Millisecond,
		Timeout:  50 * time.Millisecond,
		Workload: &loadgen.YCSBE{Gen: gen},
		Target:   c.ServiceAddr, Port: 1000,
	})
	c.Start()
	cl.Start()
	c.Run(220 * time.Millisecond)

	res := cl.Result()
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of %.0f with compaction on", res.Achieved, res.Offered)
	}
	// Compaction actually happened on every node and the retained log
	// stayed bounded.
	for _, n := range c.Nodes {
		log := n.Engines[0].Node().Log()
		if log.SnapIndex() == 0 {
			t.Fatalf("node %d never compacted (applied=%d)", n.ID, log.Applied())
		}
		if retained := log.LastIndex() - log.SnapIndex(); retained > 1200 {
			t.Fatalf("node %d retains %d entries despite CompactEvery=500", n.ID, retained)
		}
		if n.Engines[0].Counters().Value("snap_taken") == 0 {
			t.Fatalf("node %d took no snapshots", n.ID)
		}
	}
}

func TestSnapshotCatchupRestoresApplication(t *testing.T) {
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: 22,
		CompactEvery: 300,
		NewService: func(int) (app.Service, app.CostModel) {
			s := kvstore.New()
			return s, app.FixedCost{Service: s, PerOp: time.Microsecond}
		},
	})
	// Custom client issuing deterministic SETs.
	host := c.Net.NewHost("client", simnet.DefaultHostConfig())
	r2cl := r2p2.NewClient(uint32(host.Addr()), 77)
	reasm := r2p2.NewReassembler(time.Second)
	responses := 0
	host.SetHandler(func(pkt *simnet.Packet) {
		m, err := reasm.Ingest(pkt.Payload, uint32(pkt.Src), c.Sim.Now())
		if err == nil && m != nil && m.Type == r2p2.TypeResponse {
			responses++
		}
	})
	send := func(i int) {
		payload := kvstore.EncodeSet(fmt.Sprintf("key%04d", i), []byte(fmt.Sprintf("val%d", i)))
		_, dgs := r2cl.NewRequest(r2p2.PolicyReplicated, payload)
		for _, dg := range dgs {
			host.Send(&simnet.Packet{Dst: c.ServiceAddr, Payload: dg})
		}
	}
	c.Start()
	// Crash follower 3 early, write 1000 keys (well past CompactEvery),
	// then revive it: catch-up must go through InstallSnapshot and the
	// restored store must contain all keys.
	c.Sim.After(2*time.Millisecond, func() { c.Nodes[2].Crash() })
	for i := 0; i < 1000; i++ {
		i := i
		c.Sim.After(3*time.Millisecond+time.Duration(i)*30*time.Microsecond, func() { send(i) })
	}
	c.Sim.After(50*time.Millisecond, func() { c.Nodes[2].Restart() })
	c.Run(300 * time.Millisecond)

	if responses < 900 {
		t.Fatalf("only %d/1000 responses", responses)
	}
	n3 := c.Nodes[2]
	if n3.Engines[0].Counters().Value("snap_restored") == 0 {
		t.Fatal("follower 3 was never restored from a snapshot")
	}
	// Application state equality: follower 3's store answers all keys.
	store := n3.Services[0].(*kvstore.Store)
	missing := 0
	for i := 0; i < 1000; i++ {
		st, _ := kvstore.DecodeStatus(store.Execute(kvstore.EncodeGet(fmt.Sprintf("key%04d", i)), true))
		if st != kvstore.StatusOK {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("follower 3 store missing %d/1000 keys after snapshot catch-up", missing)
	}
	lead := c.LeaderOf(0)
	if n3.Engines[0].Node().Log().Applied() < lead.Engines[0].Node().Log().Applied()*9/10 {
		t.Fatalf("follower 3 lagging: %v vs %v",
			n3.Engines[0].Node().Status(), lead.Engines[0].Node().Status())
	}
}
