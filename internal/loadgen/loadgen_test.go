package loadgen

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/simnet"
	"hovercraft/internal/ycsb"
)

func TestFixedDist(t *testing.T) {
	d := Fixed(5 * time.Microsecond)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if d.Sample(rng) != 5*time.Microsecond {
			t.Fatal("fixed not fixed")
		}
	}
	if d.Mean() != 5*time.Microsecond {
		t.Fatal("mean wrong")
	}
}

func TestExponentialDist(t *testing.T) {
	d := Exponential(10 * time.Microsecond)
	rng := rand.New(rand.NewSource(2))
	var sum time.Duration
	const n = 200000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	mean := float64(sum) / n
	if math.Abs(mean-float64(d.Mean()))/float64(d.Mean()) > 0.02 {
		t.Fatalf("empirical mean %.0f vs %.0f", mean, float64(d.Mean()))
	}
}

func TestBimodalDist(t *testing.T) {
	d := Bimodal{Short: 10, Long: 100, PLong: 0.1}
	rng := rand.New(rand.NewSource(3))
	longs := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v != 10 && v != 100 {
			t.Fatalf("unexpected sample %v", v)
		}
		if v == 100 {
			longs++
		}
	}
	if longs < 9000 || longs > 11000 {
		t.Fatalf("long fraction = %d/%d", longs, n)
	}
	if d.Mean() != 19 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestPaperBimodal(t *testing.T) {
	d := PaperBimodal(10 * time.Microsecond)
	// Mean must be (approximately) the requested mean.
	if math.Abs(float64(d.Mean()-10*time.Microsecond)) > 10 {
		t.Fatalf("mean = %v", d.Mean())
	}
	// 10% of requests are 10x longer.
	if d.Long != 10*d.Short || math.Abs(d.PLong-0.1) > 1e-9 {
		t.Fatalf("shape: %+v", d)
	}
}

func TestSyntheticWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := &Synthetic{
		ServiceTime: Fixed(3 * time.Microsecond),
		ReqSize:     64, ReplySize: 128, ReadFraction: 0.5,
	}
	ro, rw := 0, 0
	for i := 0; i < 2000; i++ {
		payload, policy := w.Next(rng)
		if len(payload) != 64 {
			t.Fatalf("payload = %d bytes", len(payload))
		}
		svc := app.SynthService{}
		if c := svc.Cost(payload, false); c != 3*time.Microsecond {
			t.Fatalf("cost = %v", c)
		}
		if reply := svc.Execute(payload, false); len(reply) != 128 {
			t.Fatalf("reply = %d bytes", len(reply))
		}
		switch policy {
		case r2p2.PolicyReplicatedRO:
			ro++
		case r2p2.PolicyReplicated:
			rw++
		default:
			t.Fatalf("policy = %v", policy)
		}
	}
	if ro < 800 || ro > 1200 {
		t.Fatalf("ro fraction = %d/2000", ro)
	}
	// Unreplicated variant uses the unrestricted policy.
	w.Unreplicated = true
	if _, policy := w.Next(rng); policy != r2p2.PolicyUnrestricted {
		t.Fatalf("unrep policy = %v", policy)
	}
}

func TestYCSBEWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := &YCSBE{Gen: ycsb.NewWorkloadE(100)}
	ro := 0
	for i := 0; i < 1000; i++ {
		payload, policy := w.Next(rng)
		if len(payload) == 0 {
			t.Fatal("empty payload")
		}
		if policy == r2p2.PolicyReplicatedRO {
			ro++
		}
	}
	if ro < 900 {
		t.Fatalf("scan fraction = %d/1000", ro)
	}
}

func TestParetoDist(t *testing.T) {
	d := Pareto{Scale: 10 * time.Microsecond, Alpha: 2.5}
	rng := rand.New(rand.NewSource(6))
	var sum float64
	const n = 500000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < d.Scale {
			t.Fatalf("sample %v below scale", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if math.Abs(mean-float64(d.Mean()))/float64(d.Mean()) > 0.05 {
		t.Fatalf("empirical mean %.0f vs analytic %.0f", mean, float64(d.Mean()))
	}
	// Cap truncates the tail.
	capped := Pareto{Scale: 10 * time.Microsecond, Alpha: 1.1, Cap: time.Millisecond}
	for i := 0; i < 100000; i++ {
		if v := capped.Sample(rng); v > time.Millisecond {
			t.Fatalf("capped sample %v", v)
		}
	}
}

func TestZipfKeyedSkew(t *testing.T) {
	w := &ZipfKeyed{
		Inner: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8},
		Theta: 1.2,
		Keys:  1 << 16,
	}
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		key, payload, _ := w.NextKeyed(rng)
		if len(payload) != 24 {
			t.Fatalf("payload = %d", len(payload))
		}
		counts[string(key)]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// Zipf head: the hottest key alone draws a large share of all load
	// (uniform over 64k keys would give < 1 expected hit per key).
	if top < n/10 {
		t.Fatalf("hottest key drew %d/%d — not skewed", top, n)
	}
}

func TestRateFns(t *testing.T) {
	d := DiurnalRate(1000, 3000, 100*time.Millisecond)
	if r := d(0); math.Abs(r-1000) > 1 {
		t.Fatalf("trough = %.0f", r)
	}
	if r := d(50 * time.Millisecond); math.Abs(r-3000) > 1 {
		t.Fatalf("peak = %.0f", r)
	}
}

// echoServer wires a trivial responder into simnet for client tests.
func echoServer(net *simnet.Network) simnet.Addr {
	h := net.NewHost("server", simnet.DefaultHostConfig())
	reasm := r2p2.NewReassembler(time.Second)
	h.SetHandler(func(pkt *simnet.Packet) {
		m, err := reasm.Ingest(pkt.Payload, uint32(pkt.Src), net.Sim().Now())
		if err != nil || m == nil || m.Type != r2p2.TypeRequest {
			return
		}
		for _, dg := range r2p2.MakeResponse(m.ID, []byte("ok"), 0) {
			h.Send(&simnet.Packet{Dst: simnet.Addr(m.ID.SrcIP), Payload: dg})
		}
	})
	return h.Addr()
}

func TestClientOpenLoopMeasurement(t *testing.T) {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim)
	target := echoServer(net)
	c := NewClient(net, "client", simnet.DefaultHostConfig(), ClientConfig{
		Rate: 50_000, Warmup: 5 * time.Millisecond, Duration: 50 * time.Millisecond,
		Timeout: 10 * time.Millisecond,
		Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
			Unreplicated: true},
		Target: target, Port: 99,
	})
	c.Start()
	sim.Run(80 * time.Millisecond)
	res := c.Result()
	// Open loop: offered ≈ configured rate (Poisson variance aside).
	if res.Offered < 45_000 || res.Offered > 55_000 {
		t.Fatalf("offered = %.0f", res.Offered)
	}
	if res.Achieved < 0.99*res.Offered {
		t.Fatalf("achieved %.0f of %.0f", res.Achieved, res.Offered)
	}
	if res.Latency.P99 <= 0 || res.Latency.P99 > time.Millisecond {
		t.Fatalf("p99 = %v", res.Latency.P99)
	}
	if res.LossRate != 0 || res.NackRate != 0 {
		t.Fatalf("loss/nack: %+v", res)
	}
}

func TestClientCountsTimeouts(t *testing.T) {
	sim := simnet.New(2)
	net := simnet.NewNetwork(sim)
	// No server: everything times out.
	blackhole := net.NewHost("blackhole", simnet.DefaultHostConfig()).Addr()
	c := NewClient(net, "client", simnet.DefaultHostConfig(), ClientConfig{
		Rate: 10_000, Warmup: 0, Duration: 20 * time.Millisecond,
		Timeout: 5 * time.Millisecond,
		Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
			Unreplicated: true},
		Target: blackhole, Port: 99,
	})
	c.Start()
	sim.Run(50 * time.Millisecond)
	res := c.Result()
	if res.Achieved != 0 {
		t.Fatalf("achieved = %.0f from a blackhole", res.Achieved)
	}
	if res.LossRate < 0.9*res.Offered {
		t.Fatalf("loss %.0f of offered %.0f", res.LossRate, res.Offered)
	}
}

func TestClientTimeSeries(t *testing.T) {
	sim := simnet.New(3)
	net := simnet.NewNetwork(sim)
	target := echoServer(net)
	c := NewClient(net, "client", simnet.DefaultHostConfig(), ClientConfig{
		Rate: 20_000, Warmup: 0, Duration: 50 * time.Millisecond,
		Timeout: 10 * time.Millisecond,
		Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
			Unreplicated: true},
		Target: target, Port: 99, SampleEvery: 10 * time.Millisecond,
	})
	c.Start()
	sim.Run(80 * time.Millisecond)
	if c.Throughput.Len() < 4 {
		t.Fatalf("series samples = %d", c.Throughput.Len())
	}
	_, v := c.Throughput.At(2)
	if v < 15_000 || v > 25_000 {
		t.Fatalf("mid-run throughput sample = %.0f", v)
	}
}

func TestMergeHistograms(t *testing.T) {
	sim := simnet.New(4)
	net := simnet.NewNetwork(sim)
	target := echoServer(net)
	var clients []*Client
	for i := 0; i < 2; i++ {
		c := NewClient(net, "c", simnet.DefaultHostConfig(), ClientConfig{
			Rate: 5_000, Warmup: 0, Duration: 20 * time.Millisecond,
			Timeout: 10 * time.Millisecond,
			Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
				Unreplicated: true},
			Target: target, Port: uint16(100 + i),
		})
		c.Start()
		clients = append(clients, c)
	}
	sim.Run(50 * time.Millisecond)
	h := MergeHistograms(clients)
	if h.Count() != clients[0].Latency.Count()+clients[1].Latency.Count() {
		t.Fatal("merge count mismatch")
	}
	m := Merge(clients[0].Result(), clients[1].Result())
	if m.Offered <= 0 || m.Latency.Count != h.Count() {
		t.Fatalf("merge result: %+v", m)
	}
}
