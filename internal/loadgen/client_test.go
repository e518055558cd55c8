package loadgen

import (
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/simnet"
)

func TestSwarmOpenLoopMeasurement(t *testing.T) {
	sim := simnet.New(11)
	net := simnet.NewNetwork(sim)
	target := echoServer(net)
	c := NewClient(net, "swarm", simnet.DefaultHostConfig(), ClientConfig{
		Clients: 40_000, // 3 hosts: exercises the per-host state tables
		Rate:    50_000,
		Warmup:  5 * time.Millisecond, Duration: 50 * time.Millisecond,
		Timeout: 10 * time.Millisecond,
		Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
			Unreplicated: true},
		Target: target,
	})
	if len(c.hosts) != 3 {
		t.Fatalf("hosts = %d", len(c.hosts))
	}
	c.Start()
	sim.Run(80 * time.Millisecond)
	res := c.Result()
	if res.Offered < 45_000 || res.Offered > 55_000 {
		t.Fatalf("offered = %.0f", res.Offered)
	}
	if res.Achieved < 0.99*res.Offered {
		t.Fatalf("achieved %.0f of %.0f", res.Achieved, res.Offered)
	}
	if res.LossRate != 0 || res.NackRate != 0 || res.DupsSuppressed != 0 {
		t.Fatalf("loss/nack/dups: %+v", res)
	}
}

// TestClientTimeoutIsExact pins the expiry rule: an attempt expires
// exactly Timeout after it was sent, not at a later sweep. Requests go
// into a blackhole until 19ms with a 5ms timeout, so by 24.5ms every one
// of them has expired.
func TestClientTimeoutIsExact(t *testing.T) {
	for _, clients := range []int{1, 20_000} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			sim := simnet.New(14)
			net := simnet.NewNetwork(sim)
			blackhole := net.NewHost("blackhole", simnet.DefaultHostConfig()).Addr()
			c := NewClient(net, "client", simnet.DefaultHostConfig(), ClientConfig{
				Clients: clients, Rate: 10_000, Duration: 19 * time.Millisecond,
				Timeout: 5 * time.Millisecond,
				Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
					Unreplicated: true},
				Target: blackhole,
			})
			c.Start()
			sim.Run(24*time.Millisecond + 500*time.Microsecond)
			if c.Sent == 0 || c.Expired != c.Sent {
				t.Fatalf("expired %d of %d sent by the last deadline", c.Expired, c.Sent)
			}
		})
	}
}

// nackThenEchoServer NACKs the first copy of every request with a
// retry-after hint and answers retransmits, recording arrival times
// per request identity.
func nackThenEchoServer(net *simnet.Network, hint time.Duration) (simnet.Addr, map[r2p2.RequestID][]time.Duration) {
	h := net.NewHost("nackserver", simnet.DefaultHostConfig())
	reasm := r2p2.NewReassembler(time.Second)
	seen := map[r2p2.RequestID][]time.Duration{}
	h.SetHandler(func(pkt *simnet.Packet) {
		m, err := reasm.Ingest(pkt.Payload, uint32(pkt.Src), net.Sim().Now())
		if err != nil || m == nil || m.Type != r2p2.TypeRequest {
			return
		}
		seen[m.ID] = append(seen[m.ID], net.Sim().Now())
		if len(seen[m.ID]) == 1 {
			h.Send(&simnet.Packet{Dst: simnet.Addr(m.ID.SrcIP),
				Payload: r2p2.MakeNackHint(m.ID, r2p2.EncodeRetryAfter(hint))})
			return
		}
		for _, dg := range r2p2.MakeResponse(m.ID, []byte("ok"), 0) {
			h.Send(&simnet.Packet{Dst: simnet.Addr(m.ID.SrcIP), Payload: dg})
		}
	})
	return h.Addr(), seen
}

// TestClientNackRetryHonorsHint covers the hinted NACK retry for one
// endpoint and for 20 000 endpoints spread over two hosts, and pins the
// latency rule: a request is timed from its latest transmission, so the
// hinted wait before the answered retry stays out of the tail.
func TestClientNackRetryHonorsHint(t *testing.T) {
	const hint = time.Millisecond
	for _, clients := range []int{1, 20_000} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			sim := simnet.New(12)
			net := simnet.NewNetwork(sim)
			target, seen := nackThenEchoServer(net, hint)
			c := NewClient(net, "client", simnet.DefaultHostConfig(), ClientConfig{
				Clients: clients, Rate: 5_000, Warmup: 0, Duration: 20 * time.Millisecond,
				Timeout: 10 * time.Millisecond, Retries: 2, RetryBackoff: 2 * time.Millisecond,
				Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
					Unreplicated: true},
				Target: target, Port: 99,
			})
			c.Start()
			sim.Run(60 * time.Millisecond)
			res := c.Result()
			// Every request is NACKed once, then completes on the hinted retry.
			if res.Achieved < 0.95*res.Offered {
				t.Fatalf("achieved %.0f of %.0f", res.Achieved, res.Offered)
			}
			if res.NackRate < 0.95*res.Offered {
				t.Fatalf("nack rate %.0f of %.0f offered", res.NackRate, res.Offered)
			}
			if res.Retries == 0 {
				t.Fatal("no retransmissions recorded")
			}
			if res.Latency.P99 >= hint {
				t.Fatalf("p99 %v includes the %v NACK backoff: latency not timed from the answered attempt",
					res.Latency.P99, hint)
			}
			// The retransmit respects the retry-after floor and is jittered.
			gaps := map[time.Duration]int{}
			ips := map[uint32]bool{}
			for id, times := range seen {
				ips[id.SrcIP] = true
				if len(times) < 2 {
					continue
				}
				gap := times[1] - times[0]
				if gap < hint {
					t.Fatalf("request %v retried after %v < hint %v", id, gap, hint)
				}
				gaps[gap]++
			}
			if len(gaps) < 2 {
				t.Fatalf("retry gaps not jittered: %d distinct values", len(gaps))
			}
			if want := len(c.hosts); len(ips) != want {
				t.Fatalf("requests came from %d hosts, want %d", len(ips), want)
			}
		})
	}
}

// clientRun is one fixed-seed run against a NACK-then-echo server,
// exercising arrivals, endpoint selection, jittered backoff, and hinted
// retries.
func clientRun(seed int64, clients int) Result {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim)
	target, _ := nackThenEchoServer(net, 500*time.Microsecond)
	c := NewClient(net, "client", simnet.DefaultHostConfig(), ClientConfig{
		Clients: clients, Rate: 20_000,
		Warmup: 2 * time.Millisecond, Duration: 20 * time.Millisecond,
		Timeout: 5 * time.Millisecond, Retries: 3, RetryBackoff: time.Millisecond,
		Workload: &Synthetic{ServiceTime: Fixed(0), ReqSize: 24, ReplySize: 8,
			Unreplicated: true},
		Target: target,
	})
	c.Start()
	sim.Run(60 * time.Millisecond)
	return c.Result()
}

func TestClientJitterDeterministic(t *testing.T) {
	for _, clients := range []int{1, 5000} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			a, b := clientRun(42, clients), clientRun(42, clients)
			if a.Offered != b.Offered || a.Achieved != b.Achieved || a.NackRate != b.NackRate ||
				a.Retries != b.Retries || a.Latency != b.Latency {
				t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
			}
			c := clientRun(43, clients)
			if a.Offered == c.Offered && a.Latency.P99 == c.Latency.P99 && a.Retries == c.Retries {
				t.Fatal("different seeds produced identical runs — jitter not seeded?")
			}
		})
	}
}
