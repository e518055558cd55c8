package harness

import (
	"strings"
	"testing"
	"time"

	"hovercraft/internal/loadgen"
	"hovercraft/internal/r2p2"
)

// tinyScale keeps harness tests fast while still exercising the full
// cluster/measure/report pipeline.
func tinyScale() Scale {
	return Scale{Warmup: 3 * time.Millisecond, Duration: 10 * time.Millisecond, Points: 2, Seed: 1}
}

func TestRunDispatchAndUnknown(t *testing.T) {
	if _, err := Run("nope", tinyScale()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range Experiments() {
		if id == "fig12" || id == "fig9" || id == "fig8" || id == "shardscale" || id == "failover" {
			continue // long even at tiny scale; covered by bench_test / dedicated tests
		}
		rep, err := Run(id, tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := rep.Render()
		if !strings.Contains(out, strings.ToUpper(id)) {
			t.Fatalf("%s render missing header:\n%s", id, out[:200])
		}
	}
}

func TestRunPointMeasuresSanely(t *testing.T) {
	wl := SyntheticSpec{Service: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8}
	res := RunPoint(Hovercraft(3), wl, 100_000, RunConfig{
		Seed: 5, Warmup: 5 * time.Millisecond, Duration: 20 * time.Millisecond, Clients: 2,
	})
	p := res.Point
	if p.OfferedKRPS < 80 || p.OfferedKRPS > 120 {
		t.Fatalf("offered = %v", p)
	}
	if p.AchievedKRPS < 0.95*p.OfferedKRPS {
		t.Fatalf("achieved = %v", p)
	}
	if p.P99 < p.P50 || p.P50 <= 0 {
		t.Fatalf("latency summary inconsistent: %v", p)
	}
	if res.Cluster.LeaderOf(0) == nil {
		t.Fatal("no leader after run")
	}
	if res.Hist.Count() == 0 {
		t.Fatal("no samples merged")
	}
}

func TestMaxUnderSLO(t *testing.T) {
	c := Curve{Points: []Point{
		{OfferedKRPS: 100, AchievedKRPS: 100, P99: 100 * time.Microsecond},
		{OfferedKRPS: 200, AchievedKRPS: 200, P99: 400 * time.Microsecond},
		{OfferedKRPS: 300, AchievedKRPS: 300, P99: 900 * time.Microsecond}, // over SLO
		{OfferedKRPS: 400, AchievedKRPS: 250, P99: 100 * time.Microsecond}, // not keeping up
	}}
	if got := c.MaxUnderSLO(SLO); got != 200 {
		t.Fatalf("max under SLO = %v", got)
	}
	if got := (Curve{}).MaxUnderSLO(SLO); got != 0 {
		t.Fatalf("empty curve = %v", got)
	}
}

func TestSweepRates(t *testing.T) {
	rates := SweepRates(1000, 5)
	if len(rates) != 5 {
		t.Fatalf("len = %d", len(rates))
	}
	if rates[0] != 300 || rates[4] != 1000 {
		t.Fatalf("endpoints = %v", rates)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("not increasing: %v", rates)
		}
		// Denser near the top.
		if i >= 2 && rates[i]-rates[i-1] > rates[i-1]-rates[i-2] {
			t.Fatalf("not concentrating near cap: %v", rates)
		}
	}
	if got := SweepRates(500, 1); len(got) != 1 || got[0] != 500 {
		t.Fatalf("single point = %v", got)
	}
	if got := Linspace(0, 10, 3); got[1] != 5 {
		t.Fatalf("linspace = %v", got)
	}
}

func TestConsensusPayloadClassifier(t *testing.T) {
	if consensusPayload([]byte{1, 2}) {
		t.Fatal("short payload classified as consensus")
	}
	raftDG := r2p2.MakeMsg(r2p2.TypeRaftReq, 0, 1, 1, []byte("x"), 0)[0]
	if !consensusPayload(raftDG) {
		t.Fatal("raft datagram not classified as consensus")
	}
	respDG := r2p2.MakeResponse(r2p2.RequestID{}, []byte("reply"), 0)[0]
	if consensusPayload(respDG) {
		t.Fatal("client reply classified as consensus")
	}
}

func TestAsciiPlotRenders(t *testing.T) {
	c := []Curve{{Label: "sys", Points: []Point{
		{AchievedKRPS: 100, P99: 50 * time.Microsecond},
		{AchievedKRPS: 500, P99: 2 * time.Millisecond}, // beyond cap: clamped
	}}}
	out := AsciiPlot(c, 1000)
	if !strings.Contains(out, "sys") || !strings.Contains(out, "achieved kRPS") {
		t.Fatalf("plot missing parts:\n%s", out)
	}
}

func TestWorkloadSpecDescribe(t *testing.T) {
	s := SyntheticSpec{Service: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8}
	if !strings.Contains(s.Describe(), "24B") {
		t.Fatalf("describe = %q", s.Describe())
	}
	y := &YCSBESpec{Records: 10}
	if !strings.Contains(y.Describe(), "YCSB-E") {
		t.Fatalf("describe = %q", y.Describe())
	}
	if len(y.Preload()) != 10 {
		t.Fatalf("preload = %d", len(y.Preload()))
	}
}
