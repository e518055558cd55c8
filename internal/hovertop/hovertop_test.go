package hovertop

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hovercraft/internal/loadgen"
	"hovercraft/internal/obs"
	"hovercraft/internal/raft"
	"hovercraft/internal/simcluster"
	"hovercraft/internal/simnet"
)

func TestParseMetrics(t *testing.T) {
	in := `# HELP hovercraft_foo_total requests
# TYPE hovercraft_foo_total counter
hovercraft_foo_total{shard="0",stage="ingress"} 42
hovercraft_bar 3.5
hovercraft_esc{msg="a\"b\\c\nd"} 1

hovercraft_ts{x="y"} 7 1712345678
`
	samples, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	s := samples[0]
	if s.Name != "hovercraft_foo_total" || s.Value != 42 ||
		s.Label("shard") != "0" || s.Label("stage") != "ingress" {
		t.Errorf("sample 0 = %+v", s)
	}
	if samples[1].Name != "hovercraft_bar" || samples[1].Value != 3.5 || samples[1].Labels != nil {
		t.Errorf("sample 1 = %+v", samples[1])
	}
	if got := samples[2].Label("msg"); got != "a\"b\\c\nd" {
		t.Errorf("escaped label = %q", got)
	}
	if samples[3].Value != 7 {
		t.Errorf("timestamped sample = %+v", samples[3])
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"no_value_here\n",
		`bad{unterminated="x` + "\n",
		"name notanumber\n",
	} {
		if _, err := ParseMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("ParseMetrics(%q) accepted garbage", in)
		}
	}
}

// fakeScrape builds a two-node, two-shard fleet by hand to pin the
// merge semantics: counts sum, tails and burn take the worst node,
// the leader comes from is_leader at the highest term.
func fakeScrape(target string, nodeID int, leaderShards map[int]bool, p99 int64, burn float64) Scrape {
	var samples []Sample
	samples = append(samples,
		Sample{Name: famNodeID, Value: float64(nodeID)},
		Sample{Name: famShards, Value: 2},
	)
	for shard := 0; shard < 2; shard++ {
		lbl := map[string]string{"shard": fmt.Sprint(shard)}
		lead := 0.0
		if leaderShards[shard] {
			lead = 1
		}
		samples = append(samples,
			Sample{Name: famIsLeader, Labels: lbl, Value: lead},
			Sample{Name: famTerm, Labels: lbl, Value: 3},
			Sample{Name: famCommit, Labels: lbl, Value: 100},
			Sample{Name: famFsyncs, Labels: lbl, Value: 10},
			Sample{Name: famRxReq, Labels: lbl, Value: 400},
			Sample{Name: "hovercraft_net_udp_rx_dropped_total", Labels: lbl, Value: 2},
			Sample{Name: famAdmWindow, Labels: lbl, Value: float64(512 * nodeID)},
			Sample{Name: famAdmInflight, Labels: lbl, Value: float64(10 * nodeID)},
			Sample{Name: famAdmNacked, Labels: lbl, Value: 100},
			Sample{Name: famAdmAdmitted, Labels: lbl, Value: 1000},
			Sample{Name: famAdmBurn, Labels: lbl, Value: burn},
		)
		for _, stage := range []string{"ingress", "wal_sync"} {
			slbl := map[string]string{"shard": fmt.Sprint(shard), "stage": stage}
			samples = append(samples,
				Sample{Name: famWinCount, Labels: slbl, Value: 50},
				Sample{Name: famWinP99, Labels: slbl, Value: float64(p99)},
				Sample{Name: famSLOBurn, Labels: slbl, Value: burn},
			)
		}
	}
	return Scrape{Target: target, Samples: samples}
}

func TestMergeSemantics(t *testing.T) {
	scrapes := []Scrape{
		fakeScrape("n1:9001", 1, map[int]bool{0: true}, 8_000, 0.5),
		fakeScrape("n2:9002", 2, map[int]bool{1: true}, 12_000, 1.25),
		{Target: "n3:9003", Err: fmt.Errorf("connection refused")},
	}
	v := Merge(scrapes)
	if len(v.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(v.Nodes))
	}
	if v.Nodes[0].NodeID != 1 || !v.Nodes[0].Up || v.Nodes[0].Shards != 2 {
		t.Errorf("node 0 = %+v", v.Nodes[0])
	}
	if v.Nodes[2].Up || v.Nodes[2].Err == "" {
		t.Errorf("down node = %+v", v.Nodes[2])
	}
	if len(v.Groups) != 2 {
		t.Fatalf("groups = %d", len(v.Groups))
	}
	g0, g1 := v.Groups[0], v.Groups[1]
	if g0.Leader != "n1:9001" || g0.LeaderNode != 1 {
		t.Errorf("group 0 leader = %q node %d", g0.Leader, g0.LeaderNode)
	}
	if g1.Leader != "n2:9002" || g1.LeaderNode != 2 {
		t.Errorf("group 1 leader = %q node %d", g1.Leader, g1.LeaderNode)
	}
	if g0.Term != 3 || g0.Commit != 100 {
		t.Errorf("group 0 raft state = %+v", g0)
	}
	// fsyncs 10+10 over reqs 400+400 = 0.025; drops 2+2.
	if g0.FsyncPerReq != 0.025 {
		t.Errorf("fsync/req = %v", g0.FsyncPerReq)
	}
	if g0.Drops != 4 {
		t.Errorf("drops = %d", g0.Drops)
	}
	// Stages in pipeline order; counts summed, p99/burn take the max.
	if len(g0.Stages) != 2 || g0.Stages[0].Stage != "ingress" || g0.Stages[1].Stage != "wal_sync" {
		t.Fatalf("stages = %+v", g0.Stages)
	}
	st := g0.Stages[0]
	if st.Count != 100 || st.P99Ns != 12_000 || st.Burn != 1.25 {
		t.Errorf("merged stage = %+v", st)
	}
	// Admission: counters sum across nodes, gauges take the worst node.
	a := g0.Admission
	if a == nil {
		t.Fatal("no admission view merged")
	}
	if a.Nacked != 200 || a.Admitted != 2000 {
		t.Errorf("admission counters = %+v", a)
	}
	if a.Window != 1024 || a.Inflight != 20 || a.SignalBurn != 1.25 {
		t.Errorf("admission gauges = %+v", a)
	}
}

func TestMergeLeaderTieBreak(t *testing.T) {
	// A deposed leader still reporting is_leader at an older term must
	// lose to the node holding the newer term.
	stale := Scrape{Target: "old", Samples: []Sample{
		{Name: famIsLeader, Labels: map[string]string{"shard": "0"}, Value: 1},
		{Name: famTerm, Labels: map[string]string{"shard": "0"}, Value: 2},
	}}
	fresh := Scrape{Target: "new", Samples: []Sample{
		{Name: famIsLeader, Labels: map[string]string{"shard": "0"}, Value: 1},
		{Name: famTerm, Labels: map[string]string{"shard": "0"}, Value: 5},
	}}
	v := Merge([]Scrape{stale, fresh})
	if v.Groups[0].Leader != "new" {
		t.Errorf("leader = %q, want the higher-term node", v.Groups[0].Leader)
	}
	// And in either scrape order.
	v = Merge([]Scrape{fresh, stale})
	if v.Groups[0].Leader != "new" {
		t.Errorf("reversed order: leader = %q", v.Groups[0].Leader)
	}
}

func TestTargetURL(t *testing.T) {
	for _, tc := range [][2]string{
		{"127.0.0.1:9001", "http://127.0.0.1:9001/metrics"},
		{"http://127.0.0.1:9001", "http://127.0.0.1:9001/metrics"},
		{"http://127.0.0.1:9001/custom", "http://127.0.0.1:9001/custom"},
	} {
		if got := targetURL(tc[0]); got != tc[1] {
			t.Errorf("targetURL(%q) = %q, want %q", tc[0], got, tc[1])
		}
	}
}

// simFleet runs a fixed-seed simulated HovercRaft cluster with
// telemetry attached, then dresses each node in the same registry
// shape a real hovernode exposes and serves it over httptest — a
// deterministic stand-in for a live fleet.
func simFleet(t *testing.T, seed int64) ([]*httptest.Server, func()) {
	t.Helper()
	c := simcluster.New(simcluster.Options{
		Setup: simcluster.SetupHovercraft, Nodes: 3, Seed: seed,
		NewTelemetry: func(id raft.NodeID) *obs.Telemetry {
			return obs.NewTelemetry(nil, 10*time.Millisecond, 4)
		},
	})
	cfg := simnet.DefaultHostConfig()
	cl := loadgen.NewClient(c.Net, "client", cfg, loadgen.ClientConfig{
		Rate: 50_000, Warmup: 10 * time.Millisecond, Duration: 100 * time.Millisecond,
		Timeout: 50 * time.Millisecond,
		Workload: &loadgen.Synthetic{
			ServiceTime: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8,
		},
		Target: c.ServiceAddr, Port: 1000,
	})
	c.Start()
	cl.Start()
	c.Run(170 * time.Millisecond)

	var servers []*httptest.Server
	for _, n := range c.Nodes {
		n := n
		reg := obs.NewRegistry()
		reg.Gauge("node_id", func() float64 { return float64(n.ID) })
		reg.Gauge("shards", func() float64 { return 1 })
		sc := reg.Sub("shard0")
		sc.Gauge("raft.is_leader", func() float64 {
			if n.Engines[0].IsLeader() {
				return 1
			}
			return 0
		})
		sc.Gauge("raft.term", func() float64 { return float64(n.Engines[0].Node().Status().Term) })
		sc.Gauge("raft.commit_index", func() float64 { return float64(n.Engines[0].Node().Status().Commit) })
		sc.Gauge("raft.applied_index", func() float64 { return float64(n.Engines[0].Node().Status().Applied) })
		sc.CounterSet("engine", n.Engines[0].Counters())
		n.Tel.Register(sc)
		servers = append(servers, httptest.NewServer(obs.PromHandler(reg)))
	}
	return servers, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// fleetSnapshot scrapes a simFleet and returns the /metrics bytes of
// each node plus the merged hovertop JSON.
func fleetSnapshot(t *testing.T, seed int64) ([][]byte, []byte) {
	t.Helper()
	servers, stop := simFleet(t, seed)
	defer stop()
	targets := make([]string, len(servers))
	for i, s := range servers {
		targets[i] = s.URL
	}
	sc := NewScraper(targets, time.Second)
	var raw [][]byte
	for _, s := range servers {
		resp, err := sc.Client.Get(s.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		raw = append(raw, buf.Bytes())
	}
	v := sc.View()
	// The scrape targets embed ephemeral ports; blank them so the
	// snapshot compares pure cluster state across runs.
	for i := range v.Nodes {
		v.Nodes[i].Target = fmt.Sprintf("node%d", i)
	}
	for i := range v.Groups {
		if v.Groups[i].Leader != "" {
			for j, tgt := range targets {
				if v.Groups[i].Leader == tgt {
					v.Groups[i].Leader = fmt.Sprintf("node%d", j)
				}
			}
		}
	}
	js, err := v.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw, js
}

// TestGoldenDeterministicScrape is the end-to-end acceptance path:
// a fixed-seed simulated cluster must yield byte-identical /metrics
// expositions and byte-identical hovertop JSON run over run, and the
// merged view must actually contain the telemetry the fleet recorded.
func TestGoldenDeterministicScrape(t *testing.T) {
	rawA, jsA := fleetSnapshot(t, 7)
	rawB, jsB := fleetSnapshot(t, 7)
	for i := range rawA {
		if !bytes.Equal(rawA[i], rawB[i]) {
			t.Errorf("node %d /metrics differs between same-seed runs:\n--- A ---\n%s\n--- B ---\n%s",
				i, rawA[i], rawB[i])
		}
	}
	if !bytes.Equal(jsA, jsB) {
		t.Errorf("hovertop JSON differs between same-seed runs:\n--- A ---\n%s\n--- B ---\n%s", jsA, jsB)
	}

	// Structural checks on the snapshot itself.
	js := string(jsA)
	for _, want := range []string{
		`"stage": "engine"`,
		`"stage": "raft_step"`,
		`"leader": "node`,
		`"commit_index"`,
	} {
		if !strings.Contains(js, want) {
			t.Errorf("snapshot missing %s:\n%s", want, js)
		}
	}
	servers, stop := simFleet(t, 7)
	defer stop()
	targets := make([]string, len(servers))
	for i, s := range servers {
		targets[i] = s.URL
	}
	v := NewScraper(targets, time.Second).View()
	if len(v.Nodes) != 3 {
		t.Fatalf("aggregated %d nodes, want 3", len(v.Nodes))
	}
	for i, n := range v.Nodes {
		if !n.Up {
			t.Errorf("node %d down: %s", i, n.Err)
		}
	}
	if len(v.Groups) != 1 {
		t.Fatalf("groups = %d", len(v.Groups))
	}
	g := v.Groups[0]
	if g.Leader == "" {
		t.Error("no leader in merged view")
	}
	if g.Commit == 0 {
		t.Error("commit index not aggregated")
	}
	var engineCount uint64
	for _, st := range g.Stages {
		if st.Stage == "engine" {
			engineCount = st.Count
		}
	}
	if engineCount == 0 {
		t.Error("engine stage recorded no dispatches across the fleet")
	}
	var buf bytes.Buffer
	v.Render(&buf)
	if !strings.Contains(buf.String(), "3/3 nodes up") {
		t.Errorf("dashboard render:\n%s", buf.String())
	}
}

// TestScrapeDownTarget checks a dead endpoint degrades to a DOWN row
// rather than failing the round.
func TestScrapeDownTarget(t *testing.T) {
	sc := NewScraper([]string{"127.0.0.1:1"}, 200*time.Millisecond)
	v := sc.View()
	if len(v.Nodes) != 1 || v.Nodes[0].Up {
		t.Fatalf("view = %+v", v)
	}
	if v.Nodes[0].Err == "" {
		t.Error("down node carries no error")
	}
}
