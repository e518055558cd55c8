package obs

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"hovercraft/internal/stats"
)

func buildPromTestRegistry() *Registry {
	reg := NewRegistry()
	s0 := reg.Sub("shard0")
	s1 := reg.Sub("shard1")
	s0.Counter("net.rx_datagrams", func() uint64 { return 100 })
	s1.Counter("net.rx_datagrams", func() uint64 { return 200 })
	s0.Gauge("raft.is_leader", func() float64 { return 1 })
	s1.Gauge("raft.is_leader", func() float64 { return 0 })
	h := stats.NewHistogram()
	h.Record(int64(50 * time.Microsecond))
	s0.Histogram("latency.total", h)
	var now time.Duration
	tel := NewTelemetry(testClock(&now), 0, 0)
	tel.Record(QIngress, 10*time.Microsecond)
	tel.Record(QWalSync, 800*time.Microsecond)
	tel.Register(s0)
	cs := stats.NewCounterSet()
	cs.Get("tx_drops").Add(3)
	cs.Describe("tx_described", "A counter with help text.")
	s1.CounterSet("net", cs)
	return reg
}

func TestPromExposition(t *testing.T) {
	reg := buildPromTestRegistry()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		// Topology components become labels; same family across shards.
		`hovercraft_net_rx_datagrams_total{shard="0"} 100`,
		`hovercraft_net_rx_datagrams_total{shard="1"} 200`,
		`hovercraft_raft_is_leader{shard="0"} 1`,
		`hovercraft_raft_is_leader{shard="1"} 0`,
		// Distribution: last component is the stage label.
		`# TYPE hovercraft_latency_ns summary`,
		`hovercraft_latency_ns{shard="0",stage="total",quantile="0.5"}`,
		`hovercraft_latency_ns_count{shard="0",stage="total"} 1`,
		// Window gauges per stage.
		`# TYPE hovercraft_qdelay_window_p99_ns gauge`,
		`hovercraft_qdelay_window_p99_ns{shard="0",stage="ingress"}`,
		`hovercraft_qdelay_window_count{shard="0",stage="wal_sync"} 1`,
		`hovercraft_qdelay_slo_burn{shard="0",stage="wal_sync"} 100`,
		// Cumulative summary from the window's never-reset total.
		`hovercraft_qdelay_ns_count{shard="0",stage="ingress"} 1`,
		// Lazily-populated CounterSet resolved at scrape time.
		`hovercraft_net_tx_drops_total{shard="1"} 3`,
		// Described counters are exported while zero, under a HELP line.
		"# HELP hovercraft_net_tx_described_total A counter with help text.\n" +
			"# TYPE hovercraft_net_tx_described_total counter\n" +
			`hovercraft_net_tx_described_total{shard="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	if strings.Contains(out, "# TYPE hovercraft_latency_ns_count") {
		t.Error("summary companion _count got its own TYPE line")
	}
}

// TestPromDeterministic renders the same registry twice and demands
// byte-identical output (sorted families, sorted series).
func TestPromDeterministic(t *testing.T) {
	reg := buildPromTestRegistry()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, reg); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same registry differ")
	}
}

func TestPromNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

func TestPromSplit(t *testing.T) {
	cases := []struct {
		in     string
		dist   bool
		fam    string
		labels string
	}{
		{"shard0.qdelay.ingress", true, "qdelay", `shard="0",stage="ingress"`},
		{"shard12.net.rx_datagrams", false, "net_rx_datagrams", `shard="12"`},
		{"node3.group1.wal.fsyncs", false, "wal_fsyncs", `group="1",node="3"`},
		{"latency.total", true, "latency", `stage="total"`},
		{"uptime_seconds", false, "uptime_seconds", ""},
		{"qdelay", true, "qdelay", ""},
	}
	for _, c := range cases {
		fam, labels := promSplit(c.in, c.dist)
		if fam != c.fam || labels != c.labels {
			t.Errorf("promSplit(%q,%v) = (%q,%q), want (%q,%q)",
				c.in, c.dist, fam, labels, c.fam, c.labels)
		}
	}
}

func TestPromHandler(t *testing.T) {
	reg := buildPromTestRegistry()
	h := PromHandler(reg)
	rec := &promRecorder{header: http.Header{}}
	h.ServeHTTP(rec, nil)
	if got := rec.header["Content-Type"][0]; !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", got)
	}
	if !strings.Contains(rec.body.String(), "hovercraft_") {
		t.Fatal("handler wrote no metrics")
	}
}

// promRecorder is a minimal ResponseWriter (avoids importing httptest
// into the obs package tests).
type promRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *promRecorder) Header() http.Header         { return r.header }
func (r *promRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *promRecorder) WriteHeader(code int)        { r.code = code }
