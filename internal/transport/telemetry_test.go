package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hovercraft/internal/core"
	"hovercraft/internal/obs"
)

// TestUDPTelemetryMetrics drives a live 3-node UDP cluster, then checks
// that the always-on telemetry plane captured per-stage queue delays
// and that the registry renders them as Prometheus series — the
// acceptance path for /metrics on a real node.
func TestUDPTelemetryMetrics(t *testing.T) {
	servers, peers, cleanup := startCluster(t, core.ModeHovercraft, 3)
	defer cleanup()
	cl := dialCluster(t, peers)
	defer cl.Close()

	for i := 1; i <= 30; i++ {
		if _, err := cl.Call([]byte("incr"), false); err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
	}

	reg := obs.NewRegistry()
	for i, s := range servers {
		if s.Telemetry() == nil {
			t.Fatal("telemetry should be on by default")
		}
		s.RegisterMetrics(reg.Sub(fmt.Sprintf("shard%d", i)))
	}

	// Every node read datagrams off its socket and stepped raft.
	var leader *Server
	for i, s := range servers {
		if s.IsLeader() {
			leader = s
		}
		if n := s.Telemetry().Window(obs.QIngress).Count; n == 0 {
			t.Errorf("server %d: no ingress telemetry", i)
		}
		if n := s.Telemetry().Window(obs.QEngine).Count; n == 0 {
			t.Errorf("server %d: no engine telemetry", i)
		}
		if n := s.Telemetry().Window(obs.QEgress).Count; n == 0 {
			t.Errorf("server %d: no egress telemetry", i)
		}
	}
	if leader == nil {
		t.Fatal("no leader")
	}
	if n := leader.Telemetry().Window(obs.QRaftStep).Count; n == 0 {
		t.Error("leader recorded no raft_step telemetry")
	}
	if n := leader.Telemetry().Window(obs.QService).Count; n == 0 {
		t.Error("leader recorded no service telemetry")
	}
	if n := leader.Telemetry().Window(obs.QApplyQueue).Count; n == 0 {
		t.Error("leader recorded no apply_queue telemetry")
	}

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hovercraft_qdelay_window_p99_ns{shard="0",stage="ingress"}`,
		`hovercraft_qdelay_slo_burn{shard="1",stage="engine"}`,
		`hovercraft_raft_is_leader{shard="2"}`,
		`hovercraft_net_ingress_datagrams_total{shard="0"}`,
		`hovercraft_engine_rx_req_total{shard="0"}`,
		`hovercraft_net_udp_rx_dropped_total{shard="1"}`,
		`hovercraft_uptime_seconds{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
