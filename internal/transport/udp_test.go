package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/raft"
)

// counterService is a deterministic state machine: "incr" bumps a
// counter and returns it; "get" (read-only) returns it.
type counterService struct {
	mu sync.Mutex
	n  int64
}

func (c *counterService) Execute(payload []byte, readOnly bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(payload) == "incr" && !readOnly {
		c.n++
	}
	return []byte(fmt.Sprintf("%d", c.n))
}

var _ app.Service = (*counterService)(nil)

// freePorts grabs n distinct loopback UDP ports.
func freePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		// Bind port 0, record, release. Tiny race window is acceptable
		// in tests.
		c, err := newEphemeral()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = c.LocalAddr().String()
		c.Close()
	}
	return addrs
}

func startCluster(t testing.TB, mode core.Mode, n int) ([]*Server, map[uint32]string, func()) {
	t.Helper()
	return startClusterWith(t, mode, n, nil)
}

// startClusterWith is startCluster with a hook that adjusts every node's
// config before it starts.
func startClusterWith(t testing.TB, mode core.Mode, n int, tweak func(*ServerConfig)) ([]*Server, map[uint32]string, func()) {
	t.Helper()
	ports := freePorts(t, n+1)
	peers := make(map[uint32]string, n)
	for i := 0; i < n; i++ {
		peers[uint32(i+1)] = ports[i]
	}
	var aggAddr string
	var agg *AggregatorServer
	if mode == core.ModeHovercraftPP {
		var err error
		agg, err = NewAggregatorServer(ports[n], peers)
		if err != nil {
			t.Fatal(err)
		}
		aggAddr = agg.Addr().String()
	}
	var servers []*Server
	for id := uint32(1); id <= uint32(n); id++ {
		cfg := ServerConfig{
			ID: id, Peers: peers, Mode: mode, Aggregator: aggAddr,
			TickInterval: 2 * time.Millisecond,
			// Fast elections for tests.
			ElectionTicks: 20, HeartbeatTicks: 4,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		s, err := NewServer(cfg, &counterService{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	servers[0].Campaign()
	waitForLeader(t, servers)
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
		if agg != nil {
			agg.Close()
		}
	}
	return servers, peers, cleanup
}

func waitForLeader(t testing.TB, servers []*Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range servers {
			if s.IsLeader() {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected over UDP")
}

func dialCluster(t testing.TB, peers map[uint32]string) *Client {
	t.Helper()
	var addrs []string
	for _, a := range peers {
		addrs = append(addrs, a)
	}
	cl, err := Dial(addrs, ClientOptions{Timeout: time.Second, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestUDPHovercraftEndToEnd(t *testing.T) {
	servers, peers, cleanup := startCluster(t, core.ModeHovercraft, 3)
	defer cleanup()
	cl := dialCluster(t, peers)
	defer cl.Close()

	for i := 1; i <= 20; i++ {
		got, err := cl.Call([]byte("incr"), false)
		if err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
		if string(got) != fmt.Sprintf("%d", i) {
			t.Fatalf("incr %d = %q", i, got)
		}
	}
	// Linearizable read.
	got, err := cl.Call([]byte("get"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "20" {
		t.Fatalf("get = %q", got)
	}
	// Every replica applied all writes.
	deadline := time.Now().Add(2 * time.Second)
	for _, s := range servers {
		for time.Now().Before(deadline) && s.Status().Applied < 21 {
			time.Sleep(5 * time.Millisecond)
		}
		if st := s.Status(); st.Applied < 21 {
			t.Fatalf("replica applied only %d", st.Applied)
		}
	}
	// The expvar snapshot must be coherent while the loops run.
	var sawLeader bool
	for _, s := range servers {
		dv := s.DebugVars()
		if dv["counters"].(map[string]uint64)["rx_req"] == 0 && dv["is_leader"].(bool) {
			t.Fatal("leader DebugVars shows no requests")
		}
		if dv["is_leader"].(bool) {
			sawLeader = true
		}
	}
	if !sawLeader {
		t.Fatal("no server reports leadership in DebugVars")
	}
}

func TestUDPVanillaEndToEnd(t *testing.T) {
	_, peers, cleanup := startCluster(t, core.ModeVanilla, 3)
	defer cleanup()
	cl := dialCluster(t, peers)
	defer cl.Close()
	for i := 1; i <= 5; i++ {
		got, err := cl.Call([]byte("incr"), false)
		if err != nil {
			t.Fatalf("incr: %v", err)
		}
		if string(got) != fmt.Sprintf("%d", i) {
			t.Fatalf("incr %d = %q", i, got)
		}
	}
}

func TestUDPHovercraftPPEndToEnd(t *testing.T) {
	servers, peers, cleanup := startCluster(t, core.ModeHovercraftPP, 3)
	defer cleanup()
	cl := dialCluster(t, peers)
	defer cl.Close()
	for i := 1; i <= 10; i++ {
		if _, err := cl.Call([]byte("incr"), false); err != nil {
			t.Fatalf("incr: %v", err)
		}
	}
	got, err := cl.Call([]byte("get"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "10" {
		t.Fatalf("get = %q", got)
	}
	_ = servers
}

func TestUDPLeaderFailover(t *testing.T) {
	servers, peers, cleanup := startCluster(t, core.ModeHovercraft, 3)
	defer cleanup()
	cl := dialCluster(t, peers)
	defer cl.Close()
	if _, err := cl.Call([]byte("incr"), false); err != nil {
		t.Fatal(err)
	}
	// Kill the leader.
	var dead *Server
	for _, s := range servers {
		if s.IsLeader() {
			dead = s
			break
		}
	}
	if dead == nil {
		t.Fatal("no leader")
	}
	dead.Close()
	var live []*Server
	for _, s := range servers {
		if s != dead {
			live = append(live, s)
		}
	}
	waitForLeader(t, live)
	// The cluster still serves (retries cover the election window).
	got, err := cl.Call([]byte("incr"), false)
	if err != nil {
		t.Fatalf("post-failover call: %v", err)
	}
	if string(got) != "2" {
		t.Fatalf("post-failover = %q", got)
	}
}

func TestUDPServerConfigErrors(t *testing.T) {
	if _, err := NewServer(ServerConfig{ID: 9, Peers: map[uint32]string{1: "127.0.0.1:0"}}, &counterService{}); err == nil {
		t.Fatal("missing self accepted")
	}
	if _, err := NewServer(ServerConfig{
		ID: 1, Peers: map[uint32]string{1: "127.0.0.1:0"},
		Mode: core.ModeHovercraftPP,
	}, &counterService{}); err == nil {
		t.Fatal("H++ without aggregator accepted")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("no peers accepted")
	}
	if _, err := Dial([]string{"not a host:xx"}); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestUDPMultiSocketDurableEndToEnd runs a cluster on the full new data
// plane: multi-socket reuseport ingress, batch I/O, and group-committed
// fsyncing WALs. Correctness must be indistinguishable from the default
// configuration, and every ack must be covered by a sync (no pending
// records while responses are observable).
func TestUDPMultiSocketDurableEndToEnd(t *testing.T) {
	ports := freePorts(t, 3)
	peers := make(map[uint32]string, 3)
	for i := 0; i < 3; i++ {
		peers[uint32(i+1)] = ports[i]
	}
	var servers []*Server
	var stores []*raft.FileStorage
	for id := uint32(1); id <= 3; id++ {
		fs, _, err := raft.OpenFileStorage(t.TempDir(), true)
		if err != nil {
			t.Fatal(err)
		}
		fs.GroupCommit(64, 0)
		stores = append(stores, fs)
		s, err := NewServer(ServerConfig{
			ID: id, Peers: peers, Mode: core.ModeHovercraft,
			Storage:       fs,
			Sockets:       2,
			TickInterval:  2 * time.Millisecond,
			ElectionTicks: 20, HeartbeatTicks: 4,
		}, &counterService{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	servers[0].Campaign()
	waitForLeader(t, servers)
	cl := dialCluster(t, peers)
	defer cl.Close()

	for i := 1; i <= 50; i++ {
		got, err := cl.Call([]byte("incr"), false)
		if err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
		if string(got) != fmt.Sprintf("%d", i) {
			t.Fatalf("incr %d = %q", i, got)
		}
	}
	// The response for request 50 was released by an egress flush, and
	// every flush syncs the WAL first: the leader can have no pending
	// records for acked appends.
	if p := stores[0].PendingRecords(); p != 0 {
		// Another client request can't be in flight; only a tick-path
		// heartbeat append could race here, and those don't stage.
		t.Fatalf("leader WAL has %d pending records after acked calls", p)
	}
	for i, fs := range stores {
		if fs.SyncCount() == 0 {
			t.Fatalf("store %d never fsynced", i)
		}
		if fs.SyncCount() > fs.DurableRecords() {
			t.Fatalf("store %d: %d fsyncs for %d records — group commit not amortizing",
				i, fs.SyncCount(), fs.DurableRecords())
		}
	}
	nv := servers[0].NetStats()
	if batchIOSupported {
		if nv["sockets"] != 2 {
			t.Fatalf("leader reports %d sockets, want 2", nv["sockets"])
		}
		eg, sys := nv["egress_datagrams"], nv["egress_syscalls"]
		if eg == 0 || sys == 0 || sys > eg {
			t.Fatalf("egress counters implausible: %d datagrams, %d syscalls", eg, sys)
		}
	}
}

// TestUDPMultiCoreEndToEnd runs a cluster with four per-core loops per
// node. The kernel's reuseport hash spreads the remote endpoints over
// the sockets, so some consensus and client traffic lands on
// non-owner cores and must reach the engine through the mailbox path —
// with no loss of correctness and full per-core accounting.
func TestUDPMultiCoreEndToEnd(t *testing.T) {
	ports := freePorts(t, 3)
	peers := make(map[uint32]string, 3)
	for i := 0; i < 3; i++ {
		peers[uint32(i+1)] = ports[i]
	}
	var servers []*Server
	for id := uint32(1); id <= 3; id++ {
		s, err := NewServer(ServerConfig{
			ID: id, Peers: peers, Mode: core.ModeHovercraft,
			Cores:         4,
			Affinity:      int(id), // owner core differs per node
			TickInterval:  2 * time.Millisecond,
			ElectionTicks: 20, HeartbeatTicks: 4,
		}, &counterService{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	servers[0].Campaign()
	waitForLeader(t, servers)
	cl := dialCluster(t, peers)
	defer cl.Close()

	for i := 1; i <= 50; i++ {
		got, err := cl.Call([]byte("incr"), false)
		if err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
		if string(got) != fmt.Sprintf("%d", i) {
			t.Fatalf("incr %d = %q", i, got)
		}
	}
	got, err := cl.Call([]byte("get"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "50" {
		t.Fatalf("get = %q", got)
	}

	if !batchIOSupported {
		// The fallback plane collapses to one socket; there is nothing
		// to hand off.
		return
	}
	var handoffIn, handoffOut, drops uint64
	for _, s := range servers {
		nv := s.NetStats()
		if nv["cores"] != 4 {
			t.Fatalf("server reports %d cores, want 4", nv["cores"])
		}
		dv := s.DebugVars()
		cores, ok := dv["cores"].(map[string]interface{})
		if !ok {
			t.Fatalf("DebugVars cores has type %T", dv["cores"])
		}
		if len(cores) != 4 {
			t.Fatalf("DebugVars shows %d cores, want 4", len(cores))
		}
		for _, v := range cores {
			c, ok := v.(map[string]uint64)
			if !ok {
				t.Fatalf("core snapshot has type %T", v)
			}
			handoffIn += c["handoff_in"]
			handoffOut += c["handoff_out"]
			drops += c["handoff_drops"]
		}
	}
	// Each node sees >=3 remote endpoints hashed over 4 sockets; the odds
	// that every endpoint of every node lands on its owner core are
	// astronomically small.
	if handoffOut == 0 {
		t.Fatal("no datagram ever crossed a core: mailbox path unexercised")
	}
	// Drains may trail pushes by the datagrams in flight right now, but
	// can never exceed them — and traffic this old cannot all be in
	// flight, so the drain side must have moved.
	if handoffIn == 0 || handoffIn > handoffOut {
		t.Fatalf("handoff accounting skewed: %d out, %d in", handoffOut, handoffIn)
	}
	if drops != 0 {
		t.Fatalf("%d handoff drops at test load", drops)
	}
}
