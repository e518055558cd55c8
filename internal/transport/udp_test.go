package transport

import (
	"fmt"
	"net"
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
// newEphemeral binds an ephemeral loopback UDP socket.
func newEphemeral() (*net.UDPConn, error) {
	return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

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
	if _, err := NewServer(ServerConfig{
		ID: 1, Peers: map[uint32]string{1: "127.0.0.1:0"},
		Sockets: 2,
	}, &counterService{}); err == nil {
		t.Fatal("Sockets: 2 accepted; a node reads one socket")
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

// TestClientSweepTimesOutConcurrentCalls runs many calls at once
// against a peer that never answers: each attempt is expired by the
// client's sweeper, not a timer of its own, within Timeout + Timeout/16
// of its send, so every call fails with ErrTimeout after both attempts
// and no sooner than two timeouts; Close then waits for the sweeper.
func TestClientSweepTimesOutConcurrentCalls(t *testing.T) {
	silent, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer silent.Close()
	const timeout = 40 * time.Millisecond
	cl, err := Dial([]string{silent.LocalAddr().String()}, ClientOptions{Timeout: timeout, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(read bool) {
			defer wg.Done()
			t0 := time.Now()
			var err error
			if read {
				_, err = cl.CallRead([]byte("get"))
			} else {
				_, err = cl.Call([]byte("incr"), false)
			}
			el := time.Since(t0)
			if err != ErrTimeout {
				t.Errorf("call error = %v, want ErrTimeout", err)
			}
			// Two attempts, each expired by the sweep; write retries
			// also back off up to 2ms. The upper bound leaves room for
			// a loaded scheduler.
			if el < 2*timeout || el > 2*(timeout+timeout/16)+500*time.Millisecond {
				t.Errorf("call took %v, want about %v", el, 2*timeout)
			}
		}(i%2 == 0)
	}
	wg.Wait()
	cl.Close()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.waiting) != 0 {
		t.Fatalf("%d calls still registered after returning", len(cl.waiting))
	}
}

// TestUDPDurableEndToEnd runs a cluster on batch I/O with
// group-committed fsyncing WALs. Correctness must be indistinguishable
// from the volatile configuration, and every ack must be covered by a
// sync (no pending records while responses are observable).
func TestUDPDurableEndToEnd(t *testing.T) {
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
		eg, sys := nv["egress_datagrams"], nv["egress_syscalls"]
		if eg == 0 || sys == 0 || sys > eg {
			t.Fatalf("egress counters implausible: %d datagrams, %d syscalls", eg, sys)
		}
	}
}
