package hovercraft_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hovercraft"
)

// register is a linearizable register for public-API testing:
// "w:<v>" writes, "r" reads.
type register struct {
	mu sync.Mutex
	v  uint64
}

func (r *register) Apply(cmd []byte, readOnly bool) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(cmd) > 2 && cmd[0] == 'w' && !readOnly {
		r.v = binary.BigEndian.Uint64(cmd[2:])
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, r.v)
	return out
}

func freeUDP(t *testing.T) string {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.LocalAddr().String()
}

// freeUDPRange finds a base address whose ports base..base+n-1 are all
// free, as sharded nodes bind one port per shard at fixed offsets.
func freeUDPRange(t *testing.T, n int) string {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		base := freeUDP(t)
		host, portStr, err := net.SplitHostPort(base)
		if err != nil {
			t.Fatal(err)
		}
		port, err := net.LookupPort("udp", portStr)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		var held []*net.UDPConn
		for s := 0; s < n; s++ {
			c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.ParseIP(host), Port: port + s})
			if err != nil {
				ok = false
				break
			}
			held = append(held, c)
		}
		for _, c := range held {
			c.Close()
		}
		if ok {
			return base
		}
	}
	t.Fatal("no consecutive free UDP port range found")
	return ""
}

func startPublicCluster(t *testing.T, n int) ([]*hovercraft.Node, []string) {
	t.Helper()
	peers := make(map[uint32]string, n)
	var addrs []string
	for id := uint32(1); id <= uint32(n); id++ {
		a := freeUDP(t)
		peers[id] = a
		addrs = append(addrs, a)
	}
	var nodes []*hovercraft.Node
	for id := range peers {
		node, err := hovercraft.Start(hovercraft.Config{
			ID: id, Peers: peers,
			TickInterval:   2 * time.Millisecond,
			ElectionTicks:  20,
			HeartbeatTicks: 4,
		}, &register{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
	}
	nodes[0].Campaign()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, nd := range nodes {
			if nd.IsLeader() {
				return nodes, addrs
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader")
	return nil, nil
}

func TestPublicAPIEndToEnd(t *testing.T) {
	nodes, addrs := startPublicCluster(t, 3)
	cl, err := hovercraft.Dial(addrs, hovercraft.ClientOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	w := make([]byte, 10)
	w[0], w[1] = 'w', ':'
	for i := uint64(1); i <= 10; i++ {
		binary.BigEndian.PutUint64(w[2:], i*i)
		got, err := cl.Call(w, false)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if binary.BigEndian.Uint64(got) != i*i {
			t.Fatalf("write reply = %d", binary.BigEndian.Uint64(got))
		}
		// Linearizability spot check: a read after an acknowledged
		// write must observe it.
		got, err = cl.Call([]byte("r"), true)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if binary.BigEndian.Uint64(got) != i*i {
			t.Fatalf("stale read: %d, want %d", binary.BigEndian.Uint64(got), i*i)
		}
	}

	// Status is coherent.
	var leaders int
	for _, nd := range nodes {
		st := nd.Status()
		if st.Leader == 0 {
			t.Fatalf("node without leader: %+v", st)
		}
		if nd.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d", leaders)
	}
}

func TestPublicAPIFuncAdapter(t *testing.T) {
	calls := 0
	sm := hovercraft.Func(func(cmd []byte, ro bool) []byte {
		calls++
		return append([]byte("echo:"), cmd...)
	})
	if got := sm.Apply([]byte("x"), false); string(got) != "echo:x" {
		t.Fatalf("func adapter = %q", got)
	}
	if calls != 1 {
		t.Fatal("not called")
	}
}

func TestPublicAPISharded(t *testing.T) {
	const shards = 2
	// Sharded nodes bind port+s for every shard, so each peer needs a
	// run of consecutive free ports, not just one.
	peers := make(map[uint32]string, 3)
	var addrs []string
	for id := uint32(1); id <= 3; id++ {
		base := freeUDPRange(t, shards)
		peers[id] = base
		addrs = append(addrs, base)
	}
	var nodes []*hovercraft.Node
	for id := range peers {
		node, err := hovercraft.StartSharded(hovercraft.Config{
			ID: id, Peers: peers, Shards: shards,
			TickInterval:   2 * time.Millisecond,
			ElectionTicks:  20,
			HeartbeatTicks: 4,
		}, hovercraft.FactoryFunc(func(int) hovercraft.StateMachine { return &register{} }))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		if node.Shards() != shards {
			t.Fatalf("node serves %d shards, want %d", node.Shards(), shards)
		}
		nodes = append(nodes, node)
	}
	// Spread bootstrap leaderships round-robin: node index s%N campaigns
	// shard s.
	for s := 0; s < shards; s++ {
		nodes[s%len(nodes)].CampaignShard(s)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s := 0; s < shards; s++ {
		for {
			var led bool
			for _, nd := range nodes {
				if nd.IsShardLeader(s) {
					led = true
				}
			}
			if led {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: no leader", s)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	cl, err := hovercraft.DialSharded(addrs, shards, hovercraft.ClientOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Shards() != shards {
		t.Fatalf("client routes %d shards, want %d", cl.Shards(), shards)
	}

	// Each key's writes land on one group; a read of the same key must
	// observe the latest acknowledged write regardless of which shard
	// owns it.
	seen := make(map[int]bool)
	w := make([]byte, 10)
	w[0], w[1] = 'w', ':'
	for i := uint64(1); i <= 8; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		seen[cl.ShardFor(key)] = true
		binary.BigEndian.PutUint64(w[2:], i*7)
		if _, err := cl.CallKey(key, w, false); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := cl.CallKey(key, []byte("r"), true)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if binary.BigEndian.Uint64(got) != i*7 {
			t.Fatalf("stale read: %d, want %d", binary.BigEndian.Uint64(got), i*7)
		}
	}
	if len(seen) != shards {
		t.Fatalf("keys routed to %d of %d shards", len(seen), shards)
	}
	// Per-shard status is coherent and shard-0 compat methods still work.
	for s := 0; s < shards; s++ {
		var leaders int
		for _, nd := range nodes {
			if nd.ShardStatus(s).Leader == 0 {
				t.Fatalf("shard %d: node without leader", s)
			}
			if nd.IsShardLeader(s) {
				leaders++
			}
		}
		if leaders != 1 {
			t.Fatalf("shard %d: leaders = %d", s, leaders)
		}
	}
	for _, nd := range nodes {
		if nd.Status() != nd.ShardStatus(0) {
			t.Fatal("Status() is not shard 0's status")
		}
	}
}

func TestPublicAPIShardsRequireFactory(t *testing.T) {
	_, err := hovercraft.Start(hovercraft.Config{
		ID: 1, Peers: map[uint32]string{1: "127.0.0.1:0"}, Shards: 2,
	}, &register{})
	if err == nil {
		t.Fatal("Start accepted Shards > 1")
	}
}

func TestPublicAPIConcurrentClients(t *testing.T) {
	_, addrs := startPublicCluster(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := hovercraft.Dial(addrs, hovercraft.ClientOptions{Timeout: time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			w := make([]byte, 10)
			w[0], w[1] = 'w', ':'
			for i := 0; i < 10; i++ {
				binary.BigEndian.PutUint64(w[2:], uint64(c*100+i))
				if _, err := cl.Call(w, false); err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// kvMachine is a deterministic map for restart tests: "k=v" sets k and
// replies v, "k" replies k's value.
type kvMachine struct{ m map[string]string }

func (k *kvMachine) Apply(cmd []byte, readOnly bool) []byte {
	key, val, set := strings.Cut(string(cmd), "=")
	if set && !readOnly {
		k.m[key] = val
	}
	return []byte(k.m[key])
}

// TestPublicAPIDurableRestart takes a whole Config.Dir cluster down and
// restarts it through hovercraft.Start on the same directories: every
// acknowledged write must be read back from the recovered logs.
func TestPublicAPIDurableRestart(t *testing.T) { testDurableRestart(t, 1) }

// TestPublicAPIDurableRestartSharded does the same through StartSharded
// with two groups, each logging under its own shard directory.
func TestPublicAPIDurableRestartSharded(t *testing.T) { testDurableRestart(t, 2) }

func testDurableRestart(t *testing.T, shards int) {
	peers := make(map[uint32]string, 3)
	dirs := make(map[uint32]string, 3)
	var addrs []string
	for id := uint32(1); id <= 3; id++ {
		peers[id] = freeUDPRange(t, shards)
		dirs[id] = t.TempDir()
		addrs = append(addrs, peers[id])
	}
	start := func() []*hovercraft.Node {
		var nodes []*hovercraft.Node
		for id := uint32(1); id <= 3; id++ {
			cfg := hovercraft.Config{
				ID: id, Peers: peers, Dir: dirs[id],
				TickInterval:   2 * time.Millisecond,
				ElectionTicks:  20,
				HeartbeatTicks: 4,
			}
			var node *hovercraft.Node
			var err error
			if shards == 1 {
				node, err = hovercraft.Start(cfg, &kvMachine{m: map[string]string{}})
			} else {
				cfg.Shards = shards
				node, err = hovercraft.StartSharded(cfg, hovercraft.FactoryFunc(func(int) hovercraft.StateMachine {
					return &kvMachine{m: map[string]string{}}
				}))
			}
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node)
		}
		for s := 0; s < shards; s++ {
			nodes[s%len(nodes)].CampaignShard(s)
		}
		return nodes
	}
	closeAll := func(nodes []*hovercraft.Node) {
		for _, nd := range nodes {
			if err := nd.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	}
	dial := func() *hovercraft.ShardedClient {
		cl, err := hovercraft.DialSharded(addrs, shards, hovercraft.ClientOptions{Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	call := func(cl *hovercraft.ShardedClient, cmd string, readOnly bool) ([]byte, error) {
		key, _, _ := strings.Cut(cmd, "=")
		return cl.CallKey([]byte(key), []byte(cmd), readOnly)
	}

	nodes := start()
	cl := dial()
	acked := map[string]string{}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; len(acked) < 20 && time.Now().Before(deadline); i++ {
		key, val := fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i*i)
		if got, err := call(cl, key+"="+val, false); err == nil && string(got) == val {
			acked[key] = val
		}
	}
	cl.Close()
	closeAll(nodes)
	if len(acked) < 15 {
		t.Fatalf("only %d writes acknowledged before the restart", len(acked))
	}

	nodes = start()
	defer closeAll(nodes)
	cl = dial()
	defer cl.Close()
	for key, want := range acked {
		var got []byte
		var err error
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if got, err = call(cl, key, true); err == nil && string(got) == want {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil || string(got) != want {
			t.Fatalf("after restart %s = %q, %v; want %q", key, got, err, want)
		}
	}
}
