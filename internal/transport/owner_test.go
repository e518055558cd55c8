package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"hovercraft/internal/core"
	"hovercraft/internal/r2p2"
)

// startLone starts a one-node cluster at the given tick, not yet
// elected.
func startLone(t *testing.T, tick time.Duration) *Server {
	t.Helper()
	s, err := NewServer(ServerConfig{
		ID: 1, Peers: map[uint32]string{1: freePorts(t, 1)[0]},
		Mode: core.ModeHovercraft, TickInterval: tick,
	}, &counterService{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// within fails the test unless fn returns within d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestCampaignConcurrentRunsOnOwner calls Campaign from four
// goroutines at once. Every call must return, and under -race a
// Campaign that steps the engine anywhere but on the owner is reported.
func TestCampaignConcurrentRunsOnOwner(t *testing.T) {
	s := startLone(t, time.Millisecond)
	defer s.Close()
	within(t, 10*time.Second, "concurrent Campaign", func() {
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					s.Campaign()
				}
			}()
		}
		wg.Wait()
	})
	if !s.IsLeader() {
		t.Fatal("a lone node is not leader after Campaign")
	}
}

func TestCampaignOnClosedServerReturns(t *testing.T) {
	s := startLone(t, time.Millisecond)
	s.Close()
	within(t, 2*time.Second, "Campaign on a closed server", s.Campaign)
}

// TestCampaignWaitsAtMostATick: nothing wakes the owner early, so a
// Campaign runs at the owner's next tick — at a 20ms tick it returns
// within one tick plus scheduling slack, not a tick per pass or never.
func TestCampaignWaitsAtMostATick(t *testing.T) {
	const tick = 20 * time.Millisecond
	s := startLone(t, tick)
	defer s.Close()
	t0 := time.Now()
	s.Campaign()
	if d := time.Since(t0); d > 3*tick {
		t.Fatalf("Campaign took %v at a %v tick", d, tick)
	}
	if !s.IsLeader() {
		t.Fatal("a lone node is not leader when Campaign returns")
	}
}

// TestTickClockCadence: the due time is absolute and moves only when a
// tick runs, so the owner's armed read deadline stays valid between
// ticks; an overdue tick reads as a due time already past.
func TestTickClockCadence(t *testing.T) {
	const ms = time.Millisecond
	c := tickClock{every: 10 * ms, next: 10 * ms}
	if c.due(4 * ms) {
		t.Fatal("ticked before the due time")
	}
	if c.next != 10*ms {
		t.Fatalf("due time moved between ticks: %v", c.next)
	}
	if !c.due(12 * ms) {
		t.Fatal("no tick after the due time")
	}
	if c.next != 22*ms {
		t.Fatalf("due time after a tick at 12ms = %v, want 22ms", c.next)
	}
	if now := 100 * ms; c.next >= now {
		t.Fatalf("overdue due time %v is not in the past at %v", c.next, now)
	}
	if !c.due(100*ms) || c.next != 110*ms {
		t.Fatalf("overdue tick: next = %v, want 110ms", c.next)
	}
}

// loneFragment is the first of two fragments of a message no second
// fragment will complete.
func loneFragment(t *testing.T, typ r2p2.MessageType) []byte {
	t.Helper()
	frags := r2p2.MakeMsg(typ, 0, 1, 7, make([]byte, 64), 32)
	if len(frags) != 2 {
		t.Fatalf("%d fragments, want 2", len(frags))
	}
	return frags[0]
}

// TestClientReassemblyGC: a response that lost a fragment must not stay
// in the client's reassembler for the life of the process; the sweeper
// drops it once it is older than the attempt timeout.
func TestClientReassemblyGC(t *testing.T) {
	peer, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer peer.Close()
	cl, err := Dial([]string{peer.LocalAddr().String()}, ClientOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pending := func() int {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.drv.Pending()
	}
	if _, err := peer.WriteToUDP(loneFragment(t, r2p2.TypeResponse), cl.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); pending() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fragment never reached the reassembler")
		}
	}
	time.Sleep(350 * time.Millisecond)
	if n := pending(); n != 0 {
		t.Fatalf("%d reassemblies pending 350ms after a 20ms timeout", n)
	}
}

// TestAggregatorReassemblyGC: the aggregator drops a message that lost
// a fragment once it is older than the reassembly timeout, even with no
// traffic after it.
func TestAggregatorReassemblyGC(t *testing.T) {
	node, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer node.Close()
	a, err := newAggregatorServer("127.0.0.1:0", map[uint32]string{1: node.LocalAddr().String()}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := node.WriteToUDP(loneFragment(t, r2p2.TypeRaftReq), a.Addr()); err != nil {
		t.Fatal(err)
	}
	// The aggregator answers a ping, so its pong shows that the fragment
	// sent before the ping was read.
	ping := r2p2.MakeMsg(r2p2.TypeRaftReq, 0, 1, 8, core.EncodeAggPing(&core.AggPing{Term: 1, From: 1}), 0)
	if _, err := node.WriteToUDP(ping[0], a.Addr()); err != nil {
		t.Fatal(err)
	}
	_ = node.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := node.ReadFromUDP(make([]byte, 2048)); err != nil {
		t.Fatalf("no pong from the aggregator: %v", err)
	}
	time.Sleep(350 * time.Millisecond)
	a.Close() // drv belongs to the read loop until it has exited
	if n := a.drv.Pending(); n != 0 {
		t.Fatalf("%d reassemblies pending 350ms after a 20ms timeout", n)
	}
}
