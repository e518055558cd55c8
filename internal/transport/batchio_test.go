package transport

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// TestBatchIORoundTrip pushes a burst through the platform batch I/O
// layer: a sender-side vectored send into (up to) multi-socket
// reuseport ingress, checking payload integrity, sender addresses, and
// derived R2P2 source keys — the exact surface the server read loops
// consume.
func TestBatchIORoundTrip(t *testing.T) {
	probe, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()

	conns, err := listenBatch(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	setSockBufs(conns, 1<<20)

	src, err := newEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rawSrc, err := src.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	srcAddr := src.LocalAddr().(*net.UDPAddr)

	const total = 64
	pkts := make([][]byte, total)
	for i := range pkts {
		pkts[i] = []byte(fmt.Sprintf("dg-%03d", i))
	}
	sn := newSender(src, rawSrc, 16)
	sn.sendTo(addr, pkts)
	if batchIOSupported && sn.syscalls >= total {
		t.Fatalf("sender used %d syscalls for %d datagrams; no amortization", sn.syscalls, total)
	}

	// Drain every socket until all datagrams arrive (reuseport hashes
	// one flow to one socket, so one reader may see everything).
	got := make(map[string]bool)
	deadline := time.Now().Add(2 * time.Second)
	readers := make([]*batchReader, len(conns))
	for i, c := range conns {
		r, err := newBatchReader(c, 16)
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = r
	}
	for len(got) < total && time.Now().Before(deadline) {
		for i, r := range readers {
			_ = conns[i].SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			n, err := r.read()
			if err != nil {
				continue
			}
			for j := 0; j < n; j++ {
				got[string(r.views[j])] = true
				from := r.addr(j)
				if from.Port != srcAddr.Port {
					t.Fatalf("datagram %q: sender port %d, want %d", r.views[j], from.Port, srcAddr.Port)
				}
				if r.keys[j] != ipKey(srcAddr) {
					t.Fatalf("datagram %q: source key %#x, want %#x", r.views[j], r.keys[j], ipKey(srcAddr))
				}
			}
		}
	}
	if len(got) != total {
		t.Fatalf("received %d of %d datagrams", len(got), total)
	}
	for i := range pkts {
		if !got[string(pkts[i])] {
			t.Fatalf("datagram %q lost", pkts[i])
		}
	}
}

// TestListenBatchSocketCount pins the platform contract: Linux shards
// across n reuseport sockets, the fallback binds exactly one.
func TestListenBatchSocketCount(t *testing.T) {
	probe, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()
	conns, err := listenBatch(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	want := 1
	if batchIOSupported {
		want = 4
	}
	if len(conns) != want {
		t.Fatalf("listenBatch bound %d sockets, want %d", len(conns), want)
	}
	for _, c := range conns {
		if got := c.LocalAddr().(*net.UDPAddr).Port; got != addr.Port {
			t.Fatalf("socket bound to port %d, want %d", got, addr.Port)
		}
	}
}

// TestCloneUDPAddr guards the retain contract for batch-reader address
// slots: clones must not alias the reused backing arrays.
func TestCloneUDPAddr(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3).To4(), Port: 99}
	c := cloneUDPAddr(a)
	if !sameUDPAddr(a, c) {
		t.Fatalf("clone %v differs from %v", c, a)
	}
	a.IP[0] = 42
	a.Port = 1
	if c.IP[0] == 42 || c.Port == 1 {
		t.Fatal("clone aliases the original's storage")
	}
	if cloneUDPAddr(nil) != nil || !sameUDPAddr(nil, nil) || sameUDPAddr(a, nil) {
		t.Fatal("nil handling broken")
	}
}
