package transport

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// TestBatchIORoundTrip pushes a burst through the platform batch I/O
// layer: a sender-side vectored send into a batch reader, checking
// payload integrity, sender addresses, and derived R2P2 source keys —
// the exact surface the server read loop consumes.
func TestBatchIORoundTrip(t *testing.T) {
	probe, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()

	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	setSockBufs(conn, 1<<20)

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

	// Read until all datagrams arrive.
	got := make(map[string]bool)
	deadline := time.Now().Add(2 * time.Second)
	r, err := newBatchReader(conn, 16)
	if err != nil {
		t.Fatal(err)
	}
	for len(got) < total && time.Now().Before(deadline) {
		_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
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
	if len(got) != total {
		t.Fatalf("received %d of %d datagrams", len(got), total)
	}
	for i := range pkts {
		if !got[string(pkts[i])] {
			t.Fatalf("datagram %q lost", pkts[i])
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
