//go:build linux && (amd64 || arm64) && !race

// The race detector makes sync.Pool drop items on purpose, so these
// allocation counts only hold in a normal build.

package transport

import (
	"net"
	"testing"
	"time"

	"hovercraft/internal/r2p2"
)

// TestBatchReaderReadAllocs pins the receive path at zero allocations
// per recvmmsg: the syscall closure and its results live in the reader.
func TestBatchReaderReadAllocs(t *testing.T) {
	dst, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer dst.Close()
	src, err := newEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rc, err := src.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newBatchReader(dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	sn := newSender(src, rc, 8)
	addr := dst.LocalAddr().(*net.UDPAddr)
	pkts := [][]byte{[]byte("one"), []byte("two")}
	_ = dst.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := 0
	allocs := testing.AllocsPerRun(200, func() {
		sn.sendTo(addr, pkts)
		for n := 0; n < len(pkts); {
			k, err := r.read()
			if err != nil {
				t.Fatal(err)
			}
			n += k
			got += k
		}
	})
	if allocs != 0 {
		t.Fatalf("batchReader.read: %v allocs per call, want 0", allocs)
	}
	if got != 201*len(pkts) {
		t.Fatalf("read %d datagrams, want %d", got, 201*len(pkts))
	}
}

// TestClientCallStateAllocs pins a warmed Client.Call round trip at the
// allocations of building its request datagrams and nothing more: the
// call state and its channel come from a pool, and attempt timeouts come
// from the client's sweeper, not a timer per attempt.
func TestClientCallStateAllocs(t *testing.T) {
	srv, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	rc, err := srv.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	// An echo replica: every request comes back as its own response.
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := newBatchReader(srv, 8)
		if err != nil {
			t.Error(err)
			return
		}
		sn := newSender(srv, rc, 8)
		for {
			n, err := r.read()
			if err != nil {
				return // socket closed
			}
			for i := 0; i < n; i++ {
				r.views[i][2] = byte(r2p2.TypeResponse)
				sn.queue(r.addr(i), r.views[i])
			}
			sn.flush()
		}
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	cl, err := Dial([]string{srv.LocalAddr().String()}, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cmd := []byte("set k v")
	call := func() {
		reply, err := cl.Call(cmd, false)
		if err != nil || string(reply) != string(cmd) {
			t.Fatalf("Call = %q, %v", reply, err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	enc := r2p2.NewClient(1, 2)
	build := testing.AllocsPerRun(200, func() { enc.NewRequest(r2p2.PolicyReplicated, cmd) })
	if got := testing.AllocsPerRun(200, call); got != build {
		t.Fatalf("warmed Call: %v allocs, want the %v of building the request", got, build)
	}
}
