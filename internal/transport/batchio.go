package transport

// Batch I/O layer: the syscall-amortized data plane under the UDP
// transports. On Linux (amd64/arm64) batchio_linux.go drains and fills
// many datagrams per syscall with recvmmsg/sendmmsg and shards ingress
// across SO_REUSEPORT sockets; every other platform falls back to the
// portable one-datagram-per-syscall stdlib path in batchio_fallback.go,
// so `go build ./...` stays green on darwin and friends. Both
// implementations expose the same surface:
//
//	listenBatch  — bind N sockets to one address (N>1 needs reuseport)
//	batchReader  — per-socket reader filling a slab of reused views
//	sender       — per-socket vectored send: queue(addr, pkt)…, flush()
//
// eRPC's observation (PAPERS.md) is that most of the datacenter-RPC gap
// closes with packet batching and syscall amortization, no kernel bypass
// required; this layer is that remedy for the deployable path. The
// simulator never touches it, so simnet runs stay bit-identical.

import (
	"net"
	"time"
)

const (
	// defaultRecvBatch / defaultSendBatch size the mmsg vectors: how
	// many datagrams one read or write syscall may move.
	defaultRecvBatch = 32
	defaultSendBatch = 32
	// defaultSockBuf sizes SO_RCVBUF/SO_SNDBUF. Kernel defaults
	// (~212KB) silently drop microbursts that a µs-scale service rides
	// out; 2MB absorbs a full recv batch of worst-case datagrams.
	defaultSockBuf = 2 << 20
	// maxDatagram bounds one datagram (matches the old read buffers).
	maxDatagram = 65536
)

// setSockBufs applies SO_RCVBUF/SO_SNDBUF to every socket. Errors are
// ignored: the sizes are a performance hint and the kernel clamps to
// net.core.{r,w}mem_max anyway.
func setSockBufs(conns []*net.UDPConn, bytes int) {
	if bytes <= 0 {
		bytes = defaultSockBuf
	}
	for _, c := range conns {
		_ = c.SetReadBuffer(bytes)
		_ = c.SetWriteBuffer(bytes)
	}
}

// sendTo transmits pkts to one destination and flushes.
func (s *sender) sendTo(addr *net.UDPAddr, pkts [][]byte) {
	for _, p := range pkts {
		s.queue(addr, p)
	}
	s.flush()
}

// cloneUDPAddr deep-copies a UDP address out of a batch reader's reused
// address slots, for consumers that retain it (the client reply table).
func cloneUDPAddr(a *net.UDPAddr) *net.UDPAddr {
	if a == nil {
		return nil
	}
	c := &net.UDPAddr{Port: a.Port, Zone: a.Zone}
	c.IP = append(net.IP(nil), a.IP...)
	return c
}

// sameUDPAddr reports address equality without allocating.
func sameUDPAddr(a, b *net.UDPAddr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Port == b.Port && a.IP.Equal(b.IP)
}

// readDeadlineUnsupported is a build-tag-independent helper used by
// tests to bound blocking batch reads.
func setReadDeadline(c *net.UDPConn, d time.Duration) {
	if d > 0 {
		_ = c.SetReadDeadline(time.Now().Add(d))
	} else {
		_ = c.SetReadDeadline(time.Time{})
	}
}
