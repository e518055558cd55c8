//go:build !(linux && (amd64 || arm64))

package transport

// Portable batch I/O fallback: the same reader/sender surface as
// batchio_linux.go, implemented one datagram per syscall on the stdlib,
// so deployments keep working — just without the syscall amortization.

import (
	"net"
	"syscall"

	"hovercraft/internal/wire"
)

// batchIOSupported reports that this build moves one datagram per
// syscall (surfaced in DebugVars so deployments can verify).
const batchIOSupported = false

// batchReader reads one datagram per call through ReadFromUDP, exposing
// it through the same reused views/addrs/keys arrays as the Linux
// implementation.
type batchReader struct {
	conn  *net.UDPConn
	bufs  [][]byte
	views [][]byte
	addrs []net.UDPAddr
	keys  []uint32

	syscalls  uint64
	datagrams uint64
}

func newBatchReader(conn *net.UDPConn, batch int) (*batchReader, error) {
	return &batchReader{
		conn:  conn,
		bufs:  wire.Slab(1, maxDatagram),
		views: make([][]byte, 1),
		addrs: make([]net.UDPAddr, 1),
		keys:  make([]uint32, 1),
	}, nil
}

func (r *batchReader) read() (int, error) {
	n, from, err := r.conn.ReadFromUDP(r.bufs[0])
	if err != nil {
		return 0, err
	}
	r.syscalls++
	r.datagrams++
	r.views[0] = r.bufs[0][:n]
	r.addrs[0] = *from
	r.keys[0] = ipKey(from)
	return 1, nil
}

func (r *batchReader) addr(i int) *net.UDPAddr { return &r.addrs[i] }

// sender falls back to one WriteToUDP per datagram, written as queued.
type sender struct {
	conn *net.UDPConn

	syscalls  uint64
	datagrams uint64
}

func newSender(conn *net.UDPConn, _ syscall.RawConn, batch int) *sender {
	return &sender{conn: conn}
}

func (s *sender) queue(addr *net.UDPAddr, pkt []byte) {
	if _, err := s.conn.WriteToUDP(pkt, addr); err == nil {
		s.syscalls++
		s.datagrams++
	}
}

func (s *sender) flush() {}
