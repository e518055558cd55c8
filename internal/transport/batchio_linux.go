//go:build linux && (amd64 || arm64)

package transport

// Linux batch I/O: recvmmsg/sendmmsg invoked directly through
// syscall.Syscall6 (numbers pinned per-arch in batchio_linux_*.go, so
// no external module is needed), integrated with the runtime netpoller
// via syscall.RawConn — a reader parks on the poller exactly like
// ReadFromUDP, but each wakeup drains a whole vector of datagrams.
//
// The build tag restricts to 64-bit little-endian Linux, where
// syscall.Msghdr's field widths match the kernel mmsghdr layout used
// here; everything else takes the portable fallback.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"unsafe"

	"hovercraft/internal/wire"
)

// batchIOSupported reports that this build amortizes syscalls over
// datagram vectors (surfaced in DebugVars so deployments can verify).
const batchIOSupported = true

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// per-message byte count. The trailing pad keeps the 64-bit layout the
// kernel expects (sizeof == 64 on amd64/arm64).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// htons swaps a port into network byte order. The build tag admits only
// little-endian targets, so the swap is unconditional.
func htons(p uint16) uint16 { return p<<8 | p>>8 }

// soReusePort is SO_REUSEPORT, absent from the frozen stdlib syscall
// constants (it postdates Linux 3.9).
const soReusePort = 0xf

// listenBatch binds n UDP sockets to addr. For n > 1 every socket sets
// SO_REUSEPORT before bind, so the kernel shards ingress flows across
// them by 4-tuple hash; n == 1 binds exactly as net.ListenUDP does.
func listenBatch(addr *net.UDPAddr, n int) ([]*net.UDPConn, error) {
	if n <= 1 {
		c, err := net.ListenUDP("udp4", addr)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{c}, nil
	}
	lc := net.ListenConfig{Control: func(network, address string, rc syscall.RawConn) error {
		var serr error
		cerr := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		})
		if cerr != nil {
			return cerr
		}
		return serr
	}}
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp4", addr.String())
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("transport: reuseport socket %d: %w", i, err)
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	return conns, nil
}

// batchReader drains one socket with recvmmsg. All per-datagram state
// (receive slots, sender addresses, derived R2P2 source keys) lives in
// reused arrays; views[i] is only valid until the next read, exactly
// like the old single reused read buffer.
type batchReader struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	bufs  [][]byte
	views [][]byte
	addrs []net.UDPAddr
	ipb   []byte // 4-byte IP backing per slot, reused
	keys  []uint32

	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4

	syscalls  uint64
	datagrams uint64
}

func newBatchReader(conn *net.UDPConn, batch int) (*batchReader, error) {
	if batch <= 0 {
		batch = defaultRecvBatch
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("transport: raw conn: %w", err)
	}
	r := &batchReader{
		conn:  conn,
		rc:    rc,
		bufs:  wire.Slab(batch, maxDatagram),
		views: make([][]byte, batch),
		addrs: make([]net.UDPAddr, batch),
		ipb:   make([]byte, 4*batch),
		keys:  make([]uint32, batch),
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		sas:   make([]syscall.RawSockaddrInet4, batch),
	}
	for i := range r.hdrs {
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(maxDatagram)
		r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.sas[i]))
		r.hdrs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrInet4)
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
		r.addrs[i].IP = r.ipb[4*i : 4*i+4 : 4*i+4]
	}
	return r, nil
}

// read blocks until at least one datagram arrives (netpoller wait), then
// drains up to the batch size in one recvmmsg. It returns the number of
// datagrams now exposed through views/addrs/keys.
func (r *batchReader) read() (int, error) {
	var got int
	var errno syscall.Errno
	err := r.rc.Read(func(fd uintptr) bool {
		for {
			// The kernel rewrites namelen per message; reset in/out fields.
			for i := range r.hdrs {
				r.hdrs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrInet4)
				r.hdrs[i].hdr.Flags = 0
			}
			n, _, e := syscall.Syscall6(uintptr(sysRecvmmsg), fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)), 0, 0, 0)
			if e == syscall.EINTR {
				continue
			}
			if e == syscall.EAGAIN {
				return false // park on the poller until readable
			}
			got, errno = int(n), e
			return true
		}
	})
	runtime.KeepAlive(r)
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	r.syscalls++
	r.datagrams += uint64(got)
	for i := 0; i < got; i++ {
		r.views[i] = r.bufs[i][:r.hdrs[i].n]
		sa := &r.sas[i]
		copy(r.addrs[i].IP, sa.Addr[:])
		r.addrs[i].Port = int(htons(sa.Port))
		r.keys[i] = uint32(sa.Addr[0])<<24 | uint32(sa.Addr[1])<<16 |
			uint32(sa.Addr[2])<<8 | uint32(sa.Addr[3])
	}
	return got, nil
}

// addr returns the sender of datagram i of the last read. The pointed-to
// struct is reused on the next read; retainers must cloneUDPAddr it.
func (r *batchReader) addr(i int) *net.UDPAddr { return &r.addrs[i] }

// sender coalesces datagrams into sendmmsg calls. Every mmsghdr slot
// carries its own destination, so one syscall moves a whole loop pass's
// egress — AppendEntries to each follower and replies to clients alike.
// A sender belongs to one socket. Not safe for concurrent use;
// transports pool senders per flush.
type sender struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4
	n    int // slots queued since the last flush

	// One sendmmsg attempt over slots [off, n), as a closure built once:
	// a literal inside flush would capture locals and allocate per call.
	write func(fd uintptr) bool
	off   int
	wn    int
	werr  syscall.Errno

	syscalls  uint64
	datagrams uint64
}

func newSender(_ *net.UDPConn, rc syscall.RawConn, batch int) *sender {
	if batch <= 0 {
		batch = defaultSendBatch
	}
	s := &sender{
		rc:   rc,
		hdrs: make([]mmsghdr, batch),
		iovs: make([]syscall.Iovec, batch),
		sas:  make([]syscall.RawSockaddrInet4, batch),
	}
	for i := range s.hdrs {
		s.sas[i].Family = syscall.AF_INET
		s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.sas[i]))
		s.hdrs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrInet4)
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
	}
	s.write = func(fd uintptr) bool {
		for {
			wn, _, e := syscall.Syscall6(uintptr(sysSendmmsg), fd,
				uintptr(unsafe.Pointer(&s.hdrs[s.off])), uintptr(s.n-s.off), 0, 0, 0)
			if e == syscall.EINTR {
				continue
			}
			if e == syscall.EAGAIN {
				return false // wait for writability
			}
			s.wn, s.werr = int(wn), e
			return true
		}
	}
	return s
}

// queue stages one datagram for addr, flushing first when the vector is
// full. pkt must stay valid until the next flush.
func (s *sender) queue(addr *net.UDPAddr, pkt []byte) {
	ip4 := addr.IP.To4()
	if ip4 == nil {
		return
	}
	if s.n == len(s.hdrs) {
		s.flush()
	}
	sa := &s.sas[s.n]
	sa.Port = htons(uint16(addr.Port))
	copy(sa.Addr[:], ip4)
	base := pkt
	if len(base) == 0 {
		base = zeroPayload[:]
	}
	s.iovs[s.n].Base = &base[0]
	s.iovs[s.n].SetLen(len(pkt))
	s.n++
}

// flush transmits everything queued, normally in one syscall.
// Best-effort like WriteToUDP: a datagram the kernel refuses is skipped
// (the protocol tolerates loss) and the rest still go.
func (s *sender) flush() {
	for s.off = 0; s.off < s.n; {
		if err := s.rc.Write(s.write); err != nil {
			break // socket closed
		}
		if s.werr != 0 || s.wn <= 0 {
			s.off++ // the head datagram failed: drop it alone
			continue
		}
		s.syscalls++
		s.datagrams += uint64(s.wn)
		s.off += s.wn
	}
	s.n = 0
}

// zeroPayload backs empty datagrams so iovecs always have a valid base.
var zeroPayload [1]byte
