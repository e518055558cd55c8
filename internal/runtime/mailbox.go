package runtime

import (
	"sync/atomic"
	"time"
)

// mailSlot is one parked datagram in a reused backing buffer.
type mailSlot struct {
	buf  []byte
	src  uint32
	port uint16
	at   time.Duration
}

// Mailbox is a bounded single-producer single-consumer datagram ring:
// the producer publishes a slot by storing tail (release), the consumer
// frees it by storing head after its callback returns. No data path
// uses it — each node's socket is read by the loop that owns its engine.
// It remains only because the ledger's runtime.mailbox_ns row
// (bench/layers.go) compiles against NewMailbox, Push and Drain; it
// goes with that row.
type Mailbox struct {
	slots []mailSlot
	mask  uint64

	head atomic.Uint64 // next slot to drain (consumer-owned)
	tail atomic.Uint64 // next slot to fill (producer-owned)
}

// NewMailbox builds a ring with at least the given capacity (rounded up
// to a power of two; 0 defaults to 1024 slots).
func NewMailbox(capacity int) *Mailbox {
	if capacity <= 0 {
		capacity = 1024
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Mailbox{slots: make([]mailSlot, n), mask: uint64(n - 1)}
}

// Push copies one datagram into the ring — the caller's buffer may be
// reused immediately. Returns false when the ring is full and the
// datagram was not taken.
func (m *Mailbox) Push(dg []byte, src uint32, port uint16, at time.Duration) bool {
	t := m.tail.Load()
	if t-m.head.Load() >= uint64(len(m.slots)) {
		return false
	}
	s := &m.slots[t&m.mask]
	s.buf = append(s.buf[:0], dg...)
	s.src, s.port, s.at = src, port, at
	m.tail.Store(t + 1)
	return true
}

// Drain pops up to max parked datagrams in FIFO order, invoking fn for
// each. The view lives in a slot the producer reuses once fn returns,
// and owned is always false. Returns the number dispatched.
func (m *Mailbox) Drain(max int, fn func(dg []byte, src uint32, port uint16, owned bool, at time.Duration)) int {
	h := m.head.Load()
	t := m.tail.Load()
	n := 0
	for h != t && n < max {
		s := &m.slots[h&m.mask]
		fn(s.buf, s.src, s.port, false, s.at)
		h++
		m.head.Store(h) // slot reusable only after fn returned
		n++
	}
	return n
}
