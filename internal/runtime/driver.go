// Package runtime owns the one piece of code that drives a step-machine
// engine: datagram reassembly, completed-message dispatch, and the
// tick/GC cadence. Both the discrete-event simulator (simcluster) and
// the real UDP transport feed their engines exclusively through a
// Driver, so the protocol hot path runs identically in both worlds and
// the reassembly buffer-ownership rules live in exactly one place.
// A Driver takes no lock: its caller serializes every call — the
// simulator's event loop, the goroutine reading a UDP node's socket.
package runtime

import (
	"time"

	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
)

// Handler consumes fully reassembled R2P2 messages. The *Msg is driver
// scratch, valid only for the duration of the call; implementations
// that keep the payload past the call must either register its message
// type in Options.RetainPayload (borrowed ingest copies it) or be fed
// exclusively through Ingest with uniquely owned datagrams.
type Handler interface {
	HandleMessage(m *r2p2.Msg)
}

// HandlerFunc adapts a plain function to Handler.
type HandlerFunc func(m *r2p2.Msg)

// HandleMessage calls f(m).
func (f HandlerFunc) HandleMessage(m *r2p2.Msg) { f(m) }

// Options configure a Driver.
type Options struct {
	// Now supplies the driver's clock: virtual time under simnet, wall
	// time over UDP. Required.
	Now func() time.Duration
	// ReasmTimeout bounds fragment reassembly (default 2s).
	ReasmTimeout time.Duration
	// Tick, when non-nil, is the engine's protocol timer, invoked once
	// per Driver.Tick ahead of the reassembly-GC cadence check.
	Tick func()
	// GCEvery runs reassembly GC on every N-th Tick (default 1).
	GCEvery uint64
	// RetainPayload lists message types whose payload the handler keeps
	// past HandleMessage (a server parks TypeRequest bodies until
	// commit; a UDP client queues TypeResponse payloads across a
	// channel). IngestBorrowed copies those payloads out of the
	// caller's read buffer; every other payload may alias it.
	RetainPayload []r2p2.MessageType
	// Telemetry, when non-nil, records per-message engine dispatch time
	// (obs.QEngine) around every HandleMessage call.
	Telemetry *obs.Telemetry
}

// Driver feeds one Handler from raw datagrams. It is not safe for
// concurrent use.
type Driver struct {
	h       Handler
	reasm   *r2p2.Reassembler
	now     func() time.Duration
	tick    func()
	gcEvery uint64
	ticks   uint64
	retain  [256]bool
	tel     *obs.Telemetry
	msg     r2p2.Msg // dispatch scratch, reused across ingests
	arena   []byte   // current chunk retained payloads are copied into
}

// arenaChunk sizes the chunks IngestBorrowed copies retained payloads
// into; payloads above arenaMax get an allocation of their own so one
// large body does not waste a chunk's tail.
const (
	arenaChunk = 64 << 10
	arenaMax   = arenaChunk / 8
)

// New builds a Driver for the given handler.
func New(h Handler, opts Options) *Driver {
	if opts.ReasmTimeout <= 0 {
		opts.ReasmTimeout = 2 * time.Second
	}
	if opts.GCEvery == 0 {
		opts.GCEvery = 1
	}
	d := &Driver{
		h:       h,
		reasm:   r2p2.NewReassembler(opts.ReasmTimeout),
		now:     opts.Now,
		tick:    opts.Tick,
		gcEvery: opts.GCEvery,
		tel:     opts.Telemetry,
	}
	for _, t := range opts.RetainPayload {
		d.retain[t] = true
	}
	return d
}

// Ingest feeds one datagram whose memory the handler may freely alias
// or retain (simnet packet payloads, reassembler-owned buffers).
// Completed messages are dispatched synchronously; fragment and header
// errors are dropped, as datagram loss is already tolerated.
func (d *Driver) Ingest(dg []byte, srcIP uint32) {
	done, _, err := d.reasm.IngestInto(dg, srcIP, d.now(), &d.msg)
	if err != nil || !done {
		return
	}
	d.dispatch()
}

// dispatch hands the scratch message to the handler, timing it as the
// engine stage when telemetry is attached.
func (d *Driver) dispatch() {
	if !d.tel.Active() {
		d.h.HandleMessage(&d.msg)
		return
	}
	t0 := d.tel.Now()
	d.h.HandleMessage(&d.msg)
	d.tel.Record(obs.QEngine, d.tel.Now()-t0)
}

// IngestBorrowed feeds one datagram from a reused read buffer that the
// caller overwrites on its next read. Single-fragment payloads of
// retained types are copied out; everything else aliases the buffer
// for the duration of the dispatch only. Multi-fragment messages are
// always safe: the reassembler copies fragments on ingest.
func (d *Driver) IngestBorrowed(dg []byte, srcIP uint32) {
	done, owned, err := d.reasm.IngestInto(dg, srcIP, d.now(), &d.msg)
	if err != nil || !done {
		return
	}
	if !owned && d.retain[d.msg.Type] {
		d.msg.Payload = d.retainCopy(d.msg.Payload)
	}
	d.dispatch()
}

// retainCopy copies a payload the handler keeps out of the caller's
// read buffer. Small payloads share 64 KiB chunks, filled front to back
// and never reused — a retained payload (a request body in the raft
// log) may live arbitrarily long, and the garbage collector frees a
// chunk once nothing points into it. Each copy is capped at its length
// so an append by the holder cannot run into its neighbour. An empty
// payload stays nil, as a plain copy would make it.
func (d *Driver) retainCopy(p []byte) []byte {
	n := len(p)
	if n == 0 || n > arenaMax {
		return append([]byte(nil), p...)
	}
	if cap(d.arena)-len(d.arena) < n {
		d.arena = make([]byte, 0, arenaChunk)
	}
	o := len(d.arena)
	d.arena = append(d.arena, p...)
	return d.arena[o : o+n : o+n]
}

// IngestBorrowedBatch feeds a batch-syscall reader's datagram vector in
// one call: dgs[i] arrived from the host whose R2P2 identity is
// srcIPs[i]. Every slice follows IngestBorrowed's borrowing contract —
// valid only until the caller's next read fills the slab again.
func (d *Driver) IngestBorrowedBatch(dgs [][]byte, srcIPs []uint32) {
	for i, dg := range dgs {
		d.IngestBorrowed(dg, srcIPs[i])
	}
}

// Tick advances the engine timer (when configured) and runs reassembly
// GC at the configured cadence.
func (d *Driver) Tick() {
	if d.tick != nil {
		d.tick()
	}
	d.ticks++
	if d.ticks%d.gcEvery == 0 {
		d.reasm.GC(d.now())
	}
}

// Pending reports the number of partially reassembled messages.
func (d *Driver) Pending() int { return d.reasm.Pending() }
