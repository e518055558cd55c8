package runtime

import (
	"time"

	"sync/atomic"

	"hovercraft/internal/obs"
	"hovercraft/internal/stats"
)

// LoopOptions configure one per-core Loop.
type LoopOptions struct {
	// Core is the loop's index, used only for labeling.
	Core int
	// Owner, when non-nil, makes this a forwarding loop: it owns no
	// engine, and every ingested datagram is handed to Owner through a
	// dedicated SPSC mailbox. Nil makes this the owning loop.
	Owner *Loop
	// MailboxCap bounds the forwarding ring (0 = 1024). Owner-side
	// loops ignore it.
	MailboxCap int
	// Deliver ingests one datagram into the engine this loop owns. The
	// buffer follows the borrowed contract (valid until the caller's
	// next read) unless owned is true, in which case the handler may
	// retain it. Required for owning loops.
	Deliver func(dg []byte, src uint32, port uint16, owned bool)
	// Tick is the owning loop's protocol timer body, run at TickEvery
	// cadence from Advance. Optional.
	Tick      func()
	TickEvery time.Duration
	// Now is the loop clock (monotonic since some epoch). Required when
	// TickEvery or Telemetry is set.
	Now func() time.Duration
	// Kick interrupts the owning loop's blocking read so a cross-core
	// producer can get pending work drained before the next natural
	// wakeup (the UDP transport arms a past read deadline). Optional;
	// without it pending work waits for the next tick or batch.
	Kick func()
	// Flush runs at the end of every Advance — the loop's batch boundary:
	// the owner's engine boundary hook (replication pacing), group-commit
	// barrier and egress coalescer. Optional.
	Flush func()
	// Telemetry, when non-nil, records mailbox sojourn (obs.QIngress)
	// for every datagram that crossed cores.
	Telemetry *obs.Telemetry
	// Closed aborts Submit once the loop's driver is shutting down.
	Closed <-chan struct{}
}

// Loop is one core's run-to-completion engine driver. Exactly one
// owning loop exists per engine: it alone touches the engine, the
// reassembler, the egress queue, and every other piece of data-plane
// state — the single-owner replacement for the old global engine
// mutex. Peer loops on other cores only ever hand work over through
// bounded SPSC mailboxes (datagrams) or the command channel (a
// bootstrap election), both drained by the owner at its next loop
// boundary via Advance. State-machine operations never cross: the
// owner executes them inline while it steps the engine.
//
// The wakeup protocol is a single atomic flag: a producer that makes
// work pending swaps it to 1 and, on the 0→1 edge, kicks the owner out
// of its blocking read. The owner swaps it back to 0 before draining,
// so a producer racing the drain re-arms the flag and the owner picks
// the work up on its next pass — no missed wakeups, no lock.
type Loop struct {
	core      int
	deliver   func(dg []byte, src uint32, port uint16, owned bool)
	tick      func()
	tickEvery time.Duration
	now       func() time.Duration
	kick      func()
	flush     func()
	tel       *obs.Telemetry
	closed    <-chan struct{}

	owner *Loop    // non-nil: forward everything there
	fwd   *Mailbox // this core's ring into owner

	inboxes []*Mailbox // owner: one SPSC ring per forwarding peer
	cmds    chan func()
	pending atomic.Uint32
	nextTck time.Duration
	ctr     *stats.CounterSet
}

// NewLoop builds a loop. Forwarding loops (Owner set) register their
// mailbox with the owner at construction time; build every loop before
// starting any of their goroutines.
func NewLoop(opts LoopOptions) *Loop {
	l := &Loop{
		core:      opts.Core,
		deliver:   opts.Deliver,
		tick:      opts.Tick,
		tickEvery: opts.TickEvery,
		now:       opts.Now,
		kick:      opts.Kick,
		flush:     opts.Flush,
		tel:       opts.Telemetry,
		closed:    opts.Closed,
		owner:     opts.Owner,
		ctr:       stats.NewCounterSet(),
	}
	if l.owner != nil {
		l.fwd = NewMailbox(opts.MailboxCap)
		l.owner.inboxes = append(l.owner.inboxes, l.fwd)
		// Pre-create this role's counters so every core exposes its
		// metric families from the start, not only once traffic hits it.
		l.ctr.Get("handoff_out")
		l.ctr.Get("handoff_drops")
	} else {
		l.cmds = make(chan func(), 256)
		if l.now != nil && l.tickEvery > 0 {
			l.nextTck = l.now() + l.tickEvery
		}
		l.ctr.Get("ingress_datagrams")
		l.ctr.Get("handoff_in")
	}
	return l
}

// IsOwner reports whether this loop owns an engine (vs forwarding).
func (l *Loop) IsOwner() bool { return l.owner == nil }

// Core returns the loop's index.
func (l *Loop) Core() int { return l.core }

// Counters exposes the loop's data-plane counters: ingress_datagrams
// (delivered run-to-completion on this core), handoff_out/handoff_in
// (datagrams that crossed cores), handoff_drops (mailbox full).
func (l *Loop) Counters() *stats.CounterSet { return l.ctr }

// Ingest feeds one datagram read on this core. On the owning loop it
// is delivered run-to-completion under the borrowed contract; on a
// forwarding loop it is copied into the owner's mailbox (the caller's
// read slab is about to be reused) and the owner is woken.
func (l *Loop) Ingest(dg []byte, src uint32, port uint16) {
	if l.owner == nil {
		l.ctr.Get("ingress_datagrams").Inc()
		l.deliver(dg, src, port, false)
		return
	}
	var at time.Duration
	if l.now != nil {
		at = l.now()
	}
	if l.fwd.Push(dg, src, port, at) {
		l.ctr.Get("handoff_out").Inc()
		l.owner.Wake()
	} else {
		l.ctr.Get("handoff_drops").Inc()
	}
}

// Wake marks the owner's pending flag and kicks its blocking read on
// the 0→1 edge. Safe from any goroutine.
func (l *Loop) Wake() {
	if l.pending.Swap(1) == 0 && l.kick != nil {
		l.kick()
	}
}

// Submit queues fn to run in the owner's execution context (a
// bootstrap Campaign) and wakes the owner. It is a control-plane path —
// a heap closure and a wake-up per call — and nothing per request uses
// it. Returns false when the loop is shutting down.
func (l *Loop) Submit(fn func()) bool {
	select {
	case l.cmds <- fn:
		l.Wake()
		return true
	case <-l.closed:
		return false
	}
}

// ShouldPark reports whether the owner may block in its read: false
// while cross-core work is pending. Check it after arming the read
// deadline — a producer's kick landing before the arm is otherwise
// overwritten and its work would wait out the full deadline.
func (l *Loop) ShouldPark() bool { return l.pending.Load() == 0 }

// NextWake returns how long the owner may block before its next tick
// is due (minimum 1µs so an overdue tick still yields a positive
// deadline), or 0 when the loop has no timer.
func (l *Loop) NextWake() time.Duration {
	if l.tickEvery <= 0 || l.now == nil {
		return 0
	}
	d := l.nextTck - l.now()
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// Advance is the owner's loop boundary, run after every ingress batch
// and read timeout: drain cross-core mailboxes and commands if the
// pending flag is set, run the tick when due, then flush egress. Must
// only be called from the owning goroutine.
func (l *Loop) Advance() {
	if l.pending.Swap(0) != 0 {
		l.drainHandoff()
	}
	if l.tickEvery > 0 && l.now != nil {
		if now := l.now(); now >= l.nextTck {
			if l.tick != nil {
				l.tick()
			}
			l.nextTck = now + l.tickEvery
		}
	}
	if l.flush != nil {
		l.flush()
	}
}

// drainHandoff empties every peer mailbox (bounded by each ring's
// capacity, so a fast producer cannot starve the owner's own socket)
// and the command queue, in that order: datagrams first so a command
// observes a fully ingested engine.
func (l *Loop) drainHandoff() {
	in := l.ctr.Get("handoff_in")
	for _, mb := range l.inboxes {
		n := mb.Drain(mb.Cap(), func(dg []byte, src uint32, port uint16, owned bool, at time.Duration) {
			if l.tel.Active() {
				l.tel.Record(obs.QIngress, l.tel.Now()-at)
			}
			l.deliver(dg, src, port, owned)
		})
		if n > 0 {
			in.Add(uint64(n))
		}
	}
	for {
		select {
		case fn := <-l.cmds:
			fn()
		default:
			return
		}
	}
}
