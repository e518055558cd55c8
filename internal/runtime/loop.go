package runtime

import (
	"sync/atomic"
	"time"
)

// LoopOptions configure a Loop.
type LoopOptions struct {
	// Deliver ingests one datagram into the loop's engine; the buffer is
	// borrowed, valid only until the caller's next read. Required.
	Deliver func(dg []byte, src uint32, port uint16)
	// Tick is the protocol timer body, run from Advance every TickEvery
	// of the Now clock (monotonic since some epoch). Optional.
	Tick      func()
	TickEvery time.Duration
	Now       func() time.Duration
	// Kick interrupts the loop's blocking read so a submitted command
	// runs before the next natural wakeup (the UDP transport arms a past
	// read deadline). Optional.
	Kick func()
	// Flush runs at the end of every Advance, the batch boundary: engine
	// boundary hook, group-commit barrier, egress flush. Optional.
	Flush func()
	// Closed aborts Submit once the loop is shutting down.
	Closed <-chan struct{}
}

// Loop is an engine's run-to-completion driver: the single execution
// context that touches the engine and all data-plane state, so none of
// it takes a lock. Over UDP the goroutine reading the node's socket is
// the loop: it ingests each datagram in place and calls Advance at
// every batch boundary. Other goroutines reach the engine only through
// Submit (a bootstrap election): it swaps the pending flag to 1 and, on
// the 0→1 edge, kicks the blocking read. Advance swaps the flag back to
// 0 before draining, so a command racing the drain re-arms it and runs
// on the next pass — no missed wakeups, no lock.
type Loop struct {
	deliver   func(dg []byte, src uint32, port uint16)
	tick      func()
	tickEvery time.Duration
	now       func() time.Duration
	kick      func()
	flush     func()
	closed    <-chan struct{}

	cmds    chan func()
	pending atomic.Uint32
	nextTck time.Duration
}

// NewLoop builds a loop.
func NewLoop(opts LoopOptions) *Loop {
	l := &Loop{
		deliver:   opts.Deliver,
		tick:      opts.Tick,
		tickEvery: opts.TickEvery,
		now:       opts.Now,
		kick:      opts.Kick,
		flush:     opts.Flush,
		closed:    opts.Closed,
		cmds:      make(chan func(), 256),
	}
	if l.now != nil && l.tickEvery > 0 {
		l.nextTck = l.now() + l.tickEvery
	}
	return l
}

// Ingest delivers one datagram read by the loop, run-to-completion.
func (l *Loop) Ingest(dg []byte, src uint32, port uint16) { l.deliver(dg, src, port) }

// Wake marks the loop's pending flag and kicks its blocking read on the
// 0→1 edge. Safe from any goroutine.
func (l *Loop) Wake() {
	if l.pending.Swap(1) == 0 && l.kick != nil {
		l.kick()
	}
}

// Submit queues fn to run in the loop's execution context and wakes the
// loop: a control-plane path (a bootstrap Campaign) that nothing per
// request uses. Returns false when the loop is shutting down.
func (l *Loop) Submit(fn func()) bool {
	select {
	case l.cmds <- fn:
		l.Wake()
		return true
	case <-l.closed:
		return false
	}
}

// ShouldPark reports whether the loop may block in its read: false
// while a command is pending. Check it after arming the read deadline,
// which would otherwise overwrite a kick that landed before the arm.
func (l *Loop) ShouldPark() bool { return l.pending.Load() == 0 }

// NextTick returns the loop-clock time at which the next tick is due,
// or 0 when the loop has no timer. It moves only when a tick runs, so a
// loop that parks on an absolute deadline re-arms it once per tick, not
// once per pass. A due time already past means the tick is overdue: the
// read times out at once and the next Advance runs it.
func (l *Loop) NextTick() time.Duration {
	if l.tickEvery <= 0 || l.now == nil {
		return 0
	}
	return l.nextTck
}

// Advance is the loop boundary, run after every ingress batch and read
// timeout: run submitted commands if the pending flag is set, the tick
// when due, then Flush. Only the loop's own goroutine may call it.
func (l *Loop) Advance() {
	for drain := l.pending.Swap(0) != 0; drain; {
		select {
		case fn := <-l.cmds:
			fn()
		default:
			drain = false
		}
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
