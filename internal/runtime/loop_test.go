package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type delivered struct {
	dg   []byte
	src  uint32
	port uint16
}

// newOwnerLoop builds a loop whose deliveries and kicks are recorded,
// with a controllable clock.
func newOwnerLoop(now *atomic.Int64, kicks *atomic.Uint64, tickEvery time.Duration, ticks *int) (*Loop, *[]delivered) {
	var got []delivered
	closed := make(chan struct{})
	l := NewLoop(LoopOptions{
		Deliver: func(dg []byte, src uint32, port uint16) {
			cp := append([]byte(nil), dg...)
			got = append(got, delivered{cp, src, port})
		},
		Tick: func() {
			if ticks != nil {
				*ticks++
			}
		},
		TickEvery: tickEvery,
		Now:       func() time.Duration { return time.Duration(now.Load()) },
		Kick: func() {
			if kicks != nil {
				kicks.Add(1)
			}
		},
		Closed: closed,
	})
	return l, &got
}

func TestLoopOwnerIngestsRunToCompletion(t *testing.T) {
	var now atomic.Int64
	l, got := newOwnerLoop(&now, nil, 0, nil)
	l.Ingest([]byte{1, 2}, 7, 9)
	if len(*got) != 1 || (*got)[0].src != 7 || (*got)[0].port != 9 {
		t.Fatalf("ingest not delivered in place: %+v", *got)
	}
	if !l.ShouldPark() {
		t.Fatal("ingest must not raise the pending flag")
	}
}

func TestLoopSubmitRunsInOwnerContext(t *testing.T) {
	var now atomic.Int64
	var kicks atomic.Uint64
	owner, _ := newOwnerLoop(&now, &kicks, 0, nil)
	ran := 0
	for i := 0; i < 2; i++ {
		if !owner.Submit(func() { ran++ }) {
			t.Fatal("Submit rejected on a live loop")
		}
	}
	if ran != 0 {
		t.Fatal("command ran on the submitting goroutine")
	}
	if k := kicks.Load(); k != 1 {
		t.Fatalf("kicks = %d, want exactly 1 (edge-triggered on 0→1)", k)
	}
	if owner.ShouldPark() {
		t.Fatal("owner must not park with commands pending")
	}
	owner.Advance()
	if ran != 2 {
		t.Fatalf("Advance ran %d of 2 commands", ran)
	}
	if !owner.ShouldPark() {
		t.Fatal("owner must park once drained")
	}
	// The drain reset the pending flag, so the next Submit kicks again.
	owner.Submit(func() {})
	if k := kicks.Load(); k != 2 {
		t.Fatalf("kicks = %d, want 2 after the drain reset the pending flag", k)
	}
}

func TestLoopTickCadenceAndNextTick(t *testing.T) {
	var now atomic.Int64
	ticks := 0
	l, _ := newOwnerLoop(&now, nil, 10*time.Millisecond, &ticks)
	if at := l.NextTick(); at != 10*time.Millisecond {
		t.Fatalf("NextTick = %v, want 10ms", at)
	}
	now.Store(int64(4 * time.Millisecond))
	l.Advance() // not due yet
	if ticks != 0 {
		t.Fatalf("ticked %d times before the deadline", ticks)
	}
	// The due time is absolute: passes between ticks leave it alone, so
	// the owner's armed read deadline stays valid.
	if at := l.NextTick(); at != 10*time.Millisecond {
		t.Fatalf("NextTick moved between ticks: %v", at)
	}
	now.Store(int64(12 * time.Millisecond))
	l.Advance()
	if ticks != 1 {
		t.Fatalf("ticked %d times after the deadline, want 1", ticks)
	}
	if at := l.NextTick(); at != 22*time.Millisecond {
		t.Fatalf("NextTick after tick = %v, want 22ms", at)
	}
	// An overdue tick reads as a due time in the past: the owner's read
	// deadline expires at once and the next Advance runs the tick.
	now.Store(int64(100 * time.Millisecond))
	if at := l.NextTick(); at >= 100*time.Millisecond {
		t.Fatalf("overdue NextTick = %v, want a time in the past", at)
	}
}

// TestLoopConcurrentSubmit runs submitting goroutines against the
// loop's own goroutine under the race detector: the full pending/kick
// wake protocol with no lock. Every command must run exactly once, on
// the loop, and none may be stranded by a kick that raced the drain.
func TestLoopConcurrentSubmit(t *testing.T) {
	var now atomic.Int64
	wake := make(chan struct{}, 1)
	l := NewLoop(LoopOptions{
		Deliver: func([]byte, uint32, uint16) {},
		Now:     func() time.Duration { return time.Duration(now.Load()) },
		Kick: func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		},
	})

	const producers, each = 4, 5000
	ran := 0 // touched only by commands, which run on this goroutine
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !l.Submit(func() { ran++ }) {
					t.Error("Submit rejected on a live loop")
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for finished := false; !finished; {
		select {
		case <-wake:
			l.Advance()
		case <-done:
			finished = true
		}
	}
	// Every submit has returned. A command the loop did not drain yet
	// must have left the pending flag raised (and a kick queued).
	if ran != producers*each && l.ShouldPark() {
		t.Fatalf("%d of %d commands stranded with the pending flag clear",
			producers*each-ran, producers*each)
	}
	l.Advance()
	if ran != producers*each {
		t.Fatalf("ran %d of %d commands", ran, producers*each)
	}
	if !l.ShouldPark() {
		t.Fatal("loop must park once drained")
	}
}
