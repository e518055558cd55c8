package runtime

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestMailboxFIFOAndCounters checks FIFO order, slot fields, and the
// counts Push and Drain report (the ring keeps no other counter).
func TestMailboxFIFOAndCounters(t *testing.T) {
	m := NewMailbox(3) // rounds up to 4 slots
	for i := 0; i < 4; i++ {
		if !m.Push([]byte{byte(i)}, uint32(i), uint16(i), time.Duration(i)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	var got []byte
	n := m.Drain(16, func(dg []byte, src uint32, port uint16, owned bool, at time.Duration) {
		if owned {
			t.Error("Push slots must drain as borrowed")
		}
		if uint32(dg[0]) != src || uint16(dg[0]) != port || time.Duration(dg[0]) != at {
			t.Errorf("slot fields scrambled: dg=%v src=%d port=%d at=%d", dg, src, port, at)
		}
		got = append(got, dg[0])
	})
	if n != 4 || !bytes.Equal(got, []byte{0, 1, 2, 3}) {
		t.Fatalf("drained %d = %v, want FIFO 0,1,2,3", n, got)
	}
	if n := m.Drain(16, func([]byte, uint32, uint16, bool, time.Duration) {}); n != 0 {
		t.Fatalf("empty ring drained %d", n)
	}
}

func TestMailboxBackpressureDropsWhenFull(t *testing.T) {
	m := NewMailbox(2)
	for i := 0; i < 2; i++ {
		if !m.Push([]byte{byte(i)}, 0, 0, 0) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if m.Push([]byte{9}, 0, 0, 0) {
		t.Fatal("push accepted past capacity")
	}
	// Draining frees slots for new pushes.
	m.Drain(1, func([]byte, uint32, uint16, bool, time.Duration) {})
	if !m.Push([]byte{3}, 0, 0, 0) {
		t.Fatal("push rejected after drain freed a slot")
	}
}

// TestMailboxPushCopies proves the copy-on-push contract: the
// producer's buffer may be scribbled immediately, and the drained view
// still holds the original bytes.
func TestMailboxPushCopies(t *testing.T) {
	m := NewMailbox(4)
	buf := []byte("datagram-one")
	m.Push(buf, 1, 1, 0)
	copy(buf, "XXXXXXXXXXXX") // reuse the read slab
	m.Drain(1, func(dg []byte, _ uint32, _ uint16, owned bool, _ time.Duration) {
		if owned {
			t.Error("copied slot reported owned")
		}
		if string(dg) != "datagram-one" {
			t.Errorf("slab reuse corrupted copied slot: %q", dg)
		}
	})
}

// TestMailboxSPSCConcurrent hammers the ring from one producer and one
// consumer goroutine (the exact ownership contract), checking under
// the race detector that every delivered datagram is intact and in
// order. Drops are legal — the ring is bounded — but reordering or
// corruption is not.
func TestMailboxSPSCConcurrent(t *testing.T) {
	m := NewMailbox(64)
	const total = 100000
	prodDone := make(chan struct{})
	pushed := 0 // read after prodDone closes
	go func() {
		defer close(prodDone)
		var dg [8]byte
		for i := uint64(0); i < total; i++ {
			binary.LittleEndian.PutUint64(dg[:], i)
			if m.Push(dg[:], uint32(i), uint16(i), time.Duration(i)) {
				pushed++
			}
		}
	}()
	var last uint64
	first := true
	delivered := 0
	check := func(dg []byte, src uint32, port uint16, _ bool, at time.Duration) {
		v := binary.LittleEndian.Uint64(dg)
		if uint32(v) != src || uint16(v) != port || time.Duration(v) != at {
			t.Errorf("torn slot: v=%d src=%d port=%d at=%d", v, src, port, at)
		}
		if !first && v <= last {
			t.Errorf("reordered: %d after %d", v, last)
		}
		last, first = v, false
		delivered++
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.Drain(64, check)
		select {
		case <-prodDone:
			m.Drain(64, check) // tail: producer stopped, ring holds ≤ 64
			if delivered != pushed {
				t.Fatalf("delivered %d of %d pushed", delivered, pushed)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled: delivered=%d", delivered)
		}
	}
}
