package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
)

func rid(n uint32) r2p2.RequestID { return r2p2.RequestID{SrcIP: 1, SrcPort: 2, ReqID: n} }

func TestDedupCacheRecordLookupEvict(t *testing.T) {
	d := NewDedupCache(3)
	for i := uint32(0); i < 5; i++ {
		d.Record(rid(i), []byte{byte(i)}, 7)
	}
	// Window 3: ids 0 and 1 evicted in insertion order.
	if d.Len() != 3 || d.Evicted != 2 {
		t.Fatalf("len=%d evicted=%d, want 3/2", d.Len(), d.Evicted)
	}
	if d.Seen(rid(0)) || d.Seen(rid(1)) {
		t.Fatal("evicted ids still present")
	}
	reply, replier, hasReply, ok := d.Lookup(rid(4))
	if !ok || !hasReply || replier != 7 || !bytes.Equal(reply, []byte{4}) {
		t.Fatalf("Lookup(4) = %v %v %v %v", reply, replier, hasReply, ok)
	}
}

func TestDedupCacheRecordFillsMissingReply(t *testing.T) {
	d := NewDedupCache(8)
	d.Record(rid(1), nil, 3) // apply started, reply unknown
	if _, _, hasReply, ok := d.Lookup(rid(1)); !ok || hasReply {
		t.Fatal("expected hit without reply bytes")
	}
	d.Record(rid(1), []byte("r"), 3) // done callback fills it
	if reply, _, hasReply, ok := d.Lookup(rid(1)); !ok || !hasReply || string(reply) != "r" {
		t.Fatal("reply bytes not filled in")
	}
	// Re-recording must not duplicate the FIFO slot.
	if d.Len() != 1 {
		t.Fatalf("len %d, want 1", d.Len())
	}
}

func TestDedupSnapshotRoundTrip(t *testing.T) {
	d := NewDedupCache(16)
	d.Record(rid(10), []byte("a"), 1)
	d.Record(rid(11), []byte("b"), 2)
	app := []byte("application state")
	blob := wrapSnapshot(d, app)

	ids, gotApp, err := unwrapSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotApp, app) {
		t.Fatalf("app blob mangled: %q", gotApp)
	}
	if len(ids) != 2 || ids[0] != rid(10) || ids[1] != rid(11) {
		t.Fatalf("ids = %v", ids)
	}

	// A restored replica suppresses the ids but has no reply bytes.
	d2 := NewDedupCache(16)
	d2.seedFromSnapshot(ids)
	if !d2.Seen(rid(10)) {
		t.Fatal("seeded id not suppressed")
	}
	if _, _, hasReply, _ := d2.Lookup(rid(11)); hasReply {
		t.Fatal("restored entry should not claim reply bytes")
	}
}

func TestDedupSnapshotLegacyPassthrough(t *testing.T) {
	raw := []byte("no magic here")
	ids, app, err := unwrapSnapshot(raw)
	if err != nil || len(ids) != 0 || !bytes.Equal(app, raw) {
		t.Fatalf("legacy blob mishandled: %v %v %v", ids, app, err)
	}
	// nil cache wraps an empty window.
	ids, app, err = unwrapSnapshot(wrapSnapshot(nil, raw))
	if err != nil || len(ids) != 0 || !bytes.Equal(app, raw) {
		t.Fatalf("nil-cache wrap broken: %v %v %v", ids, app, err)
	}
}

func TestDedupSnapshotTruncatedHeader(t *testing.T) {
	d := NewDedupCache(4)
	d.Record(rid(1), []byte("x"), 1)
	blob := wrapSnapshot(d, []byte("app"))
	if _, _, err := unwrapSnapshot(blob[:10]); err == nil {
		t.Fatal("truncated id table not rejected")
	}
}

// mapDedup is the map-plus-FIFO DedupCache the ring replaced, kept as
// the model the ring must match answer for answer: replicas decide
// exactly-once from these answers, so any divergence in eviction order
// or snapshot bytes would split state machines.
type mapDedup struct {
	window       int
	m            map[r2p2.RequestID]*dedupEntry
	fifo         []r2p2.RequestID
	hits, evicts uint64
}

func (d *mapDedup) lookup(id r2p2.RequestID) ([]byte, raft.NodeID, bool, bool) {
	e, ok := d.m[id]
	if !ok {
		return nil, raft.None, false, false
	}
	d.hits++
	return e.reply, e.replier, e.has, true
}

func (d *mapDedup) add(id r2p2.RequestID, e *dedupEntry) {
	d.m[id] = e
	d.fifo = append(d.fifo, id)
	for len(d.fifo) > d.window {
		delete(d.m, d.fifo[0])
		d.fifo = d.fifo[1:]
		d.evicts++
	}
}

func (d *mapDedup) record(id r2p2.RequestID, reply []byte, replier raft.NodeID) {
	if e, ok := d.m[id]; ok {
		if !e.has && reply != nil {
			e.reply, e.replier, e.has = reply, replier, true
		}
		return
	}
	d.add(id, &dedupEntry{reply: reply, replier: replier, has: reply != nil})
}

func (d *mapDedup) seed(ids []r2p2.RequestID) {
	for _, id := range ids {
		if _, ok := d.m[id]; !ok {
			d.add(id, &dedupEntry{replier: raft.None})
		}
	}
}

func TestDedupCacheMatchesMapModel(t *testing.T) {
	for _, window := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(window)))
			d := NewDedupCache(window)
			m := &mapDedup{window: window, m: make(map[r2p2.RequestID]*dedupEntry)}
			// IDs from a space a few windows wide, so lookups hit and
			// miss, re-records happen and the ring wraps many times.
			space := uint32(3*window + 5)
			randID := func() r2p2.RequestID {
				return r2p2.RequestID{SrcIP: uint32(rng.Intn(2)), SrcPort: uint16(rng.Intn(3)), ReqID: rng.Uint32() % space}
			}
			for step := 0; step < 20*window+500; step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					id, replier := randID(), raft.NodeID(rng.Intn(4))
					var reply []byte
					if rng.Intn(3) > 0 {
						reply = []byte{byte(step)}
					}
					d.Record(id, reply, replier)
					m.record(id, reply, replier)
				case op < 9:
					id := randID()
					r1, p1, h1, ok1 := d.Lookup(id)
					r2, p2, h2, ok2 := m.lookup(id)
					if ok1 != ok2 || h1 != h2 || p1 != p2 || !bytes.Equal(r1, r2) {
						t.Fatalf("window %d seed %d step %d: Lookup(%v) = %v %v %v %v, model %v %v %v %v",
							window, seed, step, id, r1, p1, h1, ok1, r2, p2, h2, ok2)
					}
				default:
					ids := []r2p2.RequestID{randID(), randID(), randID()}
					d.seedFromSnapshot(ids)
					m.seed(ids)
				}
				if d.Len() != len(m.m) || d.Hits != m.hits || d.Evicted != m.evicts {
					t.Fatalf("window %d seed %d step %d: len/hits/evicted %d/%d/%d, model %d/%d/%d",
						window, seed, step, d.Len(), d.Hits, d.Evicted, len(m.m), m.hits, m.evicts)
				}
			}
			model := &DedupCache{}
			model.ring = make([]dedupEntry, len(m.fifo))
			for i, id := range m.fifo {
				model.ring[i].id = id
			}
			if got, want := wrapSnapshot(d, []byte("app")), wrapSnapshot(model, []byte("app")); !bytes.Equal(got, want) {
				t.Fatalf("window %d seed %d: snapshot bytes differ from the model's FIFO", window, seed)
			}
		}
	}
}

// TestDedupCacheSteadyStateAllocs pins the cache's per-operation cost
// at a full default window: an apply-order Record of a new ID plus the
// ingress and apply lookups allocate nothing once the ring has wrapped.
func TestDedupCacheSteadyStateAllocs(t *testing.T) {
	const window = 65536
	d := NewDedupCache(window)
	next := uint32(0)
	reply := []byte{0}
	op := func() {
		next++
		id := r2p2.RequestID{SrcIP: 1, SrcPort: 2, ReqID: next}
		d.Lookup(id)
		d.Record(id, nil, 1)
		d.Record(id, reply, 1)
		d.Lookup(id)
	}
	for i := 0; i < 2*window; i++ {
		op()
	}
	if a := testing.AllocsPerRun(1000, op); a != 0 {
		t.Fatalf("steady-state Lookup+Record: %v allocs/op, want 0", a)
	}
	if d.Len() != window {
		t.Fatalf("len %d, want the full window %d", d.Len(), window)
	}
}

func BenchmarkDedupCacheSteadyState(b *testing.B) {
	const window = 65536
	d := NewDedupCache(window)
	reply := []byte{0}
	for i := 0; i < window; i++ {
		d.Record(rid(uint32(i)), reply, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rid(uint32(window + i))
		d.Lookup(id)
		d.Lookup(id)
		d.Record(id, reply, 1)
	}
}
