package core

import (
	"encoding/binary"
	"fmt"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
)

// dedupEntry remembers one applied read-write request: its reply (so the
// designated replier can answer a retransmission without re-executing)
// and which node was assigned the reply. reply is nil for entries
// restored from a snapshot — the ID is still suppressed, but the answer
// is regenerated only by the client's own retry against a replica that
// kept the bytes.
type dedupEntry struct {
	id      r2p2.RequestID
	reply   []byte
	replier raft.NodeID
	has     bool // reply bytes are valid (false after snapshot restore)
}

// DedupCache is the server side of exactly-once request semantics: a
// bounded FIFO of the most recently applied read-write RPC IDs (the R2P2
// 3-tuple ⟨SrcIP, SrcPort, ReqID⟩) with their replies. Every replica
// maintains an identical cache — Record is called in apply order, and
// eviction is strict insertion order — so the "is this a duplicate?"
// decision at apply time is the same on every node, which keeps state
// machines identical even when a retransmitted request is re-proposed by
// a new leader after failover.
//
// The window bounds memory; a client that retries longer than the window
// covers (tens of thousands of operations later) can in principle
// double-execute, so retry budgets must stay well inside it.
//
// Every replica looks an ID up twice per operation (at ingress and at
// apply) and records it once, so the layout allocates nothing in steady
// state: entries live by value in a ring of window slots, oldest at
// head, and a map from ID to ring slot finds them. Once the window is
// full each Record overwrites the oldest slot.
type DedupCache struct {
	window int
	ring   []dedupEntry // insertion order from head, wrapping once full
	head   int          // ring slot of the oldest entry
	slots  map[r2p2.RequestID]int32

	// Stats.
	Hits    uint64
	Evicted uint64
}

// NewDedupCache returns a cache remembering the last window IDs.
func NewDedupCache(window int) *DedupCache {
	return &DedupCache{window: window, slots: make(map[r2p2.RequestID]int32)}
}

// find returns id's ring slot, or -1.
func (d *DedupCache) find(id r2p2.RequestID) int {
	if slot, ok := d.slots[id]; ok {
		return int(slot)
	}
	return -1
}

// Seen reports whether id was already applied (still inside the window).
func (d *DedupCache) Seen(id r2p2.RequestID) bool {
	if d.find(id) < 0 {
		return false
	}
	d.Hits++
	return true
}

// Lookup returns the cached reply for id. ok reports a cache hit;
// hasReply reports whether the reply bytes survived (false when the
// entry came in via snapshot restore).
func (d *DedupCache) Lookup(id r2p2.RequestID) (reply []byte, replier raft.NodeID, hasReply, ok bool) {
	slot := d.find(id)
	if slot < 0 {
		return nil, raft.None, false, false
	}
	d.Hits++
	e := &d.ring[slot]
	return e.reply, e.replier, e.has, true
}

// Record remembers an applied request and its reply. Re-recording an
// existing ID only fills in missing reply bytes (it never reorders the
// FIFO, so eviction stays deterministic across replicas).
func (d *DedupCache) Record(id r2p2.RequestID, reply []byte, replier raft.NodeID) {
	if slot := d.find(id); slot >= 0 {
		if e := &d.ring[slot]; !e.has && reply != nil {
			e.reply, e.replier, e.has = reply, replier, true
		}
		return
	}
	d.insert(dedupEntry{id: id, reply: reply, replier: replier, has: reply != nil})
}

// insert appends e, which must be absent, as the newest entry, evicting
// the oldest once the window is full.
func (d *DedupCache) insert(e dedupEntry) {
	if d.window <= 0 {
		d.Evicted++ // remembered and forgotten at once
		return
	}
	if len(d.ring) < d.window {
		d.slots[e.id] = int32(len(d.ring))
		d.ring = append(d.ring, e)
		return
	}
	delete(d.slots, d.ring[d.head].id)
	d.ring[d.head] = e
	d.slots[e.id] = int32(d.head)
	d.head++
	if d.head == len(d.ring) {
		d.head = 0
	}
	d.Evicted++
}

// Len returns the number of remembered IDs.
func (d *DedupCache) Len() int { return len(d.ring) }

// ids appends the remembered IDs to dst, oldest first.
func (d *DedupCache) ids(dst []r2p2.RequestID) []r2p2.RequestID {
	for i := range d.ring {
		dst = append(dst, d.ring[(d.head+i)%len(d.ring)].id)
	}
	return dst
}

// --- snapshot integration -------------------------------------------------

// Snapshot blobs are wrapped so the dedup window travels with compaction:
// a replica restored from a snapshot must keep suppressing duplicates of
// requests whose effects are baked into that snapshot, or a retried write
// re-proposed after failover would execute twice on the restored node and
// diverge its state machine. Only the IDs are carried (in FIFO order);
// reply bytes are dropped — suppression is a safety property, resending
// the answer is best-effort.
//
// Layout: "HCDD" magic, u32 count, count × (u32 SrcIP, u16 SrcPort,
// u32 ReqID), then the application blob verbatim.

var dedupSnapMagic = [4]byte{'H', 'C', 'D', 'D'}

// wrapSnapshot prepends d's ID window to the application blob. A nil
// cache wraps an empty window so the format is uniform.
func wrapSnapshot(d *DedupCache, app []byte) []byte {
	var ids []r2p2.RequestID
	if d != nil {
		ids = d.ids(make([]r2p2.RequestID, 0, d.Len()))
	}
	out := make([]byte, 0, 8+10*len(ids)+len(app))
	out = append(out, dedupSnapMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		out = binary.BigEndian.AppendUint32(out, id.SrcIP)
		out = binary.BigEndian.AppendUint16(out, id.SrcPort)
		out = binary.BigEndian.AppendUint32(out, id.ReqID)
	}
	return append(out, app...)
}

// unwrapSnapshot splits a wrapped blob into the ID window and the
// application payload. Unwrapped (legacy/test) blobs pass through with an
// empty window.
func unwrapSnapshot(blob []byte) (ids []r2p2.RequestID, app []byte, err error) {
	if len(blob) < 8 || [4]byte(blob[:4]) != dedupSnapMagic {
		return nil, blob, nil
	}
	n := int(binary.BigEndian.Uint32(blob[4:8]))
	if len(blob) < 8+10*n {
		return nil, nil, fmt.Errorf("dedup snapshot header claims %d ids, blob too short", n)
	}
	ids = make([]r2p2.RequestID, n)
	off := 8
	for i := 0; i < n; i++ {
		ids[i] = r2p2.RequestID{
			SrcIP:   binary.BigEndian.Uint32(blob[off : off+4]),
			SrcPort: binary.BigEndian.Uint16(blob[off+4 : off+6]),
			ReqID:   binary.BigEndian.Uint32(blob[off+6 : off+10]),
		}
		off += 10
	}
	return ids, blob[off:], nil
}

// seedFromSnapshot merges a restored ID window into the cache: IDs whose
// effects are inside the restored state but whose replies are gone.
func (d *DedupCache) seedFromSnapshot(ids []r2p2.RequestID) {
	for _, id := range ids {
		if d.find(id) < 0 {
			d.insert(dedupEntry{id: id, replier: raft.None})
		}
	}
}
