package core

import (
	"sort"
	"time"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
)

// unorderedEntry is a client request body parked while waiting for the
// leader to announce its position in the log.
type unorderedEntry struct {
	policy   r2p2.Policy
	data     []byte
	hash     uint64
	deadline time.Duration
	seq      uint64 // arrival order, so Drain is deterministic
}

// UnorderedStore holds multicast-received client requests that have not
// yet been ordered by an AppendEntries (paper §3.2). Requests are indexed
// by the R2P2 3-tuple; lingering requests are garbage collected after a
// timeout (early GC is safe — it merely re-triggers recovery, §5).
// Entries are stored by value: every request body passes through here
// on every replica, and the map reuses its slots as bodies come and go.
type UnorderedStore struct {
	timeout time.Duration
	m       map[r2p2.RequestID]unorderedEntry
	nextSeq uint64

	// Stats.
	Promoted  uint64
	Collected uint64
}

// NewUnorderedStore returns a store with the given GC timeout.
func NewUnorderedStore(timeout time.Duration) *UnorderedStore {
	return &UnorderedStore{timeout: timeout, m: make(map[r2p2.RequestID]unorderedEntry)}
}

// Put parks a request body. Duplicate IDs are ignored (first copy wins;
// the hash guards against corruption-level mismatches downstream).
func (u *UnorderedStore) Put(id r2p2.RequestID, policy r2p2.Policy, data []byte, now time.Duration) {
	if _, ok := u.m[id]; ok {
		return
	}
	u.nextSeq++
	u.m[id] = unorderedEntry{
		policy:   policy,
		data:     data,
		hash:     raft.Hash64(data),
		deadline: now + u.timeout,
		seq:      u.nextSeq,
	}
}

// Take removes and returns the body for id if present and its hash
// matches wantHash (0 skips the check).
func (u *UnorderedStore) Take(id r2p2.RequestID, wantHash uint64) ([]byte, bool) {
	e, ok := u.m[id]
	if !ok {
		return nil, false
	}
	if wantHash != 0 && e.hash != wantHash {
		// ID collision with different content: treat as missing so the
		// recovery path fetches the authoritative body.
		return nil, false
	}
	delete(u.m, id)
	u.Promoted++
	return e.data, true
}

// Drop removes id without returning it (used when an entry is applied or
// otherwise resolved elsewhere).
func (u *UnorderedStore) Drop(id r2p2.RequestID) { delete(u.m, id) }

// Drain removes and returns every parked request in arrival order — the
// new-leader path: after winning an election the leader orders everything
// it has heard but that the old leader never announced (§5). The order is
// deterministic (arrival sequence, never map order) so that a failover
// replays identically under the same seed.
func (u *UnorderedStore) Drain() []raft.Entry {
	type drained struct {
		seq uint64
		ent raft.Entry
	}
	all := make([]drained, 0, len(u.m))
	for id, e := range u.m {
		kind := raft.KindReadWrite
		if e.policy == r2p2.PolicyReplicatedRO {
			kind = raft.KindReadOnly
		}
		all = append(all, drained{seq: e.seq, ent: raft.Entry{
			Kind: kind, ID: id, BodyHash: e.hash, Data: e.data,
		}})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]raft.Entry, len(all))
	for i := range all {
		out[i] = all[i].ent
	}
	u.m = make(map[r2p2.RequestID]unorderedEntry)
	return out
}

// GC removes requests past their deadline, returning the count.
func (u *UnorderedStore) GC(now time.Duration) int {
	n := 0
	for id, e := range u.m {
		if now >= e.deadline {
			delete(u.m, id)
			n++
		}
	}
	u.Collected += uint64(n)
	return n
}

// Len returns the number of parked requests.
func (u *UnorderedStore) Len() int { return len(u.m) }
