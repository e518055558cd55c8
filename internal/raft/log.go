package raft

import "fmt"

// Log is the in-memory replicated log with compaction support.
//
// Index bookkeeping: the first retained entry has index snapIndex+1.
// Everything at or below snapIndex has been compacted into a snapshot.
// commit and applied track the usual Raft indices (applied <= commit <=
// lastIndex).
//
// Storage is a list of fixed-size chunks, not one slice: appending never
// copies the log (one growing slice reallocates and zeroes ~100MB at a
// million entries, a pause of hundreds of milliseconds on the leader's
// only thread — longer than the election timeout), compaction frees
// whole chunks, and Entry pointers stay valid across appends. The entry
// with index i sits at position i-FirstIndex+head, counted from the
// start of chunks[0].
type Log struct {
	chunks [][]Entry
	head   int // leading entries of chunks[0] already compacted away
	n      int // retained entries

	snapIndex uint64 // last compacted index
	snapTerm  uint64 // term of entry snapIndex
	snapData  []byte // application snapshot at snapIndex

	commit  uint64
	applied uint64
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// FirstIndex returns the index of the oldest retained entry
// (snapIndex+1). If the log is empty it still returns snapIndex+1, the
// index the next entry will get.
func (l *Log) FirstIndex() uint64 { return l.snapIndex + 1 }

// LastIndex returns the index of the newest entry (snapIndex if empty).
func (l *Log) LastIndex() uint64 { return l.snapIndex + uint64(l.n) }

const (
	logChunkBits = 12
	logChunkLen  = 1 << logChunkBits // entries per chunk (~300KB)
)

// at returns the slot of retained index i (FirstIndex <= i <= LastIndex).
func (l *Log) at(i uint64) *Entry {
	pos := int(i-l.FirstIndex()) + l.head
	return &l.chunks[pos>>logChunkBits][pos&(logChunkLen-1)]
}

// push appends e at the tail.
func (l *Log) push(e Entry) {
	c := (l.head + l.n) >> logChunkBits
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]Entry, 0, logChunkLen))
	}
	l.chunks[c] = append(l.chunks[c], e)
	l.n++
}

// truncate discards every entry after the first keep.
func (l *Log) truncate(keep int) {
	end := l.head + keep
	full, rem := end>>logChunkBits, end&(logChunkLen-1)
	if rem == 0 {
		l.chunks = l.chunks[:full]
	} else {
		l.chunks = l.chunks[:full+1]
		l.chunks[full] = l.chunks[full][:rem]
	}
	l.n = keep
}

// copyRange fills dst with the retained entries starting at index lo.
func (l *Log) copyRange(dst []Entry, lo uint64) {
	pos := int(lo-l.FirstIndex()) + l.head
	for len(dst) > 0 {
		c := l.chunks[pos>>logChunkBits][pos&(logChunkLen-1):]
		k := copy(dst, c)
		dst, pos = dst[k:], pos+k
	}
}

// Commit returns the commit index.
func (l *Log) Commit() uint64 { return l.commit }

// Applied returns the applied index.
func (l *Log) Applied() uint64 { return l.applied }

// SnapIndex returns the index covered by the latest snapshot.
func (l *Log) SnapIndex() uint64 { return l.snapIndex }

// SnapTerm returns the term of the entry at SnapIndex.
func (l *Log) SnapTerm() uint64 { return l.snapTerm }

// SnapData returns the latest snapshot blob (nil if none).
func (l *Log) SnapData() []byte { return l.snapData }

// Term returns the term of the entry at index i, or false if i is out of
// the retained range. The snapshot boundary itself is answerable.
func (l *Log) Term(i uint64) (uint64, bool) {
	if i == l.snapIndex {
		return l.snapTerm, true
	}
	if i < l.FirstIndex() || i > l.LastIndex() {
		return 0, false
	}
	return l.at(i).Term, true
}

// LastTerm returns the term of the last entry (or snapshot).
func (l *Log) LastTerm() uint64 {
	t, _ := l.Term(l.LastIndex())
	return t
}

// Entry returns a pointer to the entry at index i, or nil if compacted or
// absent. The pointer aliases log storage: callers may fill in a missing
// Data body (HovercRaft promotion) but must not change Term/Index.
func (l *Log) Entry(i uint64) *Entry {
	if i < l.FirstIndex() || i > l.LastIndex() {
		return nil
	}
	return l.at(i)
}

// Slice returns entries [lo, hi] inclusive, capped at maxEntries
// (0 = unlimited). Out-of-range bounds are clipped to the retained range;
// the result may be empty.
func (l *Log) Slice(lo, hi uint64, maxEntries int) []Entry {
	if lo < l.FirstIndex() {
		lo = l.FirstIndex()
	}
	if hi > l.LastIndex() {
		hi = l.LastIndex()
	}
	if lo > hi {
		return nil
	}
	if maxEntries > 0 && hi-lo+1 > uint64(maxEntries) {
		hi = lo + uint64(maxEntries) - 1
	}
	out := make([]Entry, hi-lo+1)
	l.copyRange(out, lo)
	return out
}

// View returns the entries in [lo, hi] as a window into the log's own
// storage — no copy, except for the rare range that straddles a chunk
// boundary, which is copied out. maxEntries > 0 caps the count;
// maxBytes > 0 caps the cumulative wire size (fixed per-entry metadata
// plus carried data), always admitting at least one entry so progress
// never stalls. The view is only valid until the log is next mutated:
// it is for messages that are encoded and dropped within the same drain
// step (the send hot path). Callers that retain entries (storage,
// tests) use Slice.
func (l *Log) View(lo, hi uint64, maxEntries, maxBytes int) []Entry {
	if lo < l.FirstIndex() {
		lo = l.FirstIndex()
	}
	if hi > l.LastIndex() {
		hi = l.LastIndex()
	}
	if lo > hi {
		return nil
	}
	if maxEntries > 0 && hi-lo+1 > uint64(maxEntries) {
		hi = lo + uint64(maxEntries) - 1
	}
	var w []Entry
	pos, count := int(lo-l.FirstIndex())+l.head, int(hi-lo+1)
	if c, off := l.chunks[pos>>logChunkBits], pos&(logChunkLen-1); off+count <= len(c) {
		w = c[off : off+count]
	} else {
		w = make([]Entry, count)
		l.copyRange(w, lo)
	}
	if maxBytes > 0 {
		bytes := 0
		for i := range w {
			bytes += EntryWireSize(&w[i])
			if bytes > maxBytes && i > 0 {
				w = w[:i]
				break
			}
		}
	}
	return w
}

// Append adds entries at the tail, assigning indices; the caller sets
// terms. Returns the last index.
func (l *Log) Append(entries ...Entry) uint64 {
	for i := range entries {
		entries[i].Index = l.LastIndex() + 1
		l.push(entries[i])
	}
	return l.LastIndex()
}

// MatchesAt reports whether the log contains an entry at index i with
// term t (the AppendEntries consistency check).
func (l *Log) MatchesAt(i, t uint64) bool {
	term, ok := l.Term(i)
	return ok && term == t
}

// TryAppend implements the follower side of AppendEntries: verify the
// (prevIndex, prevTerm) consistency check, truncate on conflict, append
// what is new. Returns the new last matched index and whether the check
// passed. Committed entries are never truncated (they cannot conflict in
// a correct system; a conflict there panics, exposing the bug).
func (l *Log) TryAppend(prevIndex, prevTerm uint64, entries []Entry) (uint64, bool) {
	if !l.MatchesAt(prevIndex, prevTerm) {
		return 0, false
	}
	for k, e := range entries {
		idx := prevIndex + 1 + uint64(k)
		if idx != e.Index {
			panic(fmt.Sprintf("raft: entry index %d != expected %d", e.Index, idx))
		}
		if idx <= l.LastIndex() {
			if term, ok := l.Term(idx); ok && term == e.Term {
				// Duplicate of what we already have — but a
				// metadata-only copy must not clobber a body we
				// already promoted, and a body-carrying copy may
				// fill one we miss.
				if have := l.Entry(idx); have != nil && have.Data == nil && e.Data != nil {
					have.Data = e.Data
				}
				continue
			}
			// Conflict: discard idx and everything after it.
			if idx <= l.commit {
				panic(fmt.Sprintf("raft: conflict at committed index %d", idx))
			}
			l.truncate(int(idx - l.FirstIndex()))
		}
		l.push(e)
	}
	last := prevIndex + uint64(len(entries))
	if last > l.LastIndex() {
		last = l.LastIndex()
	}
	return last, true
}

// CommitTo raises the commit index to min(i, lastIndex). It never
// regresses. Returns true if commit advanced.
func (l *Log) CommitTo(i uint64) bool {
	if i > l.LastIndex() {
		i = l.LastIndex()
	}
	if i <= l.commit {
		return false
	}
	l.commit = i
	return true
}

// AppliedTo records that the state machine has applied up to i.
func (l *Log) AppliedTo(i uint64) {
	if i < l.applied || i > l.commit {
		panic(fmt.Sprintf("raft: applied %d out of range (applied=%d commit=%d)", i, l.applied, l.commit))
	}
	l.applied = i
}

// NextCommitted returns up to max committed-but-unapplied entries
// (0 = all), without consuming them; the caller applies and then calls
// AppliedTo.
func (l *Log) NextCommitted(max int) []Entry {
	if l.applied >= l.commit {
		return nil
	}
	return l.Slice(l.applied+1, l.commit, max)
}

// Compact discards entries up to and including index i, recording the
// snapshot blob for that prefix. i must be applied.
func (l *Log) Compact(i uint64, snapData []byte) error {
	if i <= l.snapIndex {
		return nil // already compacted
	}
	if i > l.applied {
		return fmt.Errorf("raft: compact %d beyond applied %d", i, l.applied)
	}
	term, ok := l.Term(i)
	if !ok {
		return fmt.Errorf("raft: compact %d not in log", i)
	}
	dropped := int(i - l.snapIndex)
	l.head, l.n = l.head+dropped, l.n-dropped
	if whole := l.head >> logChunkBits; whole > 0 {
		// Shift down rather than reslice, so the freed chunks are not
		// kept reachable through the backing array.
		k := copy(l.chunks, l.chunks[whole:])
		clear(l.chunks[k:])
		l.chunks = l.chunks[:k]
		l.head &= logChunkLen - 1
	}
	l.snapIndex = i
	l.snapTerm = term
	l.snapData = snapData
	return nil
}

// Restore replaces the entire log with a snapshot at (index, term) —
// the receiver side of InstallSnapshot.
func (l *Log) Restore(index, term uint64, snapData []byte) {
	l.chunks, l.head, l.n = nil, 0, 0
	l.snapIndex = index
	l.snapTerm = term
	l.snapData = snapData
	l.commit = index
	l.applied = index
}

// IsUpToDate reports whether a candidate with the given last log position
// is at least as up to date as this log (Raft election restriction §5.4.1).
func (l *Log) IsUpToDate(lastIndex, lastTerm uint64) bool {
	if lastTerm != l.LastTerm() {
		return lastTerm > l.LastTerm()
	}
	return lastIndex >= l.LastIndex()
}
