package raft

import "encoding/binary"

// BufferStorage is a Storage keeping the framed WAL in a byte buffer —
// the in-memory twin of FileStorage for the deterministic simulator. It
// uses the exact record framing and replay logic of FileStorage, so
// restart-from-WAL paths (including torn tails) behave byte-for-byte
// like the durable implementation, without touching the filesystem or
// the wall clock.
type BufferStorage struct {
	wal []byte

	hasSnap  bool
	snapIdx  uint64
	snapTerm uint64
	snapData []byte

	// OnAppend, when non-nil, is called with the framed size of every
	// record written. The simulator uses it to charge persistence cost
	// (the fsync-delay fault) to the writing node's CPU.
	OnAppend func(bytes int)
}

// NewBufferStorage returns an empty in-memory WAL.
func NewBufferStorage() *BufferStorage { return &BufferStorage{} }

func (b *BufferStorage) append(typ uint8, body []byte) {
	rec := frame(typ, body)
	b.wal = append(b.wal, rec...)
	if b.OnAppend != nil {
		b.OnAppend(len(rec))
	}
}

// SaveState implements Storage.
func (b *BufferStorage) SaveState(term uint64, vote NodeID) {
	var body [12]byte
	binary.BigEndian.PutUint64(body[0:8], term)
	binary.BigEndian.PutUint32(body[8:12], uint32(vote))
	b.append(recState, body[:])
}

// AppendEntries implements Storage.
func (b *BufferStorage) AppendEntries(entries []Entry) {
	for i := range entries {
		b.append(recEntry, EncodeEntry(&entries[i], nil))
	}
}

// SaveSnapshot implements Storage with FileStorage's semantics: the
// snapshot replaces the WAL's prefix, and the rewritten WAL re-records
// the term/vote and every entry above index.
func (b *BufferStorage) SaveSnapshot(index, term uint64, data []byte) {
	rs := &RecoveredState{SnapIdx: b.snapIdx}
	_, _ = replayWALBytes(b.wal, rs)
	b.hasSnap = true
	b.snapIdx = index
	b.snapTerm = term
	b.snapData = append([]byte(nil), data...)
	gen, _ := rs.compacted(index, term)
	b.wal = append(b.wal[:0], gen...)
	if b.OnAppend != nil {
		b.OnAppend(len(gen))
	}
}

// WALLen returns the current framed WAL size in bytes.
func (b *BufferStorage) WALLen() int { return len(b.wal) }

// TruncateTail discards the last n bytes of the WAL, simulating a crash
// that tore the tail of the log mid-write. Recovery then exercises the
// same torn-tail discard path a real post-crash replay would.
func (b *BufferStorage) TruncateTail(n int) {
	if n <= 0 {
		return
	}
	if n > len(b.wal) {
		n = len(b.wal)
	}
	b.wal = b.wal[:len(b.wal)-n]
}

// Recover replays the snapshot and WAL into a RecoveredState, exactly as
// OpenFileStorage would after a crash, and like it cuts a torn tail off
// the WAL. The storage keeps accepting appends (the restarted node
// continues on the same log).
func (b *BufferStorage) Recover() (*RecoveredState, error) {
	rs := &RecoveredState{}
	if b.hasSnap {
		rs.SnapIdx = b.snapIdx
		rs.SnapTerm = b.snapTerm
		rs.SnapData = append([]byte(nil), b.snapData...)
	}
	valid, err := replayWALBytes(b.wal, rs)
	if err != nil {
		return nil, err
	}
	b.wal = b.wal[:valid]
	return rs, nil
}
