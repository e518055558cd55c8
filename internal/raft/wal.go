package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FileStorage is a write-ahead log implementing Storage on a directory:
//
//	<dir>/wal      — framed records: term/vote updates and log entries
//	<dir>/snapshot — latest snapshot (index, term, application blob)
//
// Records are CRC-framed; a torn tail (crash mid-write) is detected and
// discarded on recovery, and cut off the file at open so later records
// do not land behind it. SaveSnapshot atomically replaces the snapshot
// file and rewrites the WAL without the entries the snapshot covers: it
// keeps the term/vote and every entry above the snapshot index.
//
// With Sync enabled every record is fsynced before returning, giving the
// classical Raft durability guarantee. The paper's µs-scale setting
// assumes NVM-backed logs where persistence is off the critical path
// (§2.3); Sync=false matches that model while still surviving clean
// restarts.
//
// GroupCommit turns on durability group commit: records are staged in
// memory, concatenated into one vectored write, and covered by a single
// fsync at the next Flush (the runtime's durability barrier — see
// GroupCommitter). Appends staged by one loop pass then cost one syscall
// pair instead of one write+fsync each. Zero group-commit parameters
// preserve the classical per-record write(+sync) path bit-for-bit.
type FileStorage struct {
	mu      sync.Mutex
	dir     string
	wal     *os.File
	Sync    bool
	snapIdx uint64 // index of the snapshot on disk (0: none)

	// Group commit state: pend holds framed-but-unwritten records.
	maxBatch  int           // stage at most this many records (<=1: off)
	delay     time.Duration // MaybeFlush age bound (0: flush whenever pending)
	pend      []byte
	pendRecs  int
	pendSince time.Time

	// Accounting (also the test/bench observability surface).
	recs    uint64 // records in the current WAL generation, incl. staged
	durable uint64 // records covered by a completed write(+sync if Sync)
	syncs   uint64 // fsyncs issued
}

var _ GroupCommitter = (*FileStorage)(nil)

// RecoveredState is everything a node needs to resume after a restart.
type RecoveredState struct {
	Term     uint64
	Vote     NodeID
	SnapIdx  uint64
	SnapTerm uint64
	SnapData []byte
	Entries  []Entry // contiguous, starting at SnapIdx+1
}

// Record types in the WAL.
const (
	recState uint8 = iota + 1
	recEntry
)

// ErrCorrupt reports unrecoverable WAL damage (not a torn tail, which is
// handled silently).
var ErrCorrupt = errors.New("raft: corrupt WAL record")

// OpenFileStorage opens (or creates) the storage under dir and returns
// the recovered state (zero-valued for a fresh directory).
func OpenFileStorage(dir string, sync bool) (*FileStorage, *RecoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("raft: wal dir: %w", err)
	}
	rs := &RecoveredState{}
	if err := loadSnapshotFile(filepath.Join(dir, "snapshot"), rs); err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(dir, "wal")
	valid, size, err := replayWAL(walPath, rs)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("raft: open wal: %w", err)
	}
	if valid < size {
		// Cut the torn tail before the first append: records written
		// behind it would be unreachable to the next replay, which stops
		// at the torn bytes.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("raft: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("raft: sync truncated wal: %w", err)
		}
	}
	return &FileStorage{dir: dir, wal: f, Sync: sync, snapIdx: rs.SnapIdx}, rs, nil
}

// Close flushes staged records and releases the WAL file handle.
func (s *FileStorage) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.wal.Close()
}

// GroupCommit configures durability group commit. maxBatch caps how
// many records may be staged before append itself forces a flush;
// delay bounds how long MaybeFlush lets a staged record age before
// flushing it. maxBatch <= 1 keeps today's per-record write(+sync)
// semantics; delay 0 makes MaybeFlush flush whenever anything is
// staged. Configure before handing the storage to a node.
func (s *FileStorage) GroupCommit(maxBatch int, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	s.maxBatch = maxBatch
	s.delay = delay
}

// appendFrame appends one framed record (length, type, body, CRC) to
// dst — the shared encoding of the file-backed and in-memory WALs, and
// the unit the group-commit staging buffer concatenates.
func appendFrame(dst []byte, typ uint8, body []byte) []byte {
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(1+len(body)))
	dst = append(dst, lenb[:]...)
	payloadStart := len(dst)
	dst = append(dst, typ)
	dst = append(dst, body...)
	var crcb [4]byte
	binary.BigEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(dst[payloadStart:]))
	return append(dst, crcb[:]...)
}

func frame(typ uint8, body []byte) []byte {
	return appendFrame(make([]byte, 0, 4+1+len(body)+4), typ, body)
}

func (s *FileStorage) append(typ uint8, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs++
	if s.maxBatch > 1 {
		if s.pendRecs == 0 {
			s.pendSince = time.Now()
		}
		s.pend = appendFrame(s.pend, typ, body)
		s.pendRecs++
		if s.pendRecs >= s.maxBatch {
			s.flushLocked()
		}
		return
	}
	if _, err := s.wal.Write(frame(typ, body)); err != nil {
		panic(fmt.Sprintf("raft: wal write: %v", err)) // durability lost; fail stop
	}
	if s.Sync {
		if err := s.wal.Sync(); err != nil {
			panic(fmt.Sprintf("raft: wal sync: %v", err))
		}
		s.syncs++
	}
	s.durable = s.recs
}

// flushLocked writes the staged batch in one syscall and covers it with
// one fsync. Callers hold s.mu.
func (s *FileStorage) flushLocked() {
	if s.pendRecs == 0 {
		return
	}
	if _, err := s.wal.Write(s.pend); err != nil {
		panic(fmt.Sprintf("raft: wal batch write: %v", err)) // durability lost; fail stop
	}
	s.pend = s.pend[:0]
	s.pendRecs = 0
	if s.Sync {
		if err := s.wal.Sync(); err != nil {
			panic(fmt.Sprintf("raft: wal batch sync: %v", err))
		}
		s.syncs++
	}
	s.durable = s.recs
}

// Flush implements GroupCommitter: the runtime's durability barrier.
func (s *FileStorage) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

// MaybeFlush implements GroupCommitter: flush staged records older than
// the configured delay (all staged records when delay is zero).
func (s *FileStorage) MaybeFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendRecs == 0 {
		return
	}
	if s.delay > 0 && time.Since(s.pendSince) < s.delay {
		return
	}
	s.flushLocked()
}

// SyncCount returns the number of fsyncs this handle has issued — the
// denominator benchcheck gates fsyncs/req against.
func (s *FileStorage) SyncCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// DurableRecords returns how many records written through this handle
// (current WAL generation) are covered by a completed write — and by a
// covering fsync when Sync is enabled. The group-commit property test
// uses it as the floor no crash may recover below.
func (s *FileStorage) DurableRecords() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// PendingRecords returns how many staged records await the next flush.
func (s *FileStorage) PendingRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendRecs
}

// SaveState implements Storage.
func (s *FileStorage) SaveState(term uint64, vote NodeID) {
	var body [12]byte
	binary.BigEndian.PutUint64(body[0:8], term)
	binary.BigEndian.PutUint32(body[8:12], uint32(vote))
	s.append(recState, body[:])
}

// AppendEntries implements Storage.
func (s *FileStorage) AppendEntries(entries []Entry) {
	for i := range entries {
		s.append(recEntry, EncodeEntry(&entries[i], nil))
	}
}

// SaveSnapshot implements Storage: atomically replace the snapshot, then
// rewrite the WAL without the entries the snapshot covers. The rewritten
// WAL holds the current term/vote and every entry above index (see
// RecoveredState.entriesAfter) — entries this node may already have
// acknowledged, which a crash must not take back. The new WAL is built
// in a temporary file and renamed into place, so a crash mid-rewrite
// leaves the old WAL, whose replay over the new snapshot skips the
// entries the snapshot covers.
func (s *FileStorage) SaveSnapshot(index, term uint64, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Staged records must reach the file before we replay it below, and
	// the snapshot must not cover acked-but-staged entries.
	s.flushLocked()
	snapTmp := filepath.Join(s.dir, "snapshot.tmp")
	blob := make([]byte, 16+len(data))
	binary.BigEndian.PutUint64(blob[0:8], index)
	binary.BigEndian.PutUint64(blob[8:16], term)
	copy(blob[16:], data)
	if err := os.WriteFile(snapTmp, blob, 0o644); err != nil {
		panic(fmt.Sprintf("raft: snapshot write: %v", err))
	}
	if err := os.Rename(snapTmp, filepath.Join(s.dir, "snapshot")); err != nil {
		panic(fmt.Sprintf("raft: snapshot rename: %v", err))
	}
	// Rewrite the WAL from a replay of our own file: term/vote and the
	// entries above index carry over.
	walPath := filepath.Join(s.dir, "wal")
	rs := &RecoveredState{SnapIdx: s.snapIdx}
	if _, _, err := replayWAL(walPath, rs); err != nil {
		panic(fmt.Sprintf("raft: wal replay for snapshot: %v", err))
	}
	gen, recs := rs.compacted(index, term)
	tmp := walPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		panic(fmt.Sprintf("raft: wal rewrite: %v", err))
	}
	if _, err := f.Write(gen); err != nil {
		panic(fmt.Sprintf("raft: wal rewrite write: %v", err))
	}
	if s.Sync {
		if err := f.Sync(); err != nil {
			panic(fmt.Sprintf("raft: wal rewrite sync: %v", err))
		}
		s.syncs++
	}
	if err := os.Rename(tmp, walPath); err != nil {
		panic(fmt.Sprintf("raft: wal rewrite rename: %v", err))
	}
	// f is positioned at the end of the new WAL, so later appends land
	// behind the records it was built with.
	s.wal.Close()
	s.wal = f
	s.snapIdx = index
	s.recs, s.durable = uint64(recs), uint64(recs)
}

// compacted encodes the WAL generation that follows a snapshot at
// (index, term): a state record carrying rs's term/vote, then every
// entry after the snapshot. It returns the framed bytes and how many
// records they hold.
func (rs *RecoveredState) compacted(index, term uint64) ([]byte, int) {
	var body [12]byte
	binary.BigEndian.PutUint64(body[0:8], rs.Term)
	binary.BigEndian.PutUint32(body[8:12], uint32(rs.Vote))
	out := appendFrame(nil, recState, body[:])
	keep := rs.entriesAfter(index, term)
	for i := range keep {
		out = appendFrame(out, recEntry, EncodeEntry(&keep[i], nil))
	}
	return out, 1 + len(keep)
}

// entriesAfter returns the replayed entries that follow a snapshot at
// (index, term): those above index, provided the entry at index has the
// snapshot's term, i.e. the log extends the snapshot. A suffix that
// diverges from it (a follower installing its leader's snapshot over
// conflicting entries) is dropped, as Raft's InstallSnapshot discards
// the log unless it holds the snapshot's last entry. A snapshot is
// always above the previous one (raft compacts or installs only past
// its snapshot index), so the entry at index, if any, is in rs.Entries.
func (rs *RecoveredState) entriesAfter(index, term uint64) []Entry {
	if index <= rs.SnapIdx {
		return nil
	}
	n := index - rs.SnapIdx // entries up to and including index
	if n > uint64(len(rs.Entries)) || rs.Entries[n-1].Term != term {
		return nil
	}
	return rs.Entries[n:]
}

func loadSnapshotFile(path string, rs *RecoveredState) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("raft: read snapshot: %w", err)
	}
	if len(blob) < 16 {
		return fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	rs.SnapIdx = binary.BigEndian.Uint64(blob[0:8])
	rs.SnapTerm = binary.BigEndian.Uint64(blob[8:16])
	rs.SnapData = blob[16:]
	return nil
}

// replayWAL folds the WAL file into rs. A torn final record is
// discarded; corruption before the tail is an error. It returns the
// length of the valid record prefix and the file's size.
func replayWAL(path string, rs *RecoveredState) (valid, size int, err error) {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("raft: read wal: %w", err)
	}
	valid, err = replayWALBytes(blob, rs)
	return valid, len(blob), err
}

// replayWALBytes folds a framed WAL byte stream into rs — shared by the
// file-backed and in-memory storages so both recover with identical
// torn-tail and corruption semantics. It returns the length of the
// valid prefix: everything from there on is a torn tail.
func replayWALBytes(blob []byte, rs *RecoveredState) (int, error) {
	off := 0
	for off < len(blob) {
		rest := blob[off:]
		if len(rest) < 4 {
			return off, nil // torn tail
		}
		n := int(binary.BigEndian.Uint32(rest[0:4]))
		if n < 1 || len(rest) < 4+n+4 {
			return off, nil // torn tail
		}
		payload := rest[4 : 4+n]
		want := binary.BigEndian.Uint32(rest[4+n : 8+n])
		if crc32.ChecksumIEEE(payload) != want {
			return off, nil // torn tail (partial overwrite)
		}
		typ, body := payload[0], payload[1:]
		switch typ {
		case recState:
			if len(body) != 12 {
				return off, fmt.Errorf("%w: state record", ErrCorrupt)
			}
			rs.Term = binary.BigEndian.Uint64(body[0:8])
			rs.Vote = NodeID(binary.BigEndian.Uint32(body[8:12]))
		case recEntry:
			e, used, err := DecodeEntry(body)
			if err != nil || used != len(body) {
				return off, fmt.Errorf("%w: entry record", ErrCorrupt)
			}
			rs.foldEntry(e)
		default:
			return off, fmt.Errorf("%w: record type %d", ErrCorrupt, typ)
		}
		off += 8 + n
	}
	return off, nil
}

// foldEntry applies WAL overwrite semantics: an entry at an index we
// already hold truncates everything from that index on (Raft conflict
// truncation is expressed as re-append).
func (rs *RecoveredState) foldEntry(e Entry) {
	if e.Index <= rs.SnapIdx {
		return
	}
	pos := int(e.Index - rs.SnapIdx - 1)
	if pos < len(rs.Entries) {
		rs.Entries = rs.Entries[:pos]
	}
	if pos != len(rs.Entries) {
		// Gap (entries below were snapshotted away mid-WAL); start over
		// from this entry only if it directly extends the snapshot.
		return
	}
	rs.Entries = append(rs.Entries, e)
}

// Bootstrap restores a freshly constructed node from recovered durable
// state. It must be called before the node's first Tick or Step; the
// restore does not itself write to storage.
func (n *Node) Bootstrap(rs *RecoveredState) error {
	if rs == nil {
		return nil
	}
	if n.log.LastIndex() != 0 || n.term != 0 {
		return errors.New("raft: Bootstrap on a used node")
	}
	n.term = rs.Term
	n.vote = rs.Vote
	if rs.SnapIdx > 0 {
		n.log.Restore(rs.SnapIdx, rs.SnapTerm, rs.SnapData)
	}
	for i := range rs.Entries {
		e := rs.Entries[i]
		if e.Index != n.log.LastIndex()+1 {
			return fmt.Errorf("raft: recovered entries not contiguous at %d", e.Index)
		}
		n.log.Append(e)
	}
	return nil
}
