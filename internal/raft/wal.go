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
// discarded on recovery. SaveSnapshot atomically replaces the snapshot
// file and resets the WAL, discarding entries the snapshot covers.
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
	mu   sync.Mutex
	dir  string
	wal  *os.File
	Sync bool

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
	if err := replayWAL(walPath, rs); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("raft: open wal: %w", err)
	}
	return &FileStorage{dir: dir, wal: f, Sync: sync}, rs, nil
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

// SaveSnapshot implements Storage: atomically replace the snapshot and
// reset the WAL (entries at or below index are covered by the snapshot;
// later entries are re-sent by the leader if needed — the in-memory log
// still has them, and crash recovery from (snapshot + empty WAL) is a
// legal, if conservative, Raft state as long as term/vote survive, which
// the fresh WAL's state record guarantees).
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
	// Reset the WAL. The current term/vote must be re-recorded; the
	// caller's next SaveState would race a crash window otherwise, so
	// we preserve the last state record by replaying our own file
	// before truncation.
	rs := &RecoveredState{}
	_ = replayWAL(filepath.Join(s.dir, "wal"), rs)
	s.wal.Close()
	f, err := os.OpenFile(filepath.Join(s.dir, "wal"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		panic(fmt.Sprintf("raft: wal reset: %v", err))
	}
	s.wal = f
	var body [12]byte
	binary.BigEndian.PutUint64(body[0:8], rs.Term)
	binary.BigEndian.PutUint32(body[8:12], uint32(rs.Vote))
	if _, err := s.wal.Write(frame(recState, body[:])); err != nil {
		panic(fmt.Sprintf("raft: wal reset write: %v", err))
	}
	if s.Sync {
		_ = s.wal.Sync()
		s.syncs++
	}
	// The fresh WAL generation holds exactly the re-recorded state.
	s.recs, s.durable = 1, 1
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
// discarded; corruption before the tail is an error.
func replayWAL(path string, rs *RecoveredState) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("raft: read wal: %w", err)
	}
	return replayWALBytes(blob, rs)
}

// replayWALBytes folds a framed WAL byte stream into rs — shared by the
// file-backed and in-memory storages so both recover with identical
// torn-tail and corruption semantics.
func replayWALBytes(blob []byte, rs *RecoveredState) error {
	for len(blob) > 0 {
		if len(blob) < 4 {
			return nil // torn tail
		}
		n := int(binary.BigEndian.Uint32(blob[0:4]))
		if n < 1 || len(blob) < 4+n+4 {
			return nil // torn tail
		}
		payload := blob[4 : 4+n]
		want := binary.BigEndian.Uint32(blob[4+n : 8+n])
		if crc32.ChecksumIEEE(payload) != want {
			return nil // torn tail (partial overwrite)
		}
		typ, body := payload[0], payload[1:]
		switch typ {
		case recState:
			if len(body) != 12 {
				return fmt.Errorf("%w: state record", ErrCorrupt)
			}
			rs.Term = binary.BigEndian.Uint64(body[0:8])
			rs.Vote = NodeID(binary.BigEndian.Uint32(body[8:12]))
		case recEntry:
			e, used, err := DecodeEntry(body)
			if err != nil || used != len(body) {
				return fmt.Errorf("%w: entry record", ErrCorrupt)
			}
			rs.foldEntry(e)
		default:
			return fmt.Errorf("%w: record type %d", ErrCorrupt, typ)
		}
		blob = blob[8+n:]
	}
	return nil
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
