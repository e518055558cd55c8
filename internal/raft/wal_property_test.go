package raft

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hovercraft/internal/r2p2"
)

// walModel mirrors a storage's WAL record-by-record, so recovery after
// an arbitrary mutation can be checked against the semantic fold of a
// record prefix — the only states a crash-consistent log may yield.
type walModel struct {
	snapIdx  uint64
	snapTerm uint64
	snapData []byte
	recs     []modelRec
}

type modelRec struct {
	size  int // framed bytes on the wire
	apply func(*RecoveredState)
}

func (m *walModel) addState(term uint64, vote NodeID) {
	m.recs = append(m.recs, modelRec{
		size:  4 + 1 + 12 + 4,
		apply: func(rs *RecoveredState) { rs.Term, rs.Vote = term, vote },
	})
}

func (m *walModel) addEntry(e Entry) {
	m.recs = append(m.recs, modelRec{
		size:  4 + 1 + len(EncodeEntry(&e, nil)) + 4,
		apply: func(rs *RecoveredState) { rs.foldEntry(e) },
	})
}

// snapshot mirrors SaveSnapshot: the WAL is rewritten as a state record
// carrying the current term/vote, followed by the live entries above the
// snapshot index (kept).
func (m *walModel) snapshot(index, term uint64, data []byte, curTerm uint64, curVote NodeID, kept []Entry) {
	m.snapIdx, m.snapTerm = index, term
	m.snapData = append([]byte(nil), data...)
	m.recs = nil
	m.addState(curTerm, curVote)
	for _, e := range kept {
		m.addEntry(e)
	}
}

// fold replays the first k model records on top of the snapshot base.
func (m *walModel) fold(k int) *RecoveredState {
	rs := &RecoveredState{
		SnapIdx: m.snapIdx, SnapTerm: m.snapTerm,
		SnapData: append([]byte(nil), m.snapData...),
	}
	for _, r := range m.recs[:k] {
		r.apply(rs)
	}
	return rs
}

// recordsWithin counts how many leading records fit entirely in n bytes —
// exactly the records a tail-truncated replay recovers.
func (m *walModel) recordsWithin(n int) int {
	sum, k := 0, 0
	for _, r := range m.recs {
		if sum+r.size > n {
			break
		}
		sum += r.size
		k++
	}
	return k
}

// recordAt returns the index and byte offset of the record containing
// WAL byte position pos.
func (m *walModel) recordAt(pos int) (idx, off int) {
	sum := 0
	for i, r := range m.recs {
		if pos < sum+r.size {
			return i, sum
		}
		sum += r.size
	}
	return len(m.recs) - 1, sum - m.recs[len(m.recs)-1].size
}

func sameRecovered(a, b *RecoveredState) bool {
	if a.Term != b.Term || a.Vote != b.Vote ||
		a.SnapIdx != b.SnapIdx || a.SnapTerm != b.SnapTerm ||
		!bytes.Equal(a.SnapData, b.SnapData) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if ea.Term != eb.Term || ea.Index != eb.Index || ea.Kind != eb.Kind ||
			ea.ID != eb.ID || !bytes.Equal(ea.Data, eb.Data) {
			return false
		}
	}
	return true
}

func (m *walModel) matchesSomePrefix(rs *RecoveredState) bool {
	for k := 0; k <= len(m.recs); k++ {
		if sameRecovered(rs, m.fold(k)) {
			return true
		}
	}
	return false
}

// buildRandomWAL drives a random but legal op sequence (state updates,
// contiguous appends, conflict overwrites, snapshots) into st while
// mirroring every record into the model.
func buildRandomWAL(rng *rand.Rand, st Storage, m *walModel) {
	term, vote, next := uint64(1), NodeID(1), uint64(1)
	var log []Entry // live logical suffix above the snapshot
	entry := func(idx uint64) Entry {
		body := []byte(fmt.Sprintf("v%d-%d", idx, rng.Intn(1000)))
		return Entry{
			Term: term, Index: idx, Kind: KindReadWrite,
			ID:   r2p2.RequestID{SrcIP: 9, SrcPort: 9, ReqID: uint32(idx)},
			Data: body, BodyHash: Hash64(body),
		}
	}
	st.SaveState(term, vote)
	m.addState(term, vote)
	for i := 0; i < 6+rng.Intn(14); i++ {
		switch rng.Intn(8) {
		case 0: // term/vote update
			term++
			vote = NodeID(1 + rng.Intn(3))
			st.SaveState(term, vote)
			m.addState(term, vote)
		case 1: // conflict truncation, expressed as overwrite
			if next <= m.snapIdx+2 {
				continue
			}
			// A conflicting suffix comes from a new leader's term, which
			// is persisted before its entries.
			term++
			st.SaveState(term, vote)
			m.addState(term, vote)
			idx := m.snapIdx + 2 + uint64(rng.Int63n(int64(next-m.snapIdx-2)))
			e := entry(idx)
			st.AppendEntries([]Entry{e})
			m.addEntry(e)
			log = log[:idx-m.snapIdx-1]
			log = append(log, e)
			next = idx + 1
		case 2: // snapshot
			if len(log) == 0 {
				continue
			}
			cut := rng.Intn(len(log))
			e := log[cut]
			data := []byte(fmt.Sprintf("snap@%d", e.Index))
			st.SaveSnapshot(e.Index, e.Term, data)
			log = append([]Entry(nil), log[cut+1:]...)
			m.snapshot(e.Index, e.Term, data, term, vote, log)
		default: // contiguous append batch
			k := 1 + rng.Intn(4)
			var es []Entry
			for j := 0; j < k; j++ {
				es = append(es, entry(next))
				next++
			}
			st.AppendEntries(es)
			for _, e := range es {
				m.addEntry(e)
				log = append(log, e)
			}
		}
	}
}

// bootstrapCheck asserts a recovered state is actually usable: a fresh
// node must accept it (contiguity), i.e. recovery yields a legal log,
// never garbage a node would choke on.
func bootstrapCheck(t *testing.T, seed int64, rs *RecoveredState) {
	t.Helper()
	n := NewNode(Config{ID: 1, Peers: []NodeID{1}, ElectionTicks: 10, HeartbeatTicks: 2})
	if err := n.Bootstrap(rs); err != nil {
		t.Fatalf("seed %d: recovered state rejected by Bootstrap: %v", seed, err)
	}
}

// corruptRecord rewrites one record's type byte to an invalid value and
// recomputes the CRC, producing a well-framed record with garbage
// semantics — the case that must surface as ErrCorrupt, not as silently
// recovered state.
func corruptRecord(wal []byte, off int) {
	n := int(binary.BigEndian.Uint32(wal[off : off+4]))
	wal[off+4] = 0x7F
	crc := crc32.ChecksumIEEE(wal[off+4 : off+4+n])
	binary.BigEndian.PutUint32(wal[off+4+n:off+8+n], crc)
}

// TestBufferStorageTornWriteProperty is the randomized crash-damage
// property test over the in-memory WAL: for every seed, build a random
// log, damage it one of three ways, and require recovery to be either a
// clean record-prefix of what was written or ErrCorrupt — never garbage.
func TestBufferStorageTornWriteProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bs := NewBufferStorage()
		m := &walModel{}
		buildRandomWAL(rng, bs, m)
		switch seed % 3 {
		case 0: // torn tail: recovery = exactly the fully-persisted prefix
			n := 1 + rng.Intn(bs.WALLen())
			bs.TruncateTail(n)
			rs, err := bs.Recover()
			if err != nil {
				t.Fatalf("seed %d: torn tail must recover cleanly: %v", seed, err)
			}
			want := m.fold(m.recordsWithin(bs.WALLen()))
			if !sameRecovered(rs, want) {
				t.Fatalf("seed %d: torn-tail recovery diverged from the persisted prefix\n got %+v\nwant %+v", seed, rs, want)
			}
			bootstrapCheck(t, seed, rs)
		case 1: // random bit flip: prefix before the damaged record, or ErrCorrupt
			pos := rng.Intn(bs.WALLen())
			bs.wal[pos] ^= 1 << uint(rng.Intn(8))
			rs, err := bs.Recover()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("seed %d: bit flip produced non-ErrCorrupt error: %v", seed, err)
				}
				continue
			}
			damaged, _ := m.recordAt(pos)
			if !sameRecovered(rs, m.fold(damaged)) && !m.matchesSomePrefix(rs) {
				t.Fatalf("seed %d: bit flip at %d recovered garbage: %+v", seed, pos, rs)
			}
			bootstrapCheck(t, seed, rs)
		case 2: // valid-CRC garbage record: must be ErrCorrupt
			_, off := m.recordAt(rng.Intn(bs.WALLen()))
			corruptRecord(bs.wal, off)
			if _, err := bs.Recover(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("seed %d: CRC-valid garbage record recovered without ErrCorrupt (err=%v)", seed, err)
			}
		}
	}
}

// buildRandomWALGrouped drives the same op mix as buildRandomWAL but
// interleaves explicit Flush barriers, mirroring the runtime's
// durability barriers: a group-committing node flushes before any ack
// leaves. Returns nothing; durable progress is read off fs itself.
func buildRandomWALGrouped(rng *rand.Rand, fs *FileStorage, m *walModel) {
	term, vote, next := uint64(1), NodeID(1), uint64(1)
	var log []Entry
	entry := func(idx uint64) Entry {
		body := []byte(fmt.Sprintf("v%d-%d", idx, rng.Intn(1000)))
		return Entry{
			Term: term, Index: idx, Kind: KindReadWrite,
			ID:   r2p2.RequestID{SrcIP: 9, SrcPort: 9, ReqID: uint32(idx)},
			Data: body, BodyHash: Hash64(body),
		}
	}
	fs.SaveState(term, vote)
	m.addState(term, vote)
	for i := 0; i < 8+rng.Intn(16); i++ {
		switch rng.Intn(8) {
		case 0:
			term++
			vote = NodeID(1 + rng.Intn(3))
			fs.SaveState(term, vote)
			m.addState(term, vote)
		case 1:
			if next <= m.snapIdx+2 {
				continue
			}
			term++
			fs.SaveState(term, vote)
			m.addState(term, vote)
			idx := m.snapIdx + 2 + uint64(rng.Int63n(int64(next-m.snapIdx-2)))
			e := entry(idx)
			fs.AppendEntries([]Entry{e})
			m.addEntry(e)
			log = log[:idx-m.snapIdx-1]
			log = append(log, e)
			next = idx + 1
		case 2:
			if len(log) == 0 {
				continue
			}
			cut := rng.Intn(len(log))
			e := log[cut]
			data := []byte(fmt.Sprintf("snap@%d", e.Index))
			fs.SaveSnapshot(e.Index, e.Term, data)
			log = append([]Entry(nil), log[cut+1:]...)
			m.snapshot(e.Index, e.Term, data, term, vote, log)
		default:
			k := 1 + rng.Intn(4)
			var es []Entry
			for j := 0; j < k; j++ {
				es = append(es, entry(next))
				next++
			}
			fs.AppendEntries(es)
			for _, e := range es {
				m.addEntry(e)
				log = append(log, e)
			}
		}
		if rng.Intn(3) == 0 {
			// A durability barrier: everything staged so far is now acked.
			fs.Flush()
		}
	}
}

// TestFileStorageGroupCommitCrashProperty is the group-commit extension
// of the torn-write framework: records staged between fsync barriers
// may be torn or lost by a crash, but every record covered by a
// completed Flush (i.e. everything the node may have acknowledged) must
// survive as an exact prefix — a crash mid-batch yields a clean prefix
// at or above the durable watermark, never an acked-but-lost entry.
func TestFileStorageGroupCommitCrashProperty(t *testing.T) {
	for seed := int64(2000); seed < 2080; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("wal%d", seed))
		fs, _, err := OpenFileStorage(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		fs.GroupCommit(2+rng.Intn(7), 0)
		m := &walModel{}
		buildRandomWALGrouped(rng, fs, m)

		durable := int(fs.DurableRecords())
		staged := append([]byte(nil), fs.pend...)
		// Crash without Close: the staged tail never reached the file.
		fs.wal.Close()

		walPath := filepath.Join(dir, "wal")
		disk, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// The crash may have happened mid-batch-write: an arbitrary
		// prefix of the staged batch (possibly bit-damaged) follows the
		// synced bytes on disk.
		if len(staged) > 0 {
			cut := rng.Intn(len(staged) + 1)
			torn := append([]byte(nil), staged[:cut]...)
			if len(torn) > 0 && rng.Intn(2) == 0 {
				torn[rng.Intn(len(torn))] ^= 1 << uint(rng.Intn(8))
			}
			disk = append(disk, torn...)
		}
		if err := os.WriteFile(walPath, disk, 0o644); err != nil {
			t.Fatal(err)
		}

		fs2, rs, err := OpenFileStorage(dir, true)
		if err != nil {
			t.Fatalf("seed %d: crash mid-batch must recover cleanly (durable=%d): %v", seed, durable, err)
		}
		matched := -1
		for k := durable; k <= len(m.recs); k++ {
			if sameRecovered(rs, m.fold(k)) {
				matched = k
				break
			}
		}
		if matched < 0 {
			// Either an acked record was lost (k < durable would match)
			// or recovery produced garbage; distinguish for the report.
			for k := 0; k < durable; k++ {
				if sameRecovered(rs, m.fold(k)) {
					t.Fatalf("seed %d: acked-but-lost: recovered only %d of %d durable records", seed, k, durable)
				}
			}
			t.Fatalf("seed %d: crash recovery diverged from every write prefix: %+v", seed, rs)
		}
		bootstrapCheck(t, seed, rs)

		// Records written after the recovery must survive the next one:
		// the torn bytes were cut at open, so nothing hides behind them.
		m.recs = m.recs[:matched]
		fs2.GroupCommit(4, 0)
		term := rs.Term + 1
		fs2.SaveState(term, rs.Vote)
		m.addState(term, rs.Vote)
		next := rs.SnapIdx + uint64(len(rs.Entries)) + 1
		for i := uint64(0); i < 3; i++ {
			body := []byte(fmt.Sprintf("after-%d", next+i))
			e := Entry{Term: term, Index: next + i, Kind: KindReadWrite,
				ID:   r2p2.RequestID{SrcIP: 9, SrcPort: 8, ReqID: uint32(next + i)},
				Data: body, BodyHash: Hash64(body)}
			fs2.AppendEntries([]Entry{e})
			m.addEntry(e)
		}
		fs2.Flush()
		fs2.wal.Close() // crash again, after the barrier
		fs3, rs3, err := OpenFileStorage(dir, true)
		if err != nil {
			t.Fatalf("seed %d: reopen after post-recovery appends: %v", seed, err)
		}
		if want := m.fold(len(m.recs)); !sameRecovered(rs3, want) {
			t.Fatalf("seed %d: records appended after recovery were lost\n got %+v\nwant %+v", seed, rs3, want)
		}
		bootstrapCheck(t, seed, rs3)
		fs3.Close()
	}
}

// TestFileStorageGroupCommitRestart is the non-crash sanity check: with
// group commit on, Close flushes the tail and a reopen recovers every
// record ever appended.
func TestFileStorageGroupCommitRestart(t *testing.T) {
	for seed := int64(3000); seed < 3010; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("wal%d", seed))
		fs, _, err := OpenFileStorage(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		fs.GroupCommit(4, 0)
		m := &walModel{}
		buildRandomWALGrouped(rng, fs, m)
		fs.Close()
		fs2, rs, err := OpenFileStorage(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecovered(rs, m.fold(len(m.recs))) {
			t.Fatalf("seed %d: clean restart lost staged records\n got %+v\nwant %+v", seed, rs, m.fold(len(m.recs)))
		}
		bootstrapCheck(t, seed, rs)
		fs2.Close()
	}
}

// TestFileStorageTornWriteProperty runs the same property through the
// file-backed WAL: byte damage on disk must yield a clean prefix or
// ErrCorrupt on reopen.
func TestFileStorageTornWriteProperty(t *testing.T) {
	for seed := int64(1000); seed < 1040; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("wal%d", seed))
		fs, _, err := OpenFileStorage(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		m := &walModel{}
		buildRandomWAL(rng, fs, m)
		fs.Close()
		walPath := filepath.Join(dir, "wal")
		blob, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		switch seed % 3 {
		case 0: // torn tail
			n := 1 + rng.Intn(len(blob))
			blob = blob[:len(blob)-n]
		case 1: // bit flip
			blob[rng.Intn(len(blob))] ^= 1 << uint(rng.Intn(8))
		case 2: // valid-CRC garbage
			_, off := m.recordAt(rng.Intn(len(blob)))
			corruptRecord(blob, off)
		}
		if err := os.WriteFile(walPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		fs2, rs, err := OpenFileStorage(dir, false)
		switch seed % 3 {
		case 0:
			if err != nil {
				t.Fatalf("seed %d: torn tail must recover cleanly: %v", seed, err)
			}
			want := m.fold(m.recordsWithin(len(blob)))
			if !sameRecovered(rs, want) {
				t.Fatalf("seed %d: torn-tail recovery diverged\n got %+v\nwant %+v", seed, rs, want)
			}
			bootstrapCheck(t, seed, rs)
		case 1:
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("seed %d: bit flip produced non-ErrCorrupt error: %v", seed, err)
				}
				break
			}
			if !m.matchesSomePrefix(rs) {
				t.Fatalf("seed %d: bit flip recovered garbage: %+v", seed, rs)
			}
			bootstrapCheck(t, seed, rs)
		case 2:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("seed %d: CRC-valid garbage recovered without ErrCorrupt (err=%v)", seed, err)
			}
		}
		if fs2 != nil {
			fs2.Close()
		}
	}
}
