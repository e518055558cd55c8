package raft

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hovercraft/internal/r2p2"
)

func testEntry(term, index uint64, body string) Entry {
	return Entry{
		Term: term, Index: index, Kind: KindReadWrite,
		ID:   r2p2.RequestID{SrcIP: 1, SrcPort: 2, ReqID: uint32(index)},
		Data: []byte(body), BodyHash: Hash64([]byte(body)),
	}
}

func TestFileStorageFreshDir(t *testing.T) {
	dir := t.TempDir()
	fs, rs, err := OpenFileStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if rs.Term != 0 || rs.SnapIdx != 0 || len(rs.Entries) != 0 {
		t.Fatalf("fresh state = %+v", rs)
	}
}

func TestFileStorageStateAndEntriesRecover(t *testing.T) {
	dir := t.TempDir()
	fs, _, err := OpenFileStorage(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	fs.SaveState(3, 2)
	fs.AppendEntries([]Entry{testEntry(3, 1, "a"), testEntry(3, 2, "b")})
	fs.SaveState(4, 1)
	fs.AppendEntries([]Entry{testEntry(4, 3, "c")})
	fs.Close()

	fs2, rs, err := OpenFileStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if rs.Term != 4 || rs.Vote != 1 {
		t.Fatalf("state = term %d vote %d", rs.Term, rs.Vote)
	}
	if len(rs.Entries) != 3 || string(rs.Entries[2].Data) != "c" {
		t.Fatalf("entries = %v", rs.Entries)
	}
}

func TestFileStorageOverwriteTruncates(t *testing.T) {
	dir := t.TempDir()
	fs, _, _ := OpenFileStorage(dir, false)
	fs.SaveState(1, 1)
	fs.AppendEntries([]Entry{testEntry(1, 1, "a"), testEntry(1, 2, "b"), testEntry(1, 3, "c")})
	// Conflict truncation: a new term overwrites index 2.
	fs.AppendEntries([]Entry{testEntry(2, 2, "B")})
	fs.Close()

	_, rs, err := OpenFileStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (truncated)", len(rs.Entries))
	}
	if string(rs.Entries[1].Data) != "B" || rs.Entries[1].Term != 2 {
		t.Fatalf("overwritten entry = %+v", rs.Entries[1])
	}
}

func TestFileStorageSnapshotResetsWAL(t *testing.T) {
	dir := t.TempDir()
	fs, _, _ := OpenFileStorage(dir, false)
	fs.SaveState(2, 3)
	fs.AppendEntries([]Entry{testEntry(2, 1, "a"), testEntry(2, 2, "b")})
	fs.SaveSnapshot(2, 2, []byte("app-state"))
	fs.AppendEntries([]Entry{testEntry(2, 3, "post-snap")})
	fs.Close()

	_, rs, err := OpenFileStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapIdx != 2 || rs.SnapTerm != 2 || string(rs.SnapData) != "app-state" {
		t.Fatalf("snapshot = %+v", rs)
	}
	// Term/vote survived the WAL reset.
	if rs.Term != 2 || rs.Vote != 3 {
		t.Fatalf("state after reset = term %d vote %d", rs.Term, rs.Vote)
	}
	if len(rs.Entries) != 1 || string(rs.Entries[0].Data) != "post-snap" {
		t.Fatalf("entries = %v", rs.Entries)
	}
}

func TestFileStorageTornTail(t *testing.T) {
	dir := t.TempDir()
	fs, _, _ := OpenFileStorage(dir, false)
	fs.SaveState(5, 1)
	fs.AppendEntries([]Entry{testEntry(5, 1, "good")})
	fs.Close()
	// Simulate a crash mid-write: append garbage.
	f, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 42, 2, 1, 2}) // truncated record
	f.Close()

	_, rs, err := OpenFileStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Term != 5 || len(rs.Entries) != 1 {
		t.Fatalf("torn-tail recovery = %+v", rs)
	}
}

func TestFileStorageCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	fs, _, _ := OpenFileStorage(dir, false)
	fs.SaveState(1, 1)
	fs.AppendEntries([]Entry{testEntry(1, 1, "x")})
	fs.Close()
	// Flip a byte inside the first record's body.
	path := filepath.Join(dir, "wal")
	blob, _ := os.ReadFile(path)
	blob[6] ^= 0xFF
	os.WriteFile(path, blob, 0o644)
	// CRC failure reads as a torn tail at record 1: recovery returns
	// the empty prefix rather than an error (crash-consistent).
	_, rs, err := OpenFileStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Term != 0 || len(rs.Entries) != 0 {
		t.Fatalf("corrupt-first-record recovery = %+v", rs)
	}
}

func TestNodeBootstrapFromStorage(t *testing.T) {
	dir := t.TempDir()
	peers := []NodeID{1}
	fs, rs, _ := OpenFileStorage(dir, false)
	n := NewNode(Config{ID: 1, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Storage: fs})
	if err := n.Bootstrap(rs); err != nil {
		t.Fatal(err)
	}
	n.Campaign()
	for i := 0; i < 5; i++ {
		n.Propose(Entry{Kind: KindReadWrite, Data: []byte{byte(i)}})
	}
	if ents := n.NextCommitted(0); len(ents) > 0 {
		n.AppliedTo(ents[len(ents)-1].Index)
	}
	term, commit := n.Term(), n.Log().Commit()
	fs.Close()

	// "Restart": reopen storage and bootstrap a fresh node.
	fs2, rs2, err := OpenFileStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	n2 := NewNode(Config{ID: 1, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Storage: fs2})
	if err := n2.Bootstrap(rs2); err != nil {
		t.Fatal(err)
	}
	if n2.Term() != term {
		t.Fatalf("recovered term %d, want %d", n2.Term(), term)
	}
	if n2.Log().LastIndex() != commit {
		t.Fatalf("recovered log last %d, want %d", n2.Log().LastIndex(), commit)
	}
	// The recovered node wins a new election and keeps serving.
	n2.Campaign()
	if n2.State() != StateLeader {
		t.Fatal("recovered node cannot lead")
	}
	idx, err := n2.Propose(Entry{Kind: KindReadWrite, Data: []byte("post")})
	if err != nil || idx != commit+2 { // +1 for the new term's noop
		t.Fatalf("post-recovery propose: idx=%d err=%v", idx, err)
	}
	// Bootstrap on a used node is rejected.
	if err := n2.Bootstrap(rs2); err == nil {
		t.Fatal("double bootstrap accepted")
	}
}

// TestFileStorageAppendAfterTornTail writes behind a torn tail: the
// reopen cuts the torn bytes, so the next recovery sees both the record
// before them and the one written after.
func TestFileStorageAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	fs, _, _ := OpenFileStorage(dir, true)
	fs.SaveState(5, 1)
	fs.AppendEntries([]Entry{testEntry(5, 1, "before")})
	fs.Close()
	f, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 42, 2, 1, 2}) // a torn record header
	f.Close()

	fs, rs, err := OpenFileStorage(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Entries) != 1 {
		t.Fatalf("torn-tail recovery = %+v", rs)
	}
	fs.AppendEntries([]Entry{testEntry(5, 2, "after")})
	fs.Close()

	_, rs, err = OpenFileStorage(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Entries) != 2 || string(rs.Entries[1].Data) != "after" {
		t.Fatalf("entries after torn-tail recovery = %+v, want before and after", rs.Entries)
	}
}

// TestSnapshotKeepsEntriesAbove compacts a log in the middle and crashes:
// the entries above the snapshot index, which the node may already have
// acknowledged, come back at reopen — from the file and the in-memory
// WAL alike. A snapshot whose last entry disagrees with the log (a
// follower installing its leader's snapshot over a diverged suffix)
// keeps none of them.
func TestSnapshotKeepsEntriesAbove(t *testing.T) {
	// Each constructor returns a storage and its crash-and-recover: the
	// storage to carry on with, and what recovery found.
	type reopenFunc func() (Storage, *RecoveredState)
	open := map[string]func(t *testing.T) (Storage, reopenFunc){
		"file": func(t *testing.T) (Storage, reopenFunc) {
			dir := t.TempDir()
			fs, _, err := OpenFileStorage(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			var reopen reopenFunc
			reopen = func() (Storage, *RecoveredState) {
				fs.wal.Close() // crash: no Close, no flush
				var rs *RecoveredState
				if fs, rs, err = OpenFileStorage(dir, true); err != nil {
					t.Fatal(err)
				}
				return fs, rs
			}
			return fs, reopen
		},
		"buffer": func(t *testing.T) (Storage, reopenFunc) {
			bs := NewBufferStorage()
			return bs, func() (Storage, *RecoveredState) {
				rs, err := bs.Recover()
				if err != nil {
					t.Fatal(err)
				}
				return bs, rs
			}
		},
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			st, reopen := mk(t)
			st.SaveState(2, 1)
			for i := uint64(1); i <= 6; i++ {
				st.AppendEntries([]Entry{testEntry(2, i, fmt.Sprintf("e%d", i))})
			}
			st.SaveSnapshot(3, 2, []byte("snap@3"))
			st.AppendEntries([]Entry{testEntry(2, 7, "e7")})
			st.SaveSnapshot(5, 2, []byte("snap@5"))
			st, rs := reopen()
			if rs.SnapIdx != 5 || rs.Term != 2 || rs.Vote != 1 {
				t.Fatalf("recovered %+v", rs)
			}
			if len(rs.Entries) != 2 || rs.Entries[0].Index != 6 || string(rs.Entries[1].Data) != "e7" {
				t.Fatalf("entries above the snapshot = %+v, want 6 and 7", rs.Entries)
			}

			// A leader's snapshot at 7 of term 3 does not extend this log
			// (entry 7 is of term 2): the suffix is dropped.
			st.AppendEntries([]Entry{testEntry(2, 8, "e8")})
			st.SaveSnapshot(7, 3, []byte("leader@7"))
			_, rs = reopen()
			if rs.SnapIdx != 7 || len(rs.Entries) != 0 {
				t.Fatalf("diverged suffix kept: snap %d entries %+v", rs.SnapIdx, rs.Entries)
			}
		})
	}
}
