package raft

import (
	"testing"
	"testing/quick"
)

func entry(term uint64, kind EntryKind) Entry {
	return Entry{Term: term, Kind: kind}
}

func TestLogAppendAndIndices(t *testing.T) {
	l := NewLog()
	if l.FirstIndex() != 1 || l.LastIndex() != 0 {
		t.Fatalf("fresh log first=%d last=%d", l.FirstIndex(), l.LastIndex())
	}
	last := l.Append(entry(1, KindNoop), entry(1, KindReadWrite))
	if last != 2 || l.LastIndex() != 2 {
		t.Fatalf("last = %d", last)
	}
	if term, ok := l.Term(1); !ok || term != 1 {
		t.Fatalf("term(1) = %d %v", term, ok)
	}
	if _, ok := l.Term(3); ok {
		t.Fatal("term beyond last should fail")
	}
	if term, ok := l.Term(0); !ok || term != 0 {
		t.Fatalf("term(0) = %d %v (snapshot boundary)", term, ok)
	}
}

func TestLogTryAppendConsistencyCheck(t *testing.T) {
	l := NewLog()
	l.Append(entry(1, KindNoop), entry(1, KindReadWrite), entry(2, KindReadWrite))
	// Matching prev.
	last, ok := l.TryAppend(3, 2, []Entry{{Term: 2, Index: 4}})
	if !ok || last != 4 {
		t.Fatalf("append: last=%d ok=%v", last, ok)
	}
	// Mismatching prev term.
	if _, ok := l.TryAppend(3, 1, []Entry{{Term: 2, Index: 4}}); ok {
		t.Fatal("accepted append with wrong prev term")
	}
	// Prev beyond log.
	if _, ok := l.TryAppend(9, 2, nil); ok {
		t.Fatal("accepted append with prev beyond last")
	}
}

func TestLogTryAppendTruncatesConflicts(t *testing.T) {
	l := NewLog()
	l.Append(entry(1, KindNoop), entry(1, KindReadWrite), entry(1, KindReadWrite))
	// New leader at term 2 overwrites indices 2,3.
	last, ok := l.TryAppend(1, 1, []Entry{
		{Term: 2, Index: 2, Kind: KindReadWrite},
		{Term: 2, Index: 3, Kind: KindReadOnly},
	})
	if !ok || last != 3 {
		t.Fatalf("conflict append: last=%d ok=%v", last, ok)
	}
	if term, _ := l.Term(2); term != 2 {
		t.Fatalf("index 2 term = %d, want 2", term)
	}
	if l.Entry(3).Kind != KindReadOnly {
		t.Fatalf("index 3 kind = %v", l.Entry(3).Kind)
	}
}

func TestLogTryAppendIdempotentKeepsBody(t *testing.T) {
	l := NewLog()
	l.Append(entry(1, KindNoop))
	l.TryAppend(1, 1, []Entry{{Term: 1, Index: 2, Kind: KindReadWrite, Data: []byte("body")}})
	// A duplicate metadata-only copy must not clobber the body.
	l.TryAppend(1, 1, []Entry{{Term: 1, Index: 2, Kind: KindReadWrite}})
	if string(l.Entry(2).Data) != "body" {
		t.Fatalf("body clobbered: %q", l.Entry(2).Data)
	}
	// And a body-carrying duplicate fills a missing body.
	l.TryAppend(2, 1, []Entry{{Term: 1, Index: 3, Kind: KindReadWrite}})
	l.TryAppend(2, 1, []Entry{{Term: 1, Index: 3, Kind: KindReadWrite, Data: []byte("late")}})
	if string(l.Entry(3).Data) != "late" {
		t.Fatalf("late body not filled: %q", l.Entry(3).Data)
	}
}

func TestLogCommitApply(t *testing.T) {
	l := NewLog()
	l.Append(entry(1, KindNoop), entry(1, KindReadWrite), entry(1, KindReadWrite))
	if !l.CommitTo(2) {
		t.Fatal("commit did not advance")
	}
	if l.CommitTo(1) {
		t.Fatal("commit regressed")
	}
	// Commit beyond last clips.
	l.CommitTo(100)
	if l.Commit() != 3 {
		t.Fatalf("commit = %d", l.Commit())
	}
	next := l.NextCommitted(0)
	if len(next) != 3 {
		t.Fatalf("next committed = %d entries", len(next))
	}
	l.AppliedTo(2)
	next = l.NextCommitted(0)
	if len(next) != 1 || next[0].Index != 3 {
		t.Fatalf("next after apply = %v", next)
	}
	l.AppliedTo(3)
	if l.NextCommitted(0) != nil {
		t.Fatal("entries left after full apply")
	}
}

func TestLogAppliedToPanicsOutOfRange(t *testing.T) {
	l := NewLog()
	l.Append(entry(1, KindNoop))
	l.CommitTo(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic applying beyond commit")
		}
	}()
	l.AppliedTo(2)
}

func TestLogCompactAndRestore(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(entry(1, KindReadWrite))
	}
	l.CommitTo(8)
	l.AppliedTo(8)
	if err := l.Compact(5, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if l.FirstIndex() != 6 || l.SnapIndex() != 5 || l.SnapTerm() != 1 {
		t.Fatalf("first=%d snap=%d/%d", l.FirstIndex(), l.SnapIndex(), l.SnapTerm())
	}
	if l.Entry(5) != nil {
		t.Fatal("compacted entry still accessible")
	}
	if l.Entry(6) == nil || l.LastIndex() != 10 {
		t.Fatal("retained entries lost")
	}
	// Compacting at or below the horizon is a no-op.
	if err := l.Compact(3, nil); err != nil {
		t.Fatal(err)
	}
	// Compacting beyond applied fails.
	if err := l.Compact(9, nil); err == nil {
		t.Fatal("compact beyond applied allowed")
	}
	// Restore wipes everything.
	l.Restore(50, 7, []byte("big"))
	if l.LastIndex() != 50 || l.Commit() != 50 || l.Applied() != 50 || l.LastTerm() != 7 {
		t.Fatalf("restore: %d/%d/%d/%d", l.LastIndex(), l.Commit(), l.Applied(), l.LastTerm())
	}
	if string(l.SnapData()) != "big" {
		t.Fatal("snap data lost")
	}
}

func TestLogSlice(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(entry(1, KindReadWrite))
	}
	if got := l.Slice(2, 4, 0); len(got) != 3 || got[0].Index != 2 {
		t.Fatalf("slice = %v", got)
	}
	if got := l.Slice(2, 4, 2); len(got) != 2 {
		t.Fatalf("capped slice = %d", len(got))
	}
	if got := l.Slice(0, 100, 0); len(got) != 5 {
		t.Fatalf("clipped slice = %d", len(got))
	}
	if got := l.Slice(4, 2, 0); got != nil {
		t.Fatalf("inverted slice = %v", got)
	}
}

func TestLogIsUpToDate(t *testing.T) {
	l := NewLog()
	l.Append(entry(1, KindNoop), entry(2, KindReadWrite))
	cases := []struct {
		idx, term uint64
		want      bool
	}{
		{2, 2, true},  // identical
		{3, 2, true},  // longer same term
		{1, 3, true},  // higher term, shorter
		{1, 2, false}, // same term, shorter
		{5, 1, false}, // lower term, longer
	}
	for _, c := range cases {
		if got := l.IsUpToDate(c.idx, c.term); got != c.want {
			t.Errorf("IsUpToDate(%d,%d) = %v", c.idx, c.term, got)
		}
	}
}

// Property: after any sequence of leader-style appends and follower-style
// TryAppends, terms along the log are non-decreasing and indices dense.
func TestLogInvariantsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		l := NewLog()
		term := uint64(1)
		for _, op := range ops {
			switch op % 4 {
			case 0: // append at current term
				l.Append(entry(term, KindReadWrite))
			case 1: // term bump
				term++
			case 2: // commit something
				l.CommitTo(l.LastIndex())
				l.AppliedTo(l.Commit())
			case 3: // conflict overwrite from a new leader
				term++
				prev := l.Commit()
				prevTerm, _ := l.Term(prev)
				l.TryAppend(prev, prevTerm, []Entry{{Term: term, Index: prev + 1}})
			}
		}
		// Check density and monotonicity.
		lastTerm := uint64(0)
		for i := l.FirstIndex(); i <= l.LastIndex(); i++ {
			e := l.Entry(i)
			if e == nil || e.Index != i || e.Term < lastTerm {
				return false
			}
			lastTerm = e.Term
		}
		return l.Applied() <= l.Commit() && l.Commit() <= l.LastIndex()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sameMeta compares two bodyless entries field by field.
func sameMeta(a, b *Entry) bool {
	return a.Term == b.Term && a.Index == b.Index && a.Kind == b.Kind && a.BodyHash == b.BodyHash
}

// TestLogChunkedStorageMatchesFlatModel drives the chunked log and a
// plain-slice model through the same appends, conflict truncations and
// compactions, sized so every operation crosses chunk boundaries, and
// compares every read path after each step.
func TestLogChunkedStorageMatchesFlatModel(t *testing.T) {
	l := NewLog()
	var model []Entry // model[k] has index first+k
	first := uint64(1)
	term := uint64(1)

	check := func(step string) {
		t.Helper()
		last := first + uint64(len(model)) - 1
		if l.FirstIndex() != first || l.LastIndex() != last {
			t.Fatalf("%s: range [%d,%d], want [%d,%d]", step, l.FirstIndex(), l.LastIndex(), first, last)
		}
		if l.Entry(first-1) != nil || l.Entry(last+1) != nil {
			t.Fatalf("%s: Entry answered outside the retained range", step)
		}
		// Spot reads around every chunk boundary and at both ends.
		for i := first; i <= last; i++ {
			pos := int(i-first) + l.head
			if off := pos & (logChunkLen - 1); off > 1 && off < logChunkLen-2 && i != first && i != last {
				continue
			}
			if e := l.Entry(i); e == nil || !sameMeta(e, &model[i-first]) {
				t.Fatalf("%s: Entry(%d) = %+v, want %+v", step, i, e, model[i-first])
			}
		}
		// Windows that start before a boundary and end after it.
		for lo := first; lo <= last; lo += logChunkLen/2 + 7 {
			hi := lo + 300
			if hi > last {
				hi = last
			}
			want := model[lo-first : hi-first+1]
			for name, got := range map[string][]Entry{
				"View": l.View(lo, hi, 0, 0), "Slice": l.Slice(lo, hi, 0),
			} {
				if len(got) != len(want) {
					t.Fatalf("%s: %s(%d,%d) has %d entries, want %d", step, name, lo, hi, len(got), len(want))
				}
				for k := range want {
					if !sameMeta(&got[k], &want[k]) {
						t.Fatalf("%s: %s(%d,%d)[%d] = %+v, want %+v", step, name, lo, hi, k, got[k], want[k])
					}
				}
			}
		}
	}
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			idx := l.Append(Entry{Term: term, Kind: KindReadWrite, BodyHash: uint64(len(model))})
			model = append(model, Entry{Term: term, Index: idx, Kind: KindReadWrite, BodyHash: uint64(len(model))})
		}
	}

	appendN(2*logChunkLen + 100)
	check("append across two boundaries")

	// A new leader overwrites the tail from inside the second chunk.
	term++
	prev := first + uint64(logChunkLen+50) - 1
	prevTerm, _ := l.Term(prev)
	repl := []Entry{{Term: term, Index: prev + 1}, {Term: term, Index: prev + 2}}
	if _, ok := l.TryAppend(prev, prevTerm, repl); !ok {
		t.Fatal("TryAppend refused a matching prefix")
	}
	model = append(model[:prev-first+1], repl...)
	check("conflict truncation across a boundary")

	appendN(2 * logChunkLen)
	check("append after truncation")

	// Compact into the middle of the second chunk, then past two more.
	for _, upto := range []uint64{first + uint64(logChunkLen+10), first + uint64(3*logChunkLen+5)} {
		l.CommitTo(upto)
		l.AppliedTo(upto)
		if err := l.Compact(upto, nil); err != nil {
			t.Fatal(err)
		}
		model, first = model[upto-first+1:], upto+1
		check("compaction")
		appendN(logChunkLen + 3)
		check("append after compaction")
	}

	// Compact everything, then start over from an empty log.
	l.CommitTo(l.LastIndex())
	l.AppliedTo(l.LastIndex())
	if err := l.Compact(l.LastIndex(), nil); err != nil {
		t.Fatal(err)
	}
	first, model = l.LastIndex()+1, nil
	appendN(logChunkLen + 1)
	check("append after compacting everything")
}
