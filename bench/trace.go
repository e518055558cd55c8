package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"hovercraft/internal/kvstore"
	"hovercraft/internal/raft"
)

const replicas = 3

// tracer holds the spans of a traced run in memory, indexed by op: the
// client.call span lives in run.t0/sent/done, and each replica's
// kvstore.execute span (start, duration) lives here. Spans of one
// request share the op id; client.call is the parent of the executes.
type tracer struct {
	epoch     time.Time
	recording atomic.Bool // WAL spans are kept only inside the window

	// One writer per replica (its application goroutine); read after
	// the servers are closed.
	execStart [replicas][]int64 // ns from epoch; 0 = not executed
	execDur   [replicas][]int32
	execCount [replicas][]uint8
}

func newTracer(n int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.execStart {
		t.execStart[i] = make([]int64, n)
		t.execDur[i] = make([]int32, n)
		t.execCount[i] = make([]uint8, n)
	}
	return t
}

// tracedService wraps a replica's kvstore.Store behind app.Service
// (and core.Snapshotter, so compaction still works) and records one
// kvstore.execute span per call.
type tracedService struct {
	inner *kvstore.Store
	node  int
	tr    *tracer
}

func (s *tracedService) Execute(payload []byte, readOnly bool) []byte {
	t0 := time.Since(s.tr.epoch)
	reply := s.inner.Execute(payload, readOnly)
	d := time.Since(s.tr.epoch) - t0
	if id := opIDOf(payload); id != 0 && id&preloadFlag == 0 && id <= uint64(len(s.tr.execStart[s.node])) {
		i := id - 1
		s.tr.execStart[s.node][i] = int64(t0)
		s.tr.execDur[s.node][i] = int32(d)
		if s.tr.execCount[s.node][i] < 255 {
			s.tr.execCount[s.node][i]++
		}
	}
	return reply
}

func (s *tracedService) Snapshot() []byte          { return s.inner.Snapshot() }
func (s *tracedService) Restore(data []byte) error { return s.inner.Restore(data) }

// tracedStorage wraps a replica's FileStorage behind raft.Storage and
// raft.GroupCommitter — without the latter the server would never call
// Flush and acks would overtake their fsync — and times appends and
// the flushes that had records to write. Called only from the node's
// owning core; read after the servers are closed.
type tracedStorage struct {
	inner    *raft.FileStorage
	tr       *tracer
	appendNs int64
	appends  int64
	records  int64
	flushes  []float64 // µs
}

var _ raft.GroupCommitter = (*tracedStorage)(nil)

func (s *tracedStorage) SaveState(term uint64, vote raft.NodeID) {
	s.inner.SaveState(term, vote)
	if s.tr.recording.Load() {
		s.records++
	}
}

func (s *tracedStorage) AppendEntries(entries []raft.Entry) {
	t0 := time.Now()
	s.inner.AppendEntries(entries)
	if s.tr.recording.Load() {
		s.appendNs += int64(time.Since(t0))
		s.appends++
		s.records += int64(len(entries))
	}
}

func (s *tracedStorage) SaveSnapshot(index, term uint64, data []byte) {
	s.inner.SaveSnapshot(index, term, data)
}

func (s *tracedStorage) Flush() {
	if s.inner.PendingRecords() == 0 {
		return // nothing staged: not a WAL flush, just the barrier
	}
	t0 := time.Now()
	s.inner.Flush()
	if s.tr.recording.Load() {
		s.flushes = append(s.flushes, float64(time.Since(t0))/1e3)
	}
}

func (s *tracedStorage) MaybeFlush() { s.inner.MaybeFlush() }

// traceMetrics derives the span metrics and checks exactly-once.
func (r *run) traceMetrics(res *result) {
	s, tr, l := r.sched, r.tr, &res.layer
	lo, hi := int64(r.warm), int64(r.warm+r.dur)
	skewEpoch := int64(r.epoch.Sub(tr.epoch)) // tracer clock → run clock
	var toApply, self, toReply, skew float64
	var n float64
	dupExec := 0
	for i := 0; i < s.n; i++ {
		first, last := int64(-1), int64(-1)
		var firstDur int64
		for node := 0; node < replicas; node++ {
			if !s.read[i] && tr.execCount[node][i] > 1 {
				dupExec++
			}
			st := tr.execStart[node][i]
			if st == 0 {
				continue
			}
			st -= skewEpoch
			if first < 0 || st < first {
				first, firstDur = st, int64(tr.execDur[node][i])
			}
			last = max(last, st)
		}
		if r.st[i] != stOK || r.t0[i] < lo || r.t0[i] >= hi || s.read[i] != r.w.readMix || first < 0 {
			continue
		}
		n++
		toApply += float64(first - r.t0[i])
		self += float64(firstDur)
		toReply += float64(r.done[i] - first - firstDur)
		skew += float64(last - first)
	}
	l.add("span.due_to_first_apply_us", "us", ratio(toApply, n)/1e3)
	l.add("span.service_self_us", "us", ratio(self, n)/1e3)
	l.add("span.apply_to_reply_us", "us", ratio(toReply, n)/1e3)
	l.add("span.apply_skew_us", "us", ratio(skew, n)/1e3)
	if dupExec > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d writes executed more than once on a replica", dupExec))
	}

	var appendNs, appends, records float64
	var flushes []float64
	for _, ws := range r.cl.wals {
		appendNs += float64(ws.appendNs)
		appends += float64(ws.appends)
		records += float64(ws.records)
		flushes = append(flushes, ws.flushes...)
	}
	slices.Sort(flushes)
	l.add("raft.wal_records_per_fsync", "records", ratio(records, float64(r.snapB.fsyncs-r.snapA.fsyncs)))
	l.add("span.wal_append_us", "us", ratio(appendNs, appends)/1e3)
	l.add("span.wal_flush_mean_us", "us", mean(flushes))
	l.add("span.wal_flush_p99_us", "us", quantile(flushes, 0.99))
}
