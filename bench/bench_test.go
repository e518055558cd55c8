package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hovercraft/internal/kvstore"
	"hovercraft/internal/raft"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

// TestBenchmarkJSONMatchesCode keeps the two copies of the contract —
// the workload and end-to-end tables in the code, and BENCHMARK.json —
// from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: JSON %q, code %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the code has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if j.Name != m.name || j.Unit != m.unit || j.Better != better || j.Bound != m.bound {
			t.Errorf("end-to-end metric %d: JSON %+v, code %+v", i, j, m)
		}
	}
}

// TestQuickSuitePrintsEveryMetric runs the whole suite at -quick length
// and requires every workload × metric named in BENCHMARK.json to be
// printed exactly once, with its unit, and every run to be correct.
func TestQuickSuitePrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback clusters")
	}
	b := loadBenchmarkJSON(t)
	var out bytes.Buffer
	stdout = &out
	defer func() { stdout = os.Stdout }()
	// Generator-honesty verdicts (late, off-rate) need full-length
	// windows on a quiet host; wrong outputs fail at any length.
	if err := suite(quickConfig(1)); err != nil && strings.Contains(err.Error(), "incorrect") {
		t.Fatalf("suite: %v\n%s", err, out.String())
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	type key struct{ workload, metric string }
	seen := map[key]int{}
	unit := map[key]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "metric" {
			continue
		}
		if len(f) != 5 {
			t.Errorf("metric line without a unit: %q", line)
			continue
		}
		if !nameRE.MatchString(f[2]) {
			t.Errorf("bad metric name %q", f[2])
		}
		k := key{f[1], f[2]}
		seen[k]++
		unit[k] = f[4]
	}
	want := map[string]string{}
	for _, m := range b.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		for name, u := range want {
			k := key{w.Name, name}
			if seen[k] != 1 {
				t.Errorf("%s %s printed %d times, want once", w.Name, name, seen[k])
			} else if unit[k] != u {
				t.Errorf("%s %s printed with unit %q, BENCHMARK.json says %q", w.Name, name, unit[k], u)
			}
		}
	}
	for k := range seen {
		if _, ok := want[k.metric]; !ok {
			t.Errorf("%s %s is printed but not named in BENCHMARK.json", k.workload, k.metric)
		}
	}
}

// TestTracedStorageKeepsGroupCommit drives the same append/flush
// sequence into a bare FileStorage and into one behind the tracing
// wrapper: the fsync counts must agree, i.e. tracing does not change
// raft.wal_fsyncs_per_req. (That the wrapper implements
// raft.GroupCommitter at all is asserted at compile time in trace.go.)
func TestTracedStorageKeepsGroupCommit(t *testing.T) {
	open := func() *raft.FileStorage {
		fs, _, err := raft.OpenFileStorage(t.TempDir(), true)
		if err != nil {
			t.Fatal(err)
		}
		fs.GroupCommit(256, 0)
		t.Cleanup(func() { fs.Close() })
		return fs
	}
	bare, wrapped := open(), open()
	tr := newTracer(1)
	tr.recording.Store(true)
	ts := &tracedStorage{inner: wrapped, tr: tr}
	drive := func(s raft.Storage, g raft.GroupCommitter) {
		var idx uint64
		for _, batch := range []int{10, 0, 5, 300, 1} {
			for i := 0; i < batch; i++ {
				idx++
				s.AppendEntries([]raft.Entry{{Term: 1, Index: idx, Data: []byte("body")}})
			}
			g.Flush()
			g.MaybeFlush()
		}
		s.SaveState(2, 1)
		g.Flush()
	}
	drive(bare, bare)
	drive(ts, ts)
	if bare.SyncCount() == 0 || bare.SyncCount() != wrapped.SyncCount() {
		t.Fatalf("fsyncs: bare %d, behind the wrapper %d", bare.SyncCount(), wrapped.SyncCount())
	}
	if got, want := ts.records, int64(10+5+300+1+1); got != want {
		t.Fatalf("wrapper counted %d records, want %d", got, want)
	}
	if len(ts.flushes) == 0 {
		t.Fatal("wrapper recorded no flush span")
	}
}

// TestTracedServiceIsReplyTransparent feeds one schedule to a bare
// store and to one behind the tracing wrapper: replies and final state
// must be byte-equal, and every op must have exactly one execute span.
func TestTracedServiceIsReplyTransparent(t *testing.T) {
	w := findWorkload("readmix_open_12k")
	sched := buildSchedule(w, 7, 250*time.Millisecond)
	bare, inner := kvstore.New(), kvstore.New()
	tr := newTracer(sched.n)
	svc := &tracedService{inner: inner, node: 1, tr: tr}
	for _, p := range sched.preload {
		if !bytes.Equal(bare.Execute(p, false), svc.Execute(p, false)) {
			t.Fatal("preload replies differ")
		}
	}
	for i := 0; i < sched.n; i++ {
		p := sched.payload(i)
		if a, b := bare.Execute(p, sched.read[i]), svc.Execute(p, sched.read[i]); !bytes.Equal(a, b) {
			t.Fatalf("op %d: bare reply %x, wrapped reply %x", i, a, b)
		}
		if tr.execCount[1][i] != 1 || tr.execStart[1][i] == 0 {
			t.Fatalf("op %d: %d execute spans", i, tr.execCount[1][i])
		}
	}
	if !bytes.Equal(bare.Snapshot(), svc.Snapshot()) {
		t.Fatal("state differs behind the wrapper")
	}
}
