package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hovercraft/internal/obs"
	"hovercraft/internal/raft"
)

type metric struct {
	name  string
	unit  string
	value float64
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	list []metric
	idx  map[string]int
}

func (m *metricSet) add(name, unit string, v float64) {
	if m.idx == nil {
		m.idx = make(map[string]int)
	}
	if i, ok := m.idx[name]; ok {
		m.list[i] = metric{name, unit, v}
		return
	}
	m.idx[name] = len(m.list)
	m.list = append(m.list, metric{name, unit, v})
}

func (m *metricSet) get(name string) float64 {
	if i, ok := m.idx[name]; ok {
		return m.list[i].value
	}
	return 0
}

// result is everything one run reports.
type result struct {
	workload   string
	traced     bool
	attempted  int
	ok         int
	failed     int
	samples    int      // latency samples behind p50_us/p99_us
	violations []string // wrong outputs: the run is incorrect
	invalid    []string // generator-honesty rules broken: the run measures nothing
	e2e        metricSet
	layer      metricSet
}

func (r *result) correct() bool { return len(r.violations) == 0 }

// quantile reads the q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf reports, for every metric, the median over the sets.
func medianOf(sets []*metricSet) metricSet {
	var out metricSet
	for _, m := range sets[0].list {
		vals := make([]float64, len(sets))
		for i, s := range sets {
			vals[i] = s.get(m.name)
		}
		out.add(m.name, m.unit, median(vals))
	}
	return out
}

// snapshot is every outside-readable counter at one edge of the window.
type snapshot struct {
	at           int64 // ns from epoch
	user, sys    float64
	vcsw, ivcsw  float64 // context switches, voluntary and involuntary
	mem          runtime.MemStats
	net          []map[string]uint64 // per node: Server.NetStats
	ctr          []map[string]uint64 // per node: engine counters
	handoffDrops uint64
	status       []raft.Status
	fsyncs       uint64
	telSum       [][obs.NumQStages]int64 // per node, cumulative ns
	telCount     [][obs.NumQStages]uint64
	telP99       [][obs.NumQStages]time.Duration // sliding window at this instant
}

// usage reads the process's CPU seconds and context-switch counts.
func usage() (user, sys, vcsw, ivcsw float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime), float64(ru.Nvcsw), float64(ru.Nivcsw)
}

func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func takeSnapshot(r *run) *snapshot {
	s := &snapshot{at: r.now()}
	s.user, s.sys, s.vcsw, s.ivcsw = usage()
	runtime.ReadMemStats(&s.mem)
	for _, srv := range r.cl.servers {
		vars := srv.DebugVars()
		net, _ := vars["net"].(map[string]uint64)
		ctr, _ := vars["counters"].(map[string]uint64)
		s.net = append(s.net, net)
		s.ctr = append(s.ctr, ctr)
		if cores, ok := vars["cores"].(map[string]interface{}); ok {
			for _, c := range cores {
				if m, ok := c.(map[string]uint64); ok {
					s.handoffDrops += m["handoff_drops"]
				}
			}
		}
		s.status = append(s.status, srv.Status())
		var sum [obs.NumQStages]int64
		var cnt [obs.NumQStages]uint64
		var p99 [obs.NumQStages]time.Duration
		tel := srv.Telemetry()
		for st := obs.QStage(0); st < obs.NumQStages; st++ {
			if h := tel.Hist(st); h != nil {
				sum[st], cnt[st] = h.TotalSum(), h.TotalCount()
				p99[st] = tel.Window(st).P99
			}
		}
		s.telSum = append(s.telSum, sum)
		s.telCount = append(s.telCount, cnt)
		s.telP99 = append(s.telP99, p99)
	}
	for _, f := range r.cl.files {
		s.fsyncs += f.SyncCount()
	}
	return s
}

// sumDelta adds up B−A of one named counter over all nodes.
func sumDelta(a, b []map[string]uint64, name string) float64 {
	var d float64
	for i := range b {
		d += float64(b[i][name]) - float64(a[i][name])
	}
	return d
}

// finish turns the per-op records and the two snapshots into metrics
// and checks the run.
func (r *run) finish(res *result, backlogEnd float64) {
	s, w := r.sched, r.w
	lo, hi := int64(r.warm), int64(r.warm+r.dur)
	var lat, latOther, late []float64
	var sloMiss int
	var okDone float64 // verified completions inside [snapA, snapB)
	var counts [stRefused + 1]int
	for i := 0; i < s.n; i++ {
		if r.st[i] == stOK && r.done[i] >= r.snapA.at && r.done[i] < r.snapB.at {
			okDone++
		}
		if r.st[i] == stNone || r.t0[i] < lo || r.t0[i] >= hi {
			continue
		}
		res.attempted++
		counts[r.st[i]]++
		late = append(late, float64(r.sent[i]-r.t0[i])/1e3)
		limit := sloWrite
		if s.read[i] {
			limit = sloRead
		}
		if r.st[i] != stOK {
			sloMiss++
			continue
		}
		res.ok++
		d := r.done[i] - r.t0[i]
		if d > int64(limit) {
			sloMiss++
		}
		if s.read[i] == w.readMix {
			lat = append(lat, float64(d)/1e3)
		} else {
			latOther = append(latOther, float64(d)/1e3)
		}
	}
	res.failed = res.attempted - res.ok
	res.samples = len(lat)
	if counts[stErr] > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d calls returned an error", counts[stErr]))
	}
	if counts[stWrong] > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d replies failed verification", counts[stWrong]))
	}
	if counts[stRefused] > 0 {
		res.invalid = append(res.invalid, fmt.Sprintf("%d requests refused: %d already outstanding", counts[stRefused], maxOutstanding))
	}
	slices.Sort(lat)
	slices.Sort(latOther)
	slices.Sort(late)

	a, b := r.snapA, r.snapB
	window := float64(b.at-a.at) / 1e9
	cpu := (b.user - a.user) + (b.sys - a.sys)
	e := &res.e2e
	e.add("throughput_rps", "1/s", okDone/window)
	e.add("p50_us", "us", quantile(lat, 0.50))
	e.add("p95_us", "us", quantile(lat, 0.95))
	e.add("setup_s", "s", r.setupS)

	// Everything below is read from outside at the window edges, so it
	// costs the measured window nothing and is computed traced or not.
	l := &res.layer
	perReq := func(name string, total float64) { l.add(name, "1/req", ratio(total, okDone)) }
	perK := func(name string, total float64) { l.add(name, "1/kreq", ratio(total*1000, okDone)) }
	rxDg, txDg := sumDelta(a.net, b.net, "ingress_datagrams"), sumDelta(a.net, b.net, "egress_datagrams")
	perReq("transport.ingress_dg_per_req", rxDg)
	perReq("transport.egress_dg_per_req", txDg)
	l.add("transport.dg_per_recvmmsg", "dg/call", ratio(rxDg, sumDelta(a.net, b.net, "ingress_syscalls")))
	l.add("transport.dg_per_sendmmsg", "dg/call", ratio(txDg, sumDelta(a.net, b.net, "egress_syscalls")))
	l.add("transport.udp_rx_dropped", "count", sumDelta(a.net, b.net, "udp_rx_dropped"))
	l.add("transport.handoff_drops", "count", float64(b.handoffDrops)-float64(a.handoffDrops))

	lead := r.cl.leader()
	if lead < 0 {
		lead = 0
		res.violations = append(res.violations, "no leader at the end of the window")
	}
	txAE := float64(b.ctr[lead]["tx_ae"]) - float64(a.ctr[lead]["tx_ae"])
	perReq("core.ae_per_req", txAE)
	l.add("core.entries_per_ae", "entries", ratio(float64(b.status[lead].Commit)-float64(a.status[lead].Commit), txAE))
	perK("core.recovery_per_kreq", sumDelta(a.ctr, b.ctr, "tx_recovery_req"))
	perK("core.dup_req_per_kreq", sumDelta(a.ctr, b.ctr, "rx_req_dup"))
	perK("core.nack_per_kreq", sumDelta(a.ctr, b.ctr, "tx_nack"))

	perReq("process.allocs_per_req", float64(b.mem.Mallocs-a.mem.Mallocs))
	l.add("process.alloc_bytes_per_req", "B/req", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), okDone))
	l.add("process.gc_cycles", "count", float64(b.mem.NumGC-a.mem.NumGC))
	l.add("process.gc_pause_ms", "ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	// CPU per request is not end-to-end: on the mostly idle workloads the
	// kernel settles the process's threads on one CPU or on both for a
	// whole run, and the two placements differ by 25-35% of CPU time on
	// identical code (README). The involuntary switches say which it was.
	l.add("process.cpu_us_per_req", "us", ratio(cpu*1e6, okDone))
	l.add("process.cpu_sys_share", "share", ratio(b.sys-a.sys, cpu))
	l.add("process.cpu_busy_cores", "cores", ratio(cpu, window))
	l.add("process.rss_mb", "MB", rssMB())
	perReq("process.vol_csw_per_req", b.vcsw-a.vcsw)
	perReq("process.invol_csw_per_req", b.ivcsw-a.ivcsw)

	followerReads := sumDelta(a.ctr, b.ctr, "read_follower_served")
	served := followerReads + sumDelta(a.ctr, b.ctr, "read_leader_served")
	stale := sumDelta(a.ctr, b.ctr, "read_stale_served")
	l.add("core.read_follower_share", "share", ratio(followerReads, served))
	l.add("core.read_amortized_share", "share", ratio(sumDelta(a.ctr, b.ctr, "read_amortized"), served))
	perK("core.read_nacked_per_kreq", sumDelta(a.ctr, b.ctr, "read_nacked"))
	l.add("core.read_stale_served", "count", stale)
	writes := lat
	if w.readMix {
		writes = latOther
	}
	l.add("client.write_p50_us", "us", quantile(writes, 0.50))

	var termA, termB uint64
	for i := range b.status {
		termA, termB = max(termA, a.status[i].Term), max(termB, b.status[i].Term)
	}
	l.add("raft.follower_lag_entries", "entries", mean(r.lag))
	l.add("raft.elections", "count", float64(termB-termA))
	perReq("raft.wal_fsyncs_per_req", float64(b.fsyncs-a.fsyncs))

	for st := obs.QStage(0); st < obs.NumQStages; st++ {
		n := float64(b.telCount[lead][st] - a.telCount[lead][st])
		sum := float64(b.telSum[lead][st] - a.telSum[lead][st])
		l.add("tel."+st.String()+"_mean_us", "us", ratio(sum, n)/1e3)
		l.add("tel."+st.String()+"_p99_us", "us", float64(b.telP99[lead][st])/1e3)
	}

	l.add("client.fail_share", "share", ratio(float64(res.failed), float64(res.attempted)))
	l.add("client.mean_us", "us", mean(lat))
	l.add("client.p99_us", "us", quantile(lat, 0.99))
	l.add("client.p99.9_us", "us", quantile(lat, 0.999))
	l.add("client.max_us", "us", quantile(lat, 1))
	l.add("client.slo_miss_share", "share", ratio(float64(sloMiss), float64(res.attempted)))
	l.add("client.gen_late_p50_us", "us", quantile(late, 0.50))
	l.add("client.gen_late_p99_us", "us", quantile(late, 0.99))
	l.add("client.backlog_end", "count", backlogEnd)

	if stale != 0 {
		res.violations = append(res.violations, fmt.Sprintf("core.read_stale_served = %v", stale))
	}
	if termB != termA {
		res.violations = append(res.violations, fmt.Sprintf("raft.elections = %d during the window", termB-termA))
	}
	if w.readMix {
		res.violations = append(res.violations, r.staleReads()...)
	}
	if w.open {
		// The rule is on the median: the p99 of lateness on this host is
		// the Go scheduler finding neither of two Ps free (0.4-2ms), the
		// same thing that shapes the cluster's own tail. 100us is twice
		// what a bare nanosleep overshoots by.
		if late50, limit := l.get("client.gen_late_p50_us"), max(0.10*e.get("p50_us"), 100); late50 > limit {
			res.invalid = append(res.invalid, fmt.Sprintf("generator ran late: gen_late_p50 %.0fus > %.0fus", late50, limit))
		}
		// Offered is what the seeded schedule made due inside the window
		// (Poisson, so not exactly w.rate); completing less means the
		// cluster or the generator fell behind.
		offered := float64(res.attempted) / r.dur.Seconds()
		if got := e.get("throughput_rps"); got < 0.98*offered || got > 1.02*offered {
			res.invalid = append(res.invalid, fmt.Sprintf("completed %.0f/s, not within 2%% of the %.0f/s offered", got, offered))
		}
		if q := len(r.backlog) / 4; q > 0 {
			first, last := mean(r.backlog[:q]), mean(r.backlog[len(r.backlog)-q:])
			if last > 2*first+32 {
				res.invalid = append(res.invalid, fmt.Sprintf("backlog still growing: %.0f outstanding in the first quarter, %.0f in the last", first, last))
			}
		}
	} else if r.st[s.n-1] != stNone {
		res.invalid = append(res.invalid, "closed-loop schedule exhausted before the window ended")
	}
}

// staleReads checks every GET against the writes to its key: the value
// returned must not be older than a write acknowledged before the read
// was issued. A value is provably older than such a write w only if its
// own write was acknowledged before w was sent (concurrent writes may
// have been ordered either way).
func (r *run) staleReads() []string {
	s := r.sched
	type wr struct{ sent, done int64 }
	byKey := make([][]wr, numKeys)
	for i := 0; i < s.n; i++ {
		if !s.read[i] && r.st[i] == stOK {
			byKey[s.key[i]] = append(byKey[s.key[i]], wr{r.sent[i], r.done[i]})
		}
	}
	stale := 0
	for i := 0; i < s.n; i++ {
		if !s.read[i] || r.st[i] != stOK {
			continue
		}
		// Latest send time among writes acknowledged before this read.
		var fence int64 = -1
		for _, w := range byKey[s.key[i]] {
			if w.done < r.sent[i] && w.sent > fence {
				fence = w.sent
			}
		}
		if fence < 0 {
			continue
		}
		id := r.got[i]
		if id&preloadFlag != 0 {
			stale++ // the preload value survived an acknowledged write
			continue
		}
		if j := int(id - 1); r.st[j] == stOK && r.done[j] < fence {
			stale++
		}
	}
	if stale > 0 {
		return []string{fmt.Sprintf("%d GETs returned a value older than a write acknowledged before they were issued", stale)}
	}
	return nil
}
