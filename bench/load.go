package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hovercraft/internal/kvstore"
	"hovercraft/internal/transport"
)

// Per-op outcome.
const (
	stNone    uint8 = iota // never attempted
	stOK                   // reply decoded and verified
	stErr                  // Call returned an error (timeouts, NACK exhaustion)
	stWrong                // reply decoded but failed verification
	stRefused              // not sent: maxOutstanding already in flight
)

// run is one measured pass of one workload against a fresh cluster.
type run struct {
	w      *workload
	sched  *schedule
	warm   time.Duration
	dur    time.Duration
	tr     *tracer // nil when untraced
	cl     *cluster
	conns  []*transport.Client
	epoch  time.Time
	setupS float64 // seconds the set-up took

	// Per-op records, indexed like the schedule. Each slot has exactly
	// one writer (the goroutine issuing that op) and is read only after
	// every issuer has finished.
	t0   []int64 // due (open loop) or sent (closed loop), ns from epoch
	sent []int64
	done []int64
	st   []uint8
	got  []uint64 // op id a GET returned

	outstanding atomic.Int64
	wg          sync.WaitGroup

	snapA, snapB *snapshot
	lag          []float64 // follower lag samples (entries)
	backlog      []float64 // outstanding samples
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// dial opens the workload's client sockets.
func dial(w *workload, addrs []string) ([]*transport.Client, error) {
	conns := make([]*transport.Client, 0, w.clients)
	for i := 0; i < w.clients; i++ {
		c, err := transport.Dial(addrs)
		if err != nil {
			closeClients(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeClients(conns []*transport.Client) {
	for _, c := range conns {
		c.Close()
	}
}

// setUp builds the system under test the way a user would before
// sending traffic: bind the cluster, elect, load the 1000 keys, read
// one back. It returns how long that took.
func setUp(w *workload, sched *schedule, tr *tracer) (*cluster, []*transport.Client, float64, error) {
	t0 := time.Now()
	cl, err := startCluster(w, 3, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	conns, err := dial(w, cl.addrs)
	if err != nil {
		cl.close()
		return nil, nil, 0, err
	}
	fail := func(err error) (*cluster, []*transport.Client, float64, error) {
		closeClients(conns)
		cl.close()
		return nil, nil, 0, err
	}
	// 16 loaders: a sequential preload would cost 1000 × two ticks, and
	// with 64 in flight about a third of the preloads catch the 50-tick
	// recovery retry (README, Findings), which makes setup_s read either
	// 0.06s or 0.11s. At 16 it is tick-paced and repeats within 4%.
	const loaders = 16
	errs := make(chan error, loaders)
	for g := 0; g < loaders; g++ {
		go func(g int) {
			for k := g; k < numKeys; k += loaders {
				reply, err := conns[0].Call(sched.preload[k], false)
				if err == nil && (len(reply) != 1 || reply[0] != kvstore.StatusOK) {
					err = fmt.Errorf("preload key %d: reply %x", k, reply)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < loaders; g++ {
		if err := <-errs; err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
	}
	reply, err := conns[0].Call(kvstore.EncodeGet(sched.keys[0]), true)
	if err != nil {
		return fail(fmt.Errorf("first read: %w", err))
	}
	if id, ok := decodeGet(reply, sched.valSize); !ok || id != preloadFlag {
		return fail(fmt.Errorf("first read: reply %x", reply))
	}
	return cl, conns, time.Since(t0).Seconds(), nil
}

// decodeGet parses a GET reply and returns the op id its value carries.
func decodeGet(reply []byte, valSize int) (uint64, bool) {
	status, body := kvstore.DecodeStatus(reply)
	if status != kvstore.StatusOK || len(body) != 4+valSize ||
		int(binary.BigEndian.Uint32(body)) != valSize {
		return 0, false
	}
	return binary.BigEndian.Uint64(body[4:]), true
}

// issue sends op i and records and verifies its outcome.
func (r *run) issue(i int, c *transport.Client) {
	s := r.sched
	p := s.payload(i)
	r.sent[i] = r.now()
	var reply []byte
	var err error
	if s.read[i] {
		reply, err = c.CallRead(p)
	} else {
		reply, err = c.Call(p, false)
	}
	r.done[i] = r.now()
	switch {
	case err != nil:
		r.st[i] = stErr
	case !s.read[i]:
		if len(reply) == 1 && reply[0] == kvstore.StatusOK {
			r.st[i] = stOK
		} else {
			r.st[i] = stWrong
		}
	default:
		// A GET must return a value some write to this very key carried.
		id, ok := decodeGet(reply, s.valSize)
		if ok && id&preloadFlag != 0 {
			ok = id&^preloadFlag == uint64(s.key[i])
		} else if ok {
			j := int(id - 1)
			ok = j >= 0 && j < s.n && !s.read[j] && s.key[j] == s.key[i]
		}
		if ok {
			r.got[i], r.st[i] = id, stOK
		} else {
			r.st[i] = stWrong
		}
	}
}

// dispatchOpen starts every request at its due time, whatever the
// cluster is doing. The goroutine that slept until op i was due issues
// it itself, on the thread that just woke, and hands the rest of the
// schedule to a fresh goroutine: a request never waits for a second
// thread to be woken before it is sent. An outstanding request is a
// parked goroutine.
func (r *run) dispatchOpen(i int, finished chan<- struct{}) {
	s := r.sched
	for ; i < s.n; i++ {
		r.t0[i] = s.due[i]
		if d := s.due[i] - r.now(); d > int64(5*time.Microsecond) {
			preciseSleep(time.Duration(d))
		}
		if r.outstanding.Load() >= maxOutstanding {
			r.sent[i] = r.now()
			r.st[i] = stRefused
			continue
		}
		r.outstanding.Add(1)
		r.wg.Add(1)
		go r.dispatchOpen(i+1, finished)
		r.issue(i, r.conns[i%len(r.conns)])
		r.outstanding.Add(-1)
		r.wg.Done()
		return
	}
	close(finished)
}

// runClosed keeps w.outstanding writers busy until the window ends.
func (r *run) runClosed() {
	end := int64(r.warm + r.dur)
	var next atomic.Int64
	r.outstanding.Store(int64(r.w.outstanding))
	for k := 0; k < r.w.outstanding; k++ {
		r.wg.Add(1)
		go func(c *transport.Client) {
			defer r.wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= r.sched.n || r.now() >= end {
					return
				}
				r.issue(i, c)
				r.t0[i] = r.sent[i]
			}
		}(r.conns[k%len(r.conns)])
	}
}

// monitor marks the measured window: a snapshot of every outside-
// readable counter at each edge and, in between, 100ms samples of
// follower lag and generator backlog.
func (r *run) monitor() {
	time.Sleep(time.Until(r.epoch.Add(r.warm)))
	if r.tr != nil {
		r.tr.recording.Store(true)
	}
	r.snapA = takeSnapshot(r)
	end := r.epoch.Add(r.warm + r.dur)
	for time.Until(end) > 100*time.Millisecond {
		time.Sleep(100 * time.Millisecond)
		r.backlog = append(r.backlog, float64(r.outstanding.Load()))
		lead := r.cl.leader()
		if lead < 0 {
			continue
		}
		commit := r.cl.servers[lead].Status().Commit
		slowest := commit
		for _, s := range r.cl.servers {
			if a := s.Status().Applied; a < slowest {
				slowest = a
			}
		}
		r.lag = append(r.lag, float64(commit-slowest))
	}
	time.Sleep(time.Until(end))
	r.snapB = takeSnapshot(r)
	if r.tr != nil {
		r.tr.recording.Store(false)
	}
}

// segment runs the workload once against a fresh cluster: set-up,
// warm-up, measured window, drain, quiesce, verification, teardown.
func segment(w *workload, seed int64, warm, dur time.Duration, traced bool) (*result, error) {
	sched := buildSchedule(w, seed, warm+dur)
	r := &run{w: w, sched: sched, warm: warm, dur: dur}
	if traced {
		r.tr = newTracer(sched.n)
	}
	var err error
	if r.cl, r.conns, r.setupS, err = setUp(w, sched, r.tr); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer closeClients(r.conns)

	r.t0 = make([]int64, sched.n)
	r.sent = make([]int64, sched.n)
	r.done = make([]int64, sched.n)
	r.st = make([]uint8, sched.n)
	if w.readMix {
		r.got = make([]uint64, sched.n)
	}

	r.epoch = time.Now()
	monitorDone := make(chan struct{})
	go func() { r.monitor(); close(monitorDone) }()
	if w.open {
		genDone := make(chan struct{})
		go r.dispatchOpen(0, genDone)
		<-genDone
	} else {
		r.runClosed()
	}
	<-monitorDone
	backlogEnd := r.outstanding.Load()
	r.wg.Wait()

	res := &result{workload: w.name, traced: traced}
	if err := r.cl.quiesce(10 * time.Second); err != nil {
		res.violations = append(res.violations, err.Error())
	}
	r.finish(res, float64(backlogEnd))
	if err := r.cl.stop(); err != nil {
		res.violations = append(res.violations, err.Error())
	}
	if r.tr != nil {
		r.traceMetrics(res)
	}
	return res, nil
}

// execute measures a workload over several segments, each a fresh
// cluster with its own schedule, and reports the median segment for
// every metric. Much of the run-to-run noise on this plane is fixed at
// cluster start (how the three nodes' 1ms ticks happen to interleave,
// where the kernel places their threads), so one long window on one
// cluster repeats worse than the median of a few short ones. It also
// makes setup_s a median over as many set-ups.
func execute(w *workload, seed int64, warm, dur time.Duration, traced bool, segments int) (*result, error) {
	out := &result{workload: w.name, traced: traced}
	var e2e, layer []*metricSet
	for k := 0; k < segments; k++ {
		seg, err := segment(w, seed*1000+int64(k), warm, dur/time.Duration(segments), traced)
		if err != nil {
			return nil, err
		}
		out.attempted += seg.attempted
		out.ok += seg.ok
		out.failed += seg.failed
		out.samples += seg.samples
		for _, v := range seg.violations {
			out.violations = append(out.violations, fmt.Sprintf("segment %d: %s", k+1, v))
		}
		for _, v := range seg.invalid {
			out.invalid = append(out.invalid, fmt.Sprintf("segment %d: %s", k+1, v))
		}
		fmt.Fprintf(stdout, "segment %s %d/%d:", w.name, k+1, segments)
		for _, m := range seg.e2e.list {
			fmt.Fprintf(stdout, " %s=%.6g", m.name, m.value)
		}
		fmt.Fprintln(stdout)
		e2e, layer = append(e2e, &seg.e2e), append(layer, &seg.layer)
		// Collect this segment's schedule, logs and stores now, not
		// inside the next segment's window.
		runtime.GC()
	}
	out.e2e, out.layer = medianOf(e2e), medianOf(layer)
	return out, nil
}
