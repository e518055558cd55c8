package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/core"
	"hovercraft/internal/kvstore"
	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	hrt "hovercraft/internal/runtime"
	"hovercraft/internal/wire"
)

// timeOp calls fn(batch) — which performs batch operations — until the
// budget is spent, and returns ns and heap allocations per operation.
func timeOp(budget time.Duration, batch int, fn func(n int)) (ns, allocs float64) {
	fn(batch) // warm pools, maps and caches outside the measurement
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		fn(batch)
		ops += batch
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// layerTimings times each layer alone through its public functions, on
// inputs taken from the seeded schedule. budget is the wall time spent
// per timing.
func layerTimings(w *workload, seed int64, budget time.Duration) (*metricSet, error) {
	l := &metricSet{}
	rate := w.rate
	if !w.open {
		rate = closedLoopOpsPerSec
	}
	sched := buildSchedule(w, seed, time.Duration(4096/rate*float64(time.Second)))
	if sched.n < 64 {
		return nil, fmt.Errorf("layer schedule too small: %d ops", sched.n)
	}
	next := 0
	payload := func() []byte {
		next = (next + 1) % sched.n
		return sched.payload(next)
	}
	var firstWrite []byte
	for i := 0; i < sched.n; i++ {
		if !sched.read[i] {
			firstWrite = sched.payload(i)
			break
		}
	}

	// r2p2: request encode.
	rc := r2p2.NewClient(1, 9)
	ns, al := timeOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			rc.NewRequest(r2p2.PolicyReplicated, payload())
		}
	})
	l.add("r2p2.encode_ns", "ns", ns)
	l.add("r2p2.encode_allocs", "1/op", al)

	// runtime: borrowed ingest of a request datagram into a handler,
	// configured like the server (request payloads are retained).
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	sink := 0
	drv := hrt.New(hrt.HandlerFunc(func(m *r2p2.Msg) { sink += len(m.Payload) }), hrt.Options{
		Now: clock, RetainPayload: []r2p2.MessageType{r2p2.TypeRequest},
	})
	_, dgs := rc.NewRequest(r2p2.PolicyReplicated, firstWrite)
	ns, al = timeOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			drv.IngestBorrowed(dgs[0], 1)
		}
	})
	l.add("runtime.ingest_ns", "ns", ns)
	l.add("runtime.ingest_allocs", "1/op", al)

	mb := hrt.NewMailbox(1024)
	ns, _ = timeOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			mb.Push(dgs[0], 1, 9, 0)
			mb.Drain(1, func(dg []byte, _ uint32, _ uint16, _ bool, _ time.Duration) { sink += len(dg) })
		}
	})
	l.add("runtime.mailbox_ns", "ns", ns)

	ns, _ = timeOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			wire.Get(1400).Release()
		}
	})
	l.add("wire.get_release_ns", "ns", ns)

	// raft wire codec: a 16-entry metadata-only AppendEntries.
	ae := raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 3, Index: 100, LogTerm: 3, Commit: 100}
	for i := 0; i < 16; i++ {
		ae.Entries = append(ae.Entries, raft.Entry{Term: 3, Index: uint64(101 + i), Kind: raft.KindReadWrite,
			Replier: 2, ID: r2p2.RequestID{SrcIP: 1, SrcPort: 9, ReqID: uint32(i)}, BodyHash: uint64(i)})
	}
	var buf []byte
	var codecErr error
	ns, _ = timeOp(budget, 64, func(n int) {
		for i := 0; i < n; i++ {
			buf = raft.EncodeMessage(&ae, buf[:0])
			if _, err := raft.DecodeMessage(buf); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("raft codec: %w", codecErr)
	}
	l.add("raft.msg_codec_ns", "ns", ns)

	for _, b := range []int{1, 64} {
		ns, al, err := raftCommit(budget, b, firstWrite)
		if err != nil {
			return nil, err
		}
		l.add(fmt.Sprintf("raft.commit_b%d_ns", b), "ns", ns)
		if b == 64 {
			l.add("raft.commit_allocs_per_entry", "1/op", al)
		}
	}

	if err := walTimings(l, budget); err != nil {
		return nil, err
	}
	if err := engineTimings(l, budget, sched); err != nil {
		return nil, err
	}

	store := kvstore.New()
	for _, p := range sched.preload {
		store.Execute(p, false)
	}
	set := firstWrite
	get := kvstore.EncodeGet(sched.keys[0])
	ns, _ = timeOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(store.Execute(set, false))
		}
	})
	l.add("kvstore.set_ns", "ns", ns)
	ns, _ = timeOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(store.Execute(get, true))
		}
	})
	l.add("kvstore.get_ns", "ns", ns)

	ctl := admission.New(admission.Config{}, admission.StaticSignal(100*time.Microsecond, 0, 100))
	ns, _ = timeOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			ctl.Tick()
		}
	})
	l.add("admission.tick_ns", "ns", ns)

	if err := floors(l, w, sched, budget); err != nil {
		return nil, err
	}
	if sink < 0 {
		return nil, fmt.Errorf("unreachable") // keeps sink live
	}
	return l, nil
}

// raftCommit steps three raft.Nodes in memory: propose b entries at the
// leader, exchange messages until quiet, apply. Returns ns and allocs
// per committed entry.
func raftCommit(budget time.Duration, b int, body []byte) (float64, float64, error) {
	peers := []raft.NodeID{1, 2, 3}
	nodes := make(map[raft.NodeID]*raft.Node, 3)
	for _, id := range peers {
		nodes[id] = raft.NewNode(raft.Config{ID: id, Peers: peers, ElectionTicks: 150, HeartbeatTicks: 20,
			MaxEntriesPerAppend: 256, MaxInflightEntries: 4096})
	}
	pump := func() {
		for moved := true; moved; {
			moved = false
			for _, id := range peers {
				for _, m := range nodes[id].ReadMessages() {
					moved = true
					nodes[m.To].Step(m)
				}
			}
		}
	}
	lead := nodes[1]
	lead.Campaign()
	pump()
	if lead.State() != raft.StateLeader {
		return 0, 0, fmt.Errorf("raft commit timing: node 1 did not win its election")
	}
	var req uint32
	var stuck error
	ns, al := timeOp(budget, b, func(n int) {
		for i := 0; i < n; i++ {
			req++
			if _, err := lead.Propose(raft.Entry{Kind: raft.KindReadWrite, Replier: 1,
				ID: r2p2.RequestID{SrcIP: 1, SrcPort: 9, ReqID: req}, Data: body}); err != nil {
				stuck = err
			}
		}
		lead.BroadcastAppend()
		pump()
		lead.BroadcastAppend() // carries the new commit index to the followers
		pump()
		for _, id := range peers {
			nd := nodes[id]
			nd.AppliedTo(nd.Log().Commit())
			if applied := nd.Log().Applied(); applied-nd.Log().SnapIndex() > 8192 {
				if err := nd.Compact(applied-64, nil); err != nil {
					stuck = err
				}
			}
		}
		if lead.Log().Commit() != lead.Log().LastIndex() {
			stuck = fmt.Errorf("commit %d behind last %d", lead.Log().Commit(), lead.Log().LastIndex())
		}
	})
	if stuck != nil {
		return 0, 0, fmt.Errorf("raft commit timing: %w", stuck)
	}
	return ns, al, nil
}

// walTimings times FileStorage on the run's scratch directory: staging
// one 1KiB record, and write+fsync of a 1-record and a 64-record batch.
func walTimings(l *metricSet, budget time.Duration) error {
	dir, err := os.MkdirTemp("", "wal-timing-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, _, err := raft.OpenFileStorage(dir, true)
	if err != nil {
		return err
	}
	defer fs.Close()
	fs.GroupCommit(1<<20, 0) // stage until Flush
	ent := []raft.Entry{{Term: 1, Kind: raft.KindReadWrite, Data: make([]byte, 1024)}}
	var idx uint64
	var staged time.Duration
	appends := 0
	stage := func(n int) {
		for i := 0; i < n; i++ {
			idx++
			ent[0].Index = idx
			t0 := time.Now()
			fs.AppendEntries(ent)
			staged += time.Since(t0)
			appends++
		}
	}
	for _, b := range []int{1, 64} {
		var flushes []float64
		for t0 := time.Now(); time.Since(t0) < budget || len(flushes) < 5; {
			stage(b)
			f0 := time.Now()
			fs.Flush()
			flushes = append(flushes, float64(time.Since(f0))/1e3)
		}
		l.add(fmt.Sprintf("raft.wal_fsync_b%d_us", b), "us", median(flushes))
	}
	l.add("raft.wal_append_ns", "ns", float64(staged)/float64(appends))
	return nil
}

// engineNet joins three core.Engines in memory: sends are queued and
// delivered by the driving loop, replies to the client are counted.
type engineNet struct {
	queue     []enginePacket
	datagrams int
	bytes     int
	replies   int
}

type enginePacket struct {
	to   raft.NodeID
	from uint32
	buf  *wire.Buf
}

type engineTransport struct {
	net  *engineNet
	self uint32
}

func (t *engineTransport) count(dgs []*wire.Buf) {
	t.net.datagrams += len(dgs)
	for _, b := range dgs {
		t.net.bytes += len(b.B)
	}
}

func (t *engineTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	t.count(dgs)
	for _, b := range dgs {
		t.net.queue = append(t.net.queue, enginePacket{to: id, from: t.self, buf: b})
	}
}

func (t *engineTransport) SendToAggregator(dgs []*wire.Buf) { wire.ReleaseAll(dgs) }

func (t *engineTransport) SendToClient(_ r2p2.RequestID, dgs []*wire.Buf) {
	t.count(dgs)
	t.net.replies += len(dgs)
	wire.ReleaseAll(dgs)
}

// SendFeedback drops, as the server does without admission control.
func (t *engineTransport) SendFeedback(dgs []*wire.Buf) { wire.ReleaseAll(dgs) }

type inlineRunner struct{ store *kvstore.Store }

func (r inlineRunner) Run(payload []byte, readOnly bool, done func([]byte)) {
	done(r.store.Execute(payload, readOnly))
}

// engineTimings drives request → replicate → commit → apply → reply
// through three engines with no sockets: every request datagram is
// ingested at each replica (the client's fan-out), then one tick round
// runs. 32 requests share a tick, about what write_sat_256 sees.
func engineTimings(l *metricSet, budget time.Duration, sched *schedule) error {
	const perTick = 32
	peers := []raft.NodeID{1, 2, 3}
	net := &engineNet{}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	engines := make(map[raft.NodeID]*core.Engine, 3)
	drvs := make(map[raft.NodeID]*hrt.Driver, 3)
	for _, id := range peers {
		tel := obs.NewTelemetry(clock, 0, 0)
		e := core.NewEngine(core.Config{
			Mode: core.ModeHovercraft, ID: id, Peers: peers, TickInterval: time.Millisecond,
			ElectionTicks: 150, HeartbeatTicks: 20, Bound: 128, Tel: tel,
			UnorderedTimeout: 10 * time.Second,
		}, &engineTransport{net: net, self: 100 + uint32(id)}, inlineRunner{kvstore.New()})
		engines[id] = e
		drvs[id] = hrt.New(e, hrt.Options{Now: clock, Tick: e.Tick, Telemetry: tel,
			RetainPayload: []r2p2.MessageType{r2p2.TypeRequest}})
	}
	deliver := func() {
		for len(net.queue) > 0 {
			q := net.queue
			net.queue = nil
			for _, p := range q {
				drvs[p.to].IngestBorrowed(p.buf.B, p.from)
				p.buf.Release()
			}
		}
	}
	round := func() {
		for _, id := range peers {
			drvs[id].Tick()
		}
		deliver()
	}
	engines[1].Campaign()
	deliver()
	for i := 0; i < 3; i++ {
		round()
	}
	if !engines[1].IsLeader() {
		return fmt.Errorf("engine timing: node 1 did not win its election")
	}
	rc := r2p2.NewClient(1, 9)
	next, sent := 0, 0
	inject := func(n int) {
		for i := 0; i < n; i++ {
			next = (next + 1) % sched.n
			for sched.read[next] { // LIN_READs need leases; time the write path
				next = (next + 1) % sched.n
			}
			_, dgs := rc.NewRequest(r2p2.PolicyReplicated, sched.payload(next))
			for _, id := range peers {
				for _, dg := range dgs {
					drvs[id].IngestBorrowed(dg, 1)
				}
			}
			sent++
		}
		deliver()
		round()
		round() // commit index reaches the followers, they apply
	}
	inject(perTick)
	net.datagrams, net.bytes, net.replies, sent = 0, 0, 0, 0
	ns, al := timeOp(budget, perTick, inject)
	for i := 0; i < 4; i++ {
		round()
	}
	if net.replies < sent {
		return fmt.Errorf("engine timing: %d requests, %d replies", sent, net.replies)
	}
	l.add("core.engine_ns_per_req", "ns", ns)
	l.add("core.engine_allocs_per_req", "1/op", al)
	l.add("core.engine_dg_per_req", "dg/req", float64(net.datagrams)/float64(sent))
	l.add("core.engine_bytes_per_req", "B/req", float64(net.bytes)/float64(sent))
	return nil
}

// floors measures what no change to this repository can beat on this
// host: a bare UDP round trip, the same client against one node with
// no replication, and how late a sub-millisecond timer fires.
func floors(l *metricSet, w *workload, sched *schedule, budget time.Duration) error {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	srv, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return err
	}
	cli, err := net.DialUDP("udp4", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		srv.Close()
		return err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		b := make([]byte, 2048)
		for {
			n, from, err := srv.ReadFromUDP(b)
			if err != nil {
				return
			}
			srv.WriteToUDP(b[:n], from)
		}
	}()
	var rtts []float64
	msg, b := make([]byte, 64), make([]byte, 2048)
	for t0 := time.Now(); time.Since(t0) < budget || len(rtts) < 100; {
		s := time.Now()
		if _, err = cli.Write(msg); err == nil {
			cli.SetReadDeadline(time.Now().Add(time.Second))
			_, err = cli.Read(b)
		}
		if err != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(s))/1e3)
	}
	cli.Close()
	srv.Close()
	<-echoDone
	if err != nil {
		return fmt.Errorf("udp echo floor: %w", err)
	}
	l.add("floor.udp_echo_p50_us", "us", median(rtts))

	single := *w
	single.durable, single.readMix = false, false
	cl, err := startCluster(&single, 1, nil)
	if err != nil {
		return fmt.Errorf("single-node floor: %w", err)
	}
	conns, err := dial(&single, cl.addrs)
	if err != nil {
		cl.close()
		return fmt.Errorf("single-node floor: %w", err)
	}
	var lat []float64
	for i, t0 := 0, time.Now(); time.Since(t0) < budget || len(lat) < 50; i++ {
		s := time.Now()
		reply, err := conns[0].Call(sched.preload[i%numKeys], false)
		if err != nil || len(reply) != 1 || reply[0] != kvstore.StatusOK {
			closeClients(conns)
			cl.close()
			return fmt.Errorf("single-node floor: reply %x, err %v", reply, err)
		}
		lat = append(lat, float64(time.Since(s))/1e3)
	}
	closeClients(conns)
	cl.close()
	l.add("floor.single_node_p50_us", "us", median(lat))

	var over []float64
	const nap = 200 * time.Microsecond
	for t0 := time.Now(); time.Since(t0) < budget || len(over) < 50; {
		s := time.Now()
		time.Sleep(nap)
		over = append(over, float64(time.Since(s)-nap)/1e3)
	}
	slices.Sort(over)
	l.add("floor.sleep_overshoot_p50_us", "us", quantile(over, 0.5))
	return nil
}
