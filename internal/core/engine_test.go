package core

import (
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	"hovercraft/internal/wire"
)

// failer abstracts *testing.T so the interleaving explorer can collect
// violations instead of aborting the test binary.
type failer interface {
	Fatalf(format string, args ...interface{})
	Fatal(args ...interface{})
}

// world is a zero-latency in-memory bus wiring engines, an aggregator,
// and a synthetic client together for protocol-logic tests (timing-free;
// the simulator covers timing).
type world struct {
	t       failer
	mode    Mode
	engines map[raft.NodeID]*Engine
	reasm   map[raft.NodeID]*r2p2.Reassembler
	agg     *Aggregator
	aggRe   *r2p2.Reassembler
	down    map[raft.NodeID]bool
	// dropClientTo suppresses multicast delivery of client requests to
	// specific nodes (multicast loss injection).
	dropClientTo map[raft.NodeID]bool
	// hold freezes the bus: sends still enqueue, deliver() is a no-op.
	// Lets tests pile up pipelined AEs before (re)ordering or dropping
	// them.
	hold bool

	queue []busPacket

	client       *r2p2.Client
	clientRe     *r2p2.Reassembler
	responses    map[uint32]busResponse // reqID → response
	dupResponses int
	feedbacks    int
	fbFlushes    int // SendFeedback calls
	nacks        int
	totalSends   int
}

type busPacket struct {
	toNode raft.NodeID // 0 = not a node
	toAgg  bool
	fromIP uint32
	dg     []byte
}

type busResponse struct {
	payload []byte
	fromIP  uint32
}

const (
	clientIP = 1
	aggIP    = 50
)

func nodeIP(id raft.NodeID) uint32 { return 100 + uint32(id) }

type busTransport struct {
	w      *world
	fromIP uint32
}

// takeAll copies pooled datagrams into plain byte slices and releases the
// transferred references (the bus retains datagrams past the send call,
// which the Transport contract forbids for the buffers themselves).
func takeAll(dgs []*wire.Buf) [][]byte {
	out := make([][]byte, 0, len(dgs))
	for _, b := range dgs {
		out = append(out, append([]byte(nil), b.B...))
		b.Release()
	}
	return out
}

func (b *busTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	for _, dg := range takeAll(dgs) {
		b.w.queue = append(b.w.queue, busPacket{toNode: id, fromIP: b.fromIP, dg: dg})
	}
}
func (b *busTransport) SendToAggregator(dgs []*wire.Buf) {
	for _, dg := range takeAll(dgs) {
		b.w.queue = append(b.w.queue, busPacket{toAgg: true, fromIP: b.fromIP, dg: dg})
	}
}
func (b *busTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	for _, dg := range takeAll(dgs) {
		m, err := b.w.clientRe.Ingest(dg, b.fromIP, 0)
		if err != nil {
			b.w.t.Fatalf("client ingest: %v", err)
		}
		if m == nil {
			continue
		}
		switch m.Type {
		case r2p2.TypeResponse:
			if _, dup := b.w.responses[m.ID.ReqID]; dup {
				b.w.dupResponses++
			}
			b.w.responses[m.ID.ReqID] = busResponse{payload: m.Payload, fromIP: b.fromIP}
		case r2p2.TypeNack:
			b.w.nacks++
		}
	}
}
func (b *busTransport) SendFeedback(dgs []*wire.Buf) {
	// Count completed replies, not datagrams: feedback is coalesced.
	b.w.fbFlushes++
	for _, dg := range dgs {
		b.w.feedbacks += 1 + r2p2.FeedbackRecordCount(dg.B[r2p2.HeaderSize:])
		dg.Release()
	}
}

type busAggTransport struct{ w *world }

func (b *busAggTransport) ForwardToFollowers(leader raft.NodeID, dgs []*wire.Buf) {
	for _, dg := range takeAll(dgs) {
		for id := range b.w.engines {
			if id == leader {
				continue
			}
			b.w.queue = append(b.w.queue, busPacket{toNode: id, fromIP: aggIP, dg: dg})
		}
	}
}
func (b *busAggTransport) Broadcast(dgs []*wire.Buf) {
	for _, dg := range takeAll(dgs) {
		for id := range b.w.engines {
			b.w.queue = append(b.w.queue, busPacket{toNode: id, fromIP: aggIP, dg: dg})
		}
	}
}
func (b *busAggTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	for _, dg := range takeAll(dgs) {
		b.w.queue = append(b.w.queue, busPacket{toNode: id, fromIP: aggIP, dg: dg})
	}
}

// syncRunner executes the echo service synchronously: done runs before
// Run returns, as on the UDP plane.
type syncRunner struct{}

func (syncRunner) Run(payload []byte, readOnly bool, done func([]byte)) {
	reply := append([]byte("echo:"), payload...)
	done(reply)
}

func newWorld(t failer, mode Mode, n int) *world {
	return newWorldWith(t, mode, n, nil)
}

// newWorldWith is newWorld with a hook that adjusts every engine's
// config before it is built.
func newWorldWith(t failer, mode Mode, n int, tweak func(*Config)) *world {
	w := &world{
		t: t, mode: mode,
		engines:      make(map[raft.NodeID]*Engine),
		reasm:        make(map[raft.NodeID]*r2p2.Reassembler),
		down:         make(map[raft.NodeID]bool),
		dropClientTo: make(map[raft.NodeID]bool),
		client:       r2p2.NewClient(clientIP, 9),
		clientRe:     r2p2.NewReassembler(time.Second),
		responses:    make(map[uint32]busResponse),
	}
	peers := make([]raft.NodeID, n)
	for i := range peers {
		peers[i] = raft.NodeID(i + 1)
	}
	for _, id := range peers {
		cfg := Config{
			Mode: mode, ID: id, Peers: peers,
			ElectionTicks: 20, HeartbeatTicks: 4, Bound: 16,
			RecoveryRetryTicks: 2,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		e := NewEngine(cfg, &busTransport{w: w, fromIP: nodeIP(id)}, syncRunner{})
		w.engines[id] = e
		w.reasm[id] = r2p2.NewReassembler(time.Second)
	}
	if mode == ModeHovercraftPP {
		w.agg = NewAggregator(peers, &busAggTransport{w: w})
		w.aggRe = r2p2.NewReassembler(time.Second)
	}
	return w
}

func (w *world) deliver() {
	if w.hold {
		return
	}
	for i := 0; i < 100000 && len(w.queue) > 0; i++ {
		p := w.queue[0]
		w.queue = w.queue[1:]
		w.deliverOne(p)
	}
	if len(w.queue) > 0 {
		w.t.Fatal("bus did not quiesce")
	}
}

// deliverOne delivers a single bus packet (the interleaving explorer
// drives deliveries one decision at a time).
func (w *world) deliverOne(p busPacket) {
	w.totalSends++
	switch {
	case p.toAgg:
		if w.agg == nil {
			return
		}
		m, err := w.aggRe.Ingest(p.dg, p.fromIP, 0)
		if err != nil {
			w.t.Fatalf("agg ingest: %v", err)
		}
		if m != nil {
			w.agg.HandleMessage(m)
		}
	default:
		if w.down[p.toNode] {
			return
		}
		e, ok := w.engines[p.toNode]
		if !ok {
			return
		}
		m, err := w.reasm[p.toNode].Ingest(p.dg, p.fromIP, 0)
		if err != nil {
			w.t.Fatalf("node ingest: %v", err)
		}
		if m != nil {
			e.HandleMessage(m)
		}
	}
}

func (w *world) tick(k int) {
	for i := 0; i < k; i++ {
		for id, e := range w.engines {
			if !w.down[id] {
				e.Tick()
			}
		}
		w.deliver()
	}
}

func (w *world) leader() *Engine {
	for id, e := range w.engines {
		if !w.down[id] && e.IsLeader() {
			return e
		}
	}
	return nil
}

func (w *world) electLeader(id raft.NodeID) *Engine {
	w.engines[id].Campaign()
	w.deliver()
	w.tick(2)
	lead := w.leader()
	if lead == nil {
		w.t.Fatal("no leader after campaign")
	}
	return lead
}

// ingestRequest hands one client request's datagrams to node nid, as if
// its copy of the multicast just arrived.
func (w *world) ingestRequest(nid raft.NodeID, dgs [][]byte) {
	if w.down[nid] || w.dropClientTo[nid] {
		return
	}
	for _, dg := range dgs {
		m, err := w.reasm[nid].Ingest(dg, clientIP, 0)
		if err != nil {
			w.t.Fatal(err)
		}
		if m != nil {
			w.engines[nid].HandleMessage(m)
		}
	}
}

// request injects one client request: multicast in Hover modes, direct to
// the leader in Vanilla.
func (w *world) request(policy r2p2.Policy, payload []byte) uint32 {
	id, dgs := w.client.NewRequest(policy, payload)
	if w.mode == ModeVanilla {
		if lead := w.leader(); lead != nil {
			w.ingestRequest(lead.cfg.ID, dgs)
		}
	} else {
		for nid := range w.engines {
			w.ingestRequest(nid, dgs)
		}
	}
	w.deliver()
	return id.ReqID
}

func TestEngineVanillaServesRequest(t *testing.T) {
	w := newWorld(t, ModeVanilla, 3)
	w.electLeader(1)
	rid := w.request(r2p2.PolicyReplicated, []byte("hello"))
	w.tick(10)
	resp, ok := w.responses[rid]
	if !ok {
		t.Fatal("no response")
	}
	if string(resp.payload) != "echo:hello" {
		t.Fatalf("payload = %q", resp.payload)
	}
	if resp.fromIP != nodeIP(1) {
		t.Fatalf("vanilla reply from %d, want leader", resp.fromIP)
	}
	if w.feedbacks != 0 {
		t.Fatal("vanilla sent feedback")
	}
	// All nodes applied the entry.
	for id, e := range w.engines {
		if e.Node().Log().Applied() < 2 { // noop + request
			t.Fatalf("node %d applied = %d", id, e.Node().Log().Applied())
		}
	}
}

func TestEngineVanillaFollowerRedirects(t *testing.T) {
	w := newWorld(t, ModeVanilla, 3)
	w.electLeader(1)
	// Deliver a request to a follower directly.
	id, dgs := w.client.NewRequest(r2p2.PolicyReplicated, []byte("x"))
	m, _ := w.reasm[2].Ingest(dgs[0], clientIP, 0)
	w.engines[2].HandleMessage(m)
	w.deliver()
	if w.nacks != 1 {
		t.Fatalf("nacks = %d", w.nacks)
	}
	_ = id
}

func TestEngineHovercraftBasic(t *testing.T) {
	w := newWorld(t, ModeHovercraft, 3)
	w.electLeader(1)
	rid := w.request(r2p2.PolicyReplicated, []byte("world"))
	w.tick(10)
	resp, ok := w.responses[rid]
	if !ok {
		t.Fatal("no response")
	}
	if string(resp.payload) != "echo:world" {
		t.Fatalf("payload = %q", resp.payload)
	}
	if w.feedbacks != 1 {
		t.Fatalf("feedbacks = %d", w.feedbacks)
	}
	// Followers promoted the body from their unordered sets: every node
	// has the full entry, and unordered stores drained.
	for id, e := range w.engines {
		log := e.Node().Log()
		var found bool
		for i := log.FirstIndex(); i <= log.LastIndex(); i++ {
			le := log.Entry(i)
			if le.Kind != raft.KindNoop && string(le.Data) == "world" {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d missing request body", id)
		}
		if e.Unordered().Len() != 0 {
			t.Fatalf("node %d unordered not drained: %d", id, e.Unordered().Len())
		}
	}
}

func TestEngineHovercraftReadOnlyExecutedOnce(t *testing.T) {
	w := newWorld(t, ModeHovercraft, 3)
	w.electLeader(1)
	// Many read-only requests: each should be applied by all (ordering)
	// but executed only by its replier; responses must arrive for all.
	var rids []uint32
	for i := 0; i < 30; i++ {
		rids = append(rids, w.request(r2p2.PolicyReplicatedRO, []byte(fmt.Sprintf("q%d", i))))
		w.tick(1)
	}
	w.tick(20)
	repliers := map[uint32]bool{}
	for _, rid := range rids {
		resp, ok := w.responses[rid]
		if !ok {
			t.Fatalf("request %d unanswered", rid)
		}
		repliers[resp.fromIP] = true
	}
	if len(repliers) < 2 {
		t.Fatalf("read-only replies not load balanced: repliers = %v", repliers)
	}
}

func TestEngineHovercraftRecovery(t *testing.T) {
	w := newWorld(t, ModeHovercraft, 3)
	w.electLeader(1)
	// Node 3 misses the multicast: it must recover the body from the
	// leader and still apply + (if replier) respond.
	w.dropClientTo[3] = true
	rid := w.request(r2p2.PolicyReplicated, []byte("lost-on-3"))
	w.tick(20)
	if _, ok := w.responses[rid]; !ok {
		t.Fatal("no response")
	}
	e3 := w.engines[3]
	log := e3.Node().Log()
	var found bool
	for i := log.FirstIndex(); i <= log.Applied(); i++ {
		if le := log.Entry(i); le != nil && string(le.Data) == "lost-on-3" {
			found = true
		}
	}
	if !found {
		t.Fatal("node 3 never recovered the body")
	}
	if e3.Counters().Value("tx_recovery_req") == 0 {
		t.Fatal("no recovery request sent")
	}
	if w.engines[1].Counters().Value("rx_recovery_req") == 0 {
		t.Fatal("leader never saw the recovery request")
	}
}

func TestEngineHovercraftMetadataOnlyAEs(t *testing.T) {
	w := newWorld(t, ModeHovercraft, 3)
	w.electLeader(1)
	// Capture AE sizes by snooping the bus: deliver a large request and
	// compare against vanilla.
	big := make([]byte, 1000)
	w.request(r2p2.PolicyReplicated, big)
	// Snoop before delivery.
	var aeBytes int
	for _, p := range w.queue {
		aeBytes += len(p.dg)
	}
	w.tick(10)
	// In HovercRaft the queued AE traffic right after a 1000B request
	// must be far below 2×1000B (metadata only).
	if aeBytes > 800 {
		t.Fatalf("AE bytes = %d, expected metadata-only (<800)", aeBytes)
	}
}

func TestEngineLeaderFailoverDrainsUnordered(t *testing.T) {
	w := newWorld(t, ModeHovercraft, 3)
	w.electLeader(1)
	// Kill the leader, then inject a request that only the followers see.
	w.down[1] = true
	rid := w.request(r2p2.PolicyReplicated, []byte("orphan"))
	// Followers hold it unordered; elect node 2; it must drain and order it.
	w.engines[2].Campaign()
	w.deliver()
	w.tick(30)
	if w.leader() == nil {
		t.Fatal("no new leader")
	}
	resp, ok := w.responses[rid]
	if !ok {
		t.Fatal("orphan request never answered after failover")
	}
	if string(resp.payload) != "echo:orphan" {
		t.Fatalf("payload = %q", resp.payload)
	}
}

func TestEngineHovercraftPPGroupCommit(t *testing.T) {
	w := newWorld(t, ModeHovercraftPP, 3)
	w.electLeader(1)
	lead := w.engines[1]
	// Give the leader time to ping the aggregator and enter group mode.
	w.tick(20)
	if !lead.groupMode {
		t.Fatalf("leader never entered group mode (pong term %d, term %d, commit %d, noop %d)",
			lead.aggPongTerm, lead.Node().Term(), lead.Node().Log().Commit(), lead.noopIndex)
	}
	rid := w.request(r2p2.PolicyReplicated, []byte("via-agg"))
	w.tick(20)
	resp, ok := w.responses[rid]
	if !ok {
		t.Fatal("no response in group mode")
	}
	if string(resp.payload) != "echo:via-agg" {
		t.Fatalf("payload = %q", resp.payload)
	}
	if lead.Counters().Value("tx_agg_ae") == 0 {
		t.Fatal("leader never sent group AEs")
	}
	if lead.Counters().Value("rx_agg_commit") == 0 {
		t.Fatal("leader never saw AGG_COMMIT")
	}
	if w.agg.Commits == 0 {
		t.Fatal("aggregator never committed")
	}
	// In group mode the leader must not also broadcast point-to-point
	// AEs (beyond the bootstrap window before group mode).
	bootstrapAEs := lead.Counters().Value("tx_ae")
	w.request(r2p2.PolicyReplicated, []byte("second"))
	w.tick(10)
	if got := lead.Counters().Value("tx_ae"); got != bootstrapAEs {
		t.Fatalf("leader sent %d point-to-point AEs in group mode", got-bootstrapAEs)
	}
}

func TestEngineHovercraftPPFollowerCatchup(t *testing.T) {
	w := newWorld(t, ModeHovercraftPP, 3)
	w.electLeader(1)
	w.tick(20)
	// Partition follower 3 (drop its traffic), commit entries, heal:
	// it must catch up point-to-point and rejoin the group flow.
	w.down[3] = true
	var rids []uint32
	for i := 0; i < 20; i++ {
		rids = append(rids, w.request(r2p2.PolicyReplicated, []byte(fmt.Sprintf("e%d", i))))
		w.tick(2)
	}
	w.tick(5)
	// Replies assigned to the dead follower are lost, but the bounded
	// queue (B=16) caps the damage: at most B of the 20 can be missing,
	// and the cluster stays live.
	answered := 0
	for _, rid := range rids {
		if _, ok := w.responses[rid]; ok {
			answered++
		}
	}
	if answered < len(rids)-16 {
		t.Fatalf("answered %d of %d: losses exceed the queue bound", answered, len(rids))
	}
	if answered == 0 {
		t.Fatal("cluster made no progress with one follower down")
	}
	w.down[3] = false
	// New request: follower 3 sees a group AE whose prev it misses →
	// rejects to the leader → direct catch-up.
	rid := w.request(r2p2.PolicyReplicated, []byte("after-heal"))
	w.tick(40)
	if _, ok := w.responses[rid]; !ok {
		t.Fatal("request after heal unanswered")
	}
	e3 := w.engines[3]
	if e3.Node().Log().Applied() < w.engines[1].Node().Log().Applied() {
		t.Fatalf("follower 3 did not catch up: %v vs %v",
			e3.Node().Status(), w.engines[1].Node().Status())
	}
}

func TestEngineTable1MessageCounts(t *testing.T) {
	// The leader's per-request message complexity (paper Table 1):
	// Vanilla: rx 1 client req + (N-1) AE resps; tx (N-1) AEs + 1 resp.
	// HovercRaft++: rx 1 req + 1 agg commit; tx 1 agg AE + 1/N resps.
	const n = 3
	const requests = 200
	run := func(mode Mode) (rxAE, txAE, rxAgg, txAgg uint64) {
		w := newWorld(t, mode, n)
		w.electLeader(1)
		w.tick(30)
		lead := w.engines[1]
		lead.Counters().ResetAll()
		for i := 0; i < requests; i++ {
			w.request(r2p2.PolicyReplicated, []byte("x"))
			w.tick(1)
		}
		w.tick(30)
		c := lead.Counters()
		return c.Value("rx_ae_resp"), c.Value("tx_ae"), c.Value("rx_agg_commit"), c.Value("tx_agg_ae")
	}
	rxV, txV, _, _ := run(ModeVanilla)
	// Vanilla: ~2 AE-resp rx and ~2 AE tx per request (plus heartbeats).
	if txV < requests*(n-1)/2 {
		t.Fatalf("vanilla tx_ae = %d, want ≈%d", txV, requests*(n-1))
	}
	rxP, txP, rxAgg, txAgg := run(ModeHovercraftPP)
	if txAgg == 0 || rxAgg == 0 {
		t.Fatal("H++ leader not using the aggregator")
	}
	// H++ leader fan-out collapses: its per-request AE traffic must be
	// well below vanilla's.
	if txP+txAgg >= txV {
		t.Fatalf("H++ leader tx (%d+%d) not below vanilla (%d)", txP, txAgg, txV)
	}
	if rxP >= rxV {
		t.Fatalf("H++ leader rx AE-resps (%d) not below vanilla (%d)", rxP, rxV)
	}
}

func TestUnreplicatedEngine(t *testing.T) {
	got := map[string]string{}
	var tr *busTransport
	w := &world{
		t:         t,
		clientRe:  r2p2.NewReassembler(time.Second),
		responses: make(map[uint32]busResponse),
	}
	tr = &busTransport{w: w, fromIP: 42}
	e := NewUnreplicatedEngine(tr, syncRunner{})
	cl := r2p2.NewClient(clientIP, 7)
	re := r2p2.NewReassembler(time.Second)
	for i := 0; i < 3; i++ {
		id, dgs := cl.NewRequest(r2p2.PolicyUnrestricted, []byte(fmt.Sprintf("r%d", i)))
		for _, dg := range dgs {
			m, _ := re.Ingest(dg, clientIP, 0)
			if m != nil {
				e.HandleMessage(m)
			}
		}
		_ = id
	}
	for rid, resp := range w.responses {
		got[fmt.Sprint(rid)] = string(resp.payload)
	}
	if len(got) != 3 {
		t.Fatalf("responses = %v", got)
	}
	if e.Counters().Value("rx_req") != 3 || e.Counters().Value("tx_resp") != 3 {
		t.Fatalf("counters: %s", e.Counters())
	}
	if e.QueueLen() != 0 {
		t.Fatalf("queue = %d", e.QueueLen())
	}
}
