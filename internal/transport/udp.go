// Package transport binds the HovercRaft engine to real UDP sockets
// (stdlib net), making the library deployable outside the simulator.
//
// Differences from the paper's datacenter deployment, by necessity:
//
//   - no kernel bypass: packets travel through the host UDP stack, so
//     absolute latency is tens of µs on loopback rather than sub-10µs;
//   - request dissemination uses client-side fan-out (the client unicasts
//     each request to every node) instead of switch multicast — the same
//     packets arrive at the same nodes, just spending client (not switch)
//     fan-out bandwidth;
//   - the flow-control middlebox is optional (datacenter switches do it
//     in hardware; over plain UDP the engine simply drops feedback when
//     no middlebox address is configured);
//   - the HovercRaft++ aggregator runs as a normal UDP process
//     (AggregatorServer) — the paper notes it is "an IP connected device
//     that can be placed anywhere inside the datacenter".
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	"hovercraft/internal/runtime"
	"hovercraft/internal/stats"
	"hovercraft/internal/wire"
)

// ipKey converts an IPv4 UDP address to the uint32 identity R2P2 uses.
func ipKey(a *net.UDPAddr) uint32 {
	ip4 := a.IP.To4()
	if ip4 == nil {
		return 0
	}
	return binary.BigEndian.Uint32(ip4)
}

type clientKey struct {
	ip   uint32
	port uint16
}

// aLongTimeAgo is an expired deadline: arming it interrupts the loop
// parked in its blocking batch read (the netpoller fails the read with
// a timeout immediately), which is how a submitted command kicks the
// loop awake.
var aLongTimeAgo = time.Unix(1, 0)

// ServerConfig configures one HovercRaft UDP node.
type ServerConfig struct {
	// ID is this node's Raft identity (1-based).
	ID uint32
	// Peers maps every node ID (including this one) to its UDP address.
	Peers map[uint32]string
	// Mode selects the protocol variant.
	Mode core.Mode
	// Aggregator is the HovercRaft++ aggregator address (required for
	// ModeHovercraftPP).
	Aggregator string
	// TickInterval is the protocol timer's period (default 1ms — kernel
	// UDP latencies are three orders of magnitude above the simulator's,
	// so timers scale accordingly). The tick drives timers only:
	// heartbeats and lease probes, elections, recovery and read retries,
	// GC, telemetry, admission, the published status. Replication is not
	// among them — appends leave at loop boundaries, clocked by packet
	// arrivals — so a write's latency does not depend on this value.
	TickInterval   time.Duration
	ElectionTicks  int
	HeartbeatTicks int
	// Bound, DisableReplyLB mirror core.Config.
	Bound          int
	DisableReplyLB bool
	// Storage receives raft persistence callbacks (nil = volatile).
	Storage raft.Storage
	// Recovered, when set alongside Storage (from
	// raft.OpenFileStorage), restores the node's durable state.
	Recovered *raft.RecoveredState
	// CompactEvery enables raft log compaction every N applied entries
	// when the service implements core.Snapshotter.
	CompactEvery uint64
	// Sockets exists only because the ledger's cluster (bench/cluster.go)
	// sets it to 1; it goes when that caller does. A node reads one
	// socket, so 0 and 1 are accepted and anything larger is rejected.
	Sockets int
	// RecvBatch / SendBatch cap datagrams per recvmmsg/sendmmsg
	// syscall (0 = 32). Ignored where batch I/O is unsupported.
	RecvBatch int
	SendBatch int
	// SockBufBytes sets SO_RCVBUF/SO_SNDBUF on the socket (0 = 2MB).
	// Kernel-default buffers (~212KB) silently drop bursts; the drop
	// counter is surfaced as udp_rx_dropped in DebugVars.
	SockBufBytes int
	// DisableTelemetry turns off the always-on queue-delay telemetry
	// (per-stage windowed histograms). On by default: the instruments
	// are lock-free and allocation-free, costing only clock reads.
	DisableTelemetry bool
	// TelemetryEpoch sets the sliding window's epoch length (0 = the obs
	// default of 1s; the ring keeps its default 10 epochs).
	TelemetryEpoch time.Duration
	// AdaptiveAdmission enables leader-side admission control: with no
	// middlebox over plain UDP, the leader itself tracks the in-flight
	// request window (consuming the FEEDBACK messages that previously
	// dropped), sheds new requests above the AIMD window driven by its
	// own queue-delay telemetry, and hands shed clients a retry-after
	// hint. Needs telemetry; with DisableTelemetry the window stays
	// fixed at AdmissionLimit.
	AdaptiveAdmission bool
	// Admission tunes the AIMD controller (zero values take the
	// admission package defaults, Max/Initial default to
	// AdmissionLimit).
	Admission admission.Config
	// AdmissionLimit is the admit-window ceiling (0 = 4096).
	AdmissionLimit int
	// ReadLease enables the linearizable read fast path (core.Config
	// ReadLease): LIN_READ requests are served from local state under a
	// heartbeat-ratified leader lease instead of entering the log. Off
	// by default: nodes NACK LIN_READs so clients fall back to ordered
	// reads.
	ReadLease bool
	// ReadStalenessBudget throttles a follower to one read-index fetch
	// per budget window; reads arriving within the window share that one
	// leader round (still strictly linearizable — the budget bounds
	// queueing, never staleness). 0 fetches as fast as one-in-flight
	// batching allows.
	ReadStalenessBudget time.Duration
}

// Server is a running HovercRaft node on one UDP socket.
//
// Data-plane shape: one socket, read by one run-to-completion loop that
// owns the engine, with no engine lock. Each pass drains a recvmmsg
// batch, ingests it straight into the engine, ticks the protocol timer
// when due, tells the engine the pass is over (core.Engine.EndBatch)
// and flushes the egress the pass produced — all in one goroutine, so
// no datagram ever crosses a mutex or a goroutine. A node scales out by
// running more groups, each with its own socket and loop (Multi-Raft
// shards), not by spreading one group's ingress across cores.
//
// Replication is event-driven: EndBatch is where the leader turns what
// the pass ingested — new proposals, follower acks — into
// AppendEntries, ack-clocked per follower. A write's replicate → ack →
// commit → notify → apply → reply chain is therefore driven by packet
// arrivals alone; the batch is whatever one pass found, so batching
// costs nothing at low load and grows by itself under load. The tick
// only drives timers and re-broadcasts after a loss. The service runs
// on the same loop: every operation a pass commits executes there to
// completion (serverRunner), with no second goroutine and no hand-off,
// so the pass's replies join its egress batch. The service must
// therefore be fast — a slow Execute delays heartbeats.
//
// All egress leaves through the same loop: datagrams produced while the
// engine steps are queued on its coalescer and one sendmmsg per pass
// carries them to all their destinations. The flush
// is also the durability barrier: when the storage group-commits
// (raft.GroupCommitter), what the pass staged in the WAL is written
// and fsynced once before any datagram that could acknowledge it
// leaves the node.
//
// The control plane (IsLeader, Status, DebugVars, metrics) never
// touches the engine either: the loop publishes a snapshot into atomics
// every tick, and readers see that.
type Server struct {
	cfg     ServerConfig
	conn    *net.UDPConn
	engine  *core.Engine
	service app.Service
	gc      raft.GroupCommitter // non-nil when Storage group-commits

	// Loop state: everything below is reachable only from the loop's
	// goroutine (engine steps, state-machine operations, ticks, commands
	// all run there). No lock — the Loop is the owner.
	drv      *runtime.Driver
	peers    map[raft.NodeID]*net.UDPAddr
	agg      *net.UDPAddr
	clients  map[clientKey]*net.UDPAddr
	from     *net.UDPAddr // sender of the datagram being ingested
	fromIP   [4]byte      // backing for fromAddr.IP, rewritten per datagram
	fromAddr net.UDPAddr
	eg       []egressItem // egress queued during the current loop pass
	snd      *sender
	admit    *core.FlowControl
	admCtrl  *admission.Controller
	admGC    time.Duration // next slot-leak sweep (telemetry clock)

	start time.Time
	loop  *runtime.Loop

	pub pubState // owner-published control-plane snapshot

	ctr *stats.CounterSet
	tel *obs.Telemetry // nil when cfg.DisableTelemetry

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// pubState is the owner loop's published snapshot of engine-adjacent
// state, refreshed once per tick (and after Campaign), so the control
// plane reads atomics instead of stopping the data plane.
type pubState struct {
	state   atomic.Uint32 // raft.StateType
	term    atomic.Uint64
	lead    atomic.Uint64
	commit  atomic.Uint64
	applied atomic.Uint64
	last    atomic.Uint64
	clients atomic.Uint64

	admWindow   atomic.Uint64
	admInflight atomic.Uint64
	admAdmitted atomic.Uint64
	admNacked   atomic.Uint64
	admLeaked   atomic.Uint64
}

// egressItem is one queued datagram: a pooled wire buffer bound for a
// destination (an entry of the peer, aggregator, or client table).
type egressItem struct {
	addr *net.UDPAddr
	buf  *wire.Buf
}

// NewServer binds the node to its configured address and starts serving.
func NewServer(cfg ServerConfig, svc app.Service) (*Server, error) {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = time.Millisecond
	}
	if cfg.ElectionTicks <= 0 {
		cfg.ElectionTicks = 150
	}
	if cfg.HeartbeatTicks <= 0 {
		cfg.HeartbeatTicks = 20
	}
	self, ok := cfg.Peers[cfg.ID]
	if !ok {
		return nil, fmt.Errorf("transport: node %d not in peer map", cfg.ID)
	}
	addr, err := net.ResolveUDPAddr("udp4", self)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve self: %w", err)
	}
	if cfg.Sockets > 1 {
		return nil, fmt.Errorf("transport: Sockets = %d: a node reads one socket", cfg.Sockets)
	}
	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	setSockBufs(conn, cfg.SockBufBytes)
	rawConn, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: raw conn: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		conn:    conn,
		service: svc,
		peers:   make(map[raft.NodeID]*net.UDPAddr),
		clients: make(map[clientKey]*net.UDPAddr),
		start:   time.Now(),
		ctr:     stats.NewCounterSet(),
		closed:  make(chan struct{}),
	}
	s.fromAddr.IP = s.fromIP[:]
	s.gc, _ = cfg.Storage.(raft.GroupCommitter)
	if !cfg.DisableTelemetry {
		s.tel = obs.NewTelemetry(
			func() time.Duration { return time.Since(s.start) },
			cfg.TelemetryEpoch, 0)
	}
	if cfg.AdaptiveAdmission {
		limit := cfg.AdmissionLimit
		if limit <= 0 {
			limit = 4096
		}
		// The slot timeout reclaims windows leaked by lost replies or
		// vanished clients; generous, since the AIMD loop (not slot
		// exhaustion) is the real overload brake.
		s.admit = core.NewFlowControl(limit, 2*time.Second)
		acfg := cfg.Admission
		if acfg.Max <= 0 {
			acfg.Max = limit
		}
		if acfg.Initial <= 0 {
			acfg.Initial = acfg.Max
		}
		s.admCtrl = admission.New(acfg, admission.WorstOf(func() []*obs.Telemetry {
			return []*obs.Telemetry{s.tel}
		}))
		s.admit.NackHint = s.admCtrl.Hint()
		if s.tel != nil {
			target := acfg.Target
			if target <= 0 {
				target = 500 * time.Microsecond
			}
			s.tel.SetSLO(target, 0.99)
		}
	}
	s.snd = newSender(s.conn, rawConn, cfg.SendBatch)
	ids := make([]raft.NodeID, 0, len(cfg.Peers))
	for id, pa := range cfg.Peers {
		ua, err := net.ResolveUDPAddr("udp4", pa)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve peer %d: %w", id, err)
		}
		s.peers[raft.NodeID(id)] = ua
		ids = append(ids, raft.NodeID(id))
	}
	if cfg.Aggregator != "" {
		ua, err := net.ResolveUDPAddr("udp4", cfg.Aggregator)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve aggregator: %w", err)
		}
		s.agg = ua
	} else if cfg.Mode == core.ModeHovercraftPP {
		conn.Close()
		return nil, errors.New("transport: HovercRaft++ needs an aggregator address")
	}

	var snapshotter core.Snapshotter
	if sn, ok := svc.(core.Snapshotter); ok && cfg.CompactEvery > 0 {
		snapshotter = sn
	}
	var readNackAfter time.Duration
	if cfg.ReadLease {
		// The engine's 500µs default assumes simulator latencies; kernel
		// UDP timers are ms-scale, so give queued reads a few fetch
		// round-trips before NACK-redirecting the client.
		readNackAfter = 20 * cfg.TickInterval
	}
	s.engine = core.NewEngine(core.Config{
		Mode: cfg.Mode, ID: raft.NodeID(cfg.ID), Peers: ids,
		TickInterval:        cfg.TickInterval,
		ElectionTicks:       cfg.ElectionTicks,
		HeartbeatTicks:      cfg.HeartbeatTicks,
		Bound:               cfg.Bound,
		DisableReplyLB:      cfg.DisableReplyLB,
		Storage:             cfg.Storage,
		Snapshotter:         snapshotter,
		CompactEvery:        cfg.CompactEvery,
		Tel:                 s.tel,
		ReadLease:           cfg.ReadLease,
		ReadStalenessBudget: cfg.ReadStalenessBudget,
		ReadNackAfter:       readNackAfter,
		// Real networks have ms-scale timers; scale the unordered GC.
		UnorderedTimeout: 10 * time.Second,
	}, (*serverTransport)(s), (*serverRunner)(s))
	if cfg.Recovered != nil {
		if err := s.engine.Bootstrap(cfg.Recovered); err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: bootstrap: %w", err)
		}
	}
	s.drv = runtime.New((*serverHandler)(s), runtime.Options{
		Now:          func() time.Duration { return time.Since(s.start) },
		ReasmTimeout: 2 * time.Second,
		Tick:         s.engine.Tick,
		// The engine parks request bodies until commit; responses,
		// feedback, and consensus payloads are consumed within the step.
		RetainPayload: []r2p2.MessageType{r2p2.TypeRequest},
		Telemetry:     s.tel,
	})

	s.loop = runtime.NewLoop(runtime.LoopOptions{
		Deliver:   s.deliver,
		Tick:      s.ownerTick,
		TickEvery: cfg.TickInterval,
		Now:       func() time.Duration { return time.Since(s.start) },
		Kick:      func() { _ = s.conn.SetReadDeadline(aLongTimeAgo) },
		Flush:     s.flushOwned,
		Closed:    s.closed,
	})
	s.publish()

	r, err := newBatchReader(conn, cfg.RecvBatch)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.readLoop(r)
	return s, nil
}

// Addr returns the bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// IsLeader reports whether this node currently leads, from the owner's
// last published snapshot (racy by one tick at most).
func (s *Server) IsLeader() bool {
	return raft.StateType(s.pub.state.Load()) == raft.StateLeader
}

// Status returns the node's raft status from the owner's last
// published snapshot (racy by one tick at most).
func (s *Server) Status() raft.Status {
	return raft.Status{
		ID:      raft.NodeID(s.cfg.ID),
		State:   raft.StateType(s.pub.state.Load()),
		Term:    s.pub.term.Load(),
		Lead:    raft.NodeID(s.pub.lead.Load()),
		Commit:  s.pub.commit.Load(),
		Applied: s.pub.applied.Load(),
		Last:    s.pub.last.Load(),
	}
}

// DebugVars snapshots the node's live state for the expvar endpoint:
// engine message counters, raft status, client-table size, and the
// data-plane counters. Reads only published atomics and
// concurrency-safe counter sets, so it never stalls the data plane.
func (s *Server) DebugVars() map[string]interface{} {
	st := s.Status()
	vars := map[string]interface{}{
		"id":             s.cfg.ID,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"is_leader":      st.State == raft.StateLeader,
		"term":           st.Term,
		"commit_index":   st.Commit,
		"known_clients":  s.pub.clients.Load(),
		"counters":       s.engine.Counters().Snapshot(),
		"net":            s.NetStats(),
	}
	if fs, ok := s.cfg.Storage.(*raft.FileStorage); ok {
		vars["wal_fsyncs"] = fs.SyncCount()
		vars["wal_pending_records"] = fs.PendingRecords()
	}
	if s.admit != nil {
		vars["admission"] = map[string]interface{}{
			"window":   s.pub.admWindow.Load(),
			"inflight": s.pub.admInflight.Load(),
			"admitted": s.pub.admAdmitted.Load(),
			"nacked":   s.pub.admNacked.Load(),
			"leaked":   s.pub.admLeaked.Load(),
		}
	}
	return vars
}

// NetStats snapshots the data-plane counters: datagrams and syscalls
// per direction (their ratio is the syscall-amortization factor),
// whether batch I/O is in use, and the kernel's receive-drop counter
// for this port — datagrams discarded because SO_RCVBUF overflowed,
// which never reach userspace and previously went unobserved.
func (s *Server) NetStats() map[string]uint64 {
	out := s.ctr.Snapshot()
	if batchIOSupported {
		out["batch_io"] = 1
	} else {
		out["batch_io"] = 0
	}
	out["udp_rx_dropped"] = kernelRxDrops(s.Addr().Port)
	return out
}

// Telemetry exposes the node's queue-delay instrument (nil when
// disabled).
func (s *Server) Telemetry() *obs.Telemetry { return s.tel }

// RegisterMetrics publishes the node's live metrics into a scoped
// registry view: raft role gauges, data-plane and engine counter sets,
// socket/WAL health, and the
// per-stage queue-delay windows. Everything registered here shows up
// uniformly in the expvar snapshot and the Prometheus /metrics
// exposition.
func (s *Server) RegisterMetrics(sc *obs.Scoped) {
	if sc == nil {
		return
	}
	sc.Gauge("uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	sc.Gauge("known_clients", func() float64 { return float64(s.pub.clients.Load()) })
	sc.Gauge("raft.is_leader", func() float64 {
		if s.IsLeader() {
			return 1
		}
		return 0
	})
	sc.Gauge("raft.term", func() float64 { return float64(s.pub.term.Load()) })
	sc.Gauge("raft.commit_index", func() float64 { return float64(s.pub.commit.Load()) })
	sc.Gauge("raft.applied_index", func() float64 { return float64(s.pub.applied.Load()) })
	sc.CounterSet("net", s.ctr)
	sc.CounterSet("engine", s.engine.Counters())
	sc.Gauge("net.batch_io", func() float64 {
		if batchIOSupported {
			return 1
		}
		return 0
	})
	// Kernel-side receive drops (SO_RCVBUF overflow): datagrams that
	// never reached userspace, read from /proc at scrape time.
	sc.Counter("net.udp_rx_dropped", func() uint64 { return kernelRxDrops(s.Addr().Port) })
	if fs, ok := s.cfg.Storage.(*raft.FileStorage); ok {
		sc.Counter("wal.fsyncs", fs.SyncCount)
		sc.Gauge("wal.pending_records", func() float64 { return float64(fs.PendingRecords()) })
	}
	if s.admit != nil {
		av := sc.Sub("admission")
		s.admCtrl.Register(av)
		av.Counter("admitted", s.pub.admAdmitted.Load)
		av.Counter("nacked", s.pub.admNacked.Load)
		av.Counter("leaked", s.pub.admLeaked.Load)
		av.Gauge("inflight", func() float64 { return float64(s.pub.admInflight.Load()) })
	}
	s.tel.Register(sc)
}

// Campaign triggers an immediate election (cluster bootstrap helper).
// It runs in the loop's context like every other engine step.
func (s *Server) Campaign() {
	done := make(chan struct{})
	if !s.loop.Submit(func() {
		s.engine.Campaign()
		s.publish()
		close(done)
	}) {
		return
	}
	select {
	case <-done:
	case <-s.closed:
	}
}

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() error {
	s.closeMu.Do(func() {
		close(s.closed)
		s.conn.Close()
	})
	s.wg.Wait()
	return nil
}

// readLoop is the node's one data-plane goroutine, the owner of the
// socket and the engine. It alternates between a deadline-bounded batch
// read and Advance (commands, tick, egress flush), re-kicking its own
// deadline when a Submit's wakeup raced the arm.
//
// The read deadline is the next tick's absolute due time, armed only
// when it differs from the one already on the socket: once per tick
// rather than once per pass, because re-arming the runtime's netpoll
// timer on every pass is a large share of a saturated loop's CPU. A
// kick (or any read error) may have replaced the deadline on the
// socket, so after one the loop forgets what it armed.
func (s *Server) readLoop(r *batchReader) {
	defer s.wg.Done()
	lp, c := s.loop, s.conn
	armed := time.Duration(-1) // loop-clock deadline on the socket; -1: unknown
	for {
		// Park at most until the next tick. The pending re-check must
		// come after the arm: a Submit that kicked between Advance and
		// SetReadDeadline would otherwise have its expired deadline
		// overwritten and wait out a full tick.
		if at := lp.NextTick(); at != armed {
			_ = c.SetReadDeadline(s.start.Add(at))
			armed = at
		}
		if !lp.ShouldPark() {
			_ = c.SetReadDeadline(aLongTimeAgo)
			armed = -1
		}
		n, err := r.read()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			armed = -1
			lp.Advance() // timeout or kick: tick and run commands
			continue
		}
		s.ctr.Get("ingress_datagrams").Add(uint64(n))
		s.ctr.Get("ingress_syscalls").Inc()
		if s.tel.Active() {
			// Ingress queue delay: how long this batch waits between
			// leaving the kernel and entering the engine. Run to
			// completion makes this a clock-pair apart — the stage exists
			// to prove exactly that.
			t0 := s.tel.Now()
			s.tel.RecordN(obs.QIngress, s.tel.Now()-t0, n)
		}
		for i := 0; i < n; i++ {
			lp.Ingest(r.views[i], r.keys[i], uint16(r.addrs[i].Port))
		}
		lp.Advance()
	}
}

// deliver is the loop's ingest: rebuild the sender address from the
// (ip, port) identity and feed the driver the borrowed datagram.
func (s *Server) deliver(dg []byte, src uint32, port uint16) {
	binary.BigEndian.PutUint32(s.fromIP[:], src)
	s.fromAddr.Port = int(port)
	s.from = &s.fromAddr
	s.drv.IngestBorrowed(dg, src)
}

// ownerTick is the owner loop's timer body: admission window update,
// protocol tick, control-plane publish, WAL latency bound.
func (s *Server) ownerTick() {
	if s.admCtrl != nil {
		// The controller reads the telemetry signal and resizes the
		// window; its outputs are atomics, so only the middlebox-state
		// writes (limit, hint, slot GC) touch loop state.
		s.admCtrl.Tick()
		s.admit.SetLimit(s.admCtrl.Window())
		s.admit.NackHint = s.admCtrl.Hint()
		if now := time.Since(s.start); now >= s.admGC {
			s.admit.GC(now)
			s.admGC = now + 250*time.Millisecond
		}
	}
	s.drv.Tick()
	s.publish()
	if s.gc != nil {
		// Latency bound for staged WAL records that no egress barrier
		// has covered yet (honors FsyncDelay).
		s.gc.MaybeFlush()
	}
}

// publish refreshes the control-plane snapshot from the engine. Owner
// loop only.
func (s *Server) publish() {
	st := s.engine.Node().Status()
	s.pub.state.Store(uint32(st.State))
	s.pub.term.Store(st.Term)
	s.pub.lead.Store(uint64(st.Lead))
	s.pub.commit.Store(st.Commit)
	s.pub.applied.Store(st.Applied)
	s.pub.last.Store(st.Last)
	s.pub.clients.Store(uint64(len(s.clients)))
	if s.admit != nil {
		s.pub.admWindow.Store(uint64(s.admCtrl.Window()))
		s.pub.admInflight.Store(uint64(s.admit.InFlight()))
		s.pub.admAdmitted.Store(s.admit.Admitted)
		s.pub.admNacked.Store(s.admit.Nacked)
		s.pub.admLeaked.Store(s.admit.Leaked)
	}
}

// flushOwned ends one owner-loop pass. The engine's boundary hook runs
// first — it is what turns the pass's arrivals (proposals, acks) into
// AppendEntries — then the pass's whole egress leaves together. The
// flush is the durability barrier: the group-committing storage (if
// any) makes every staged WAL record durable before any datagram that
// could acknowledge it, then one sendmmsg carries every destination's
// datagrams out of the owner's socket.
func (s *Server) flushOwned() {
	s.engine.EndBatch()
	items := s.eg
	if len(items) == 0 {
		return
	}
	if s.gc != nil {
		if s.tel.Active() {
			t0 := s.tel.Now()
			s.gc.Flush()
			// The group-commit barrier: WAL write+fsync latency covered
			// by this egress batch.
			s.tel.Record(obs.QWalSync, s.tel.Now()-t0)
		} else {
			s.gc.Flush()
		}
	}
	var eg0 time.Duration
	if s.tel.Active() {
		eg0 = s.tel.Now()
	}
	for _, it := range items {
		s.snd.queue(it.addr, it.buf.B)
	}
	s.snd.flush()
	if s.tel.Active() {
		s.tel.RecordN(obs.QEgress, s.tel.Now()-eg0, len(items))
	}
	s.ctr.Get("egress_datagrams").Add(uint64(len(items)))
	s.ctr.Get("egress_syscalls").Add(s.snd.syscalls)
	s.snd.syscalls, s.snd.datagrams = 0, 0
	for i := range items {
		items[i].buf.Release()
		items[i] = egressItem{}
	}
	s.eg = items[:0]
}

// serverHandler adapts Server to runtime.Handler: it learns client
// reply addresses from requests, then feeds the engine. It only ever
// runs on the loop.
type serverHandler Server

func (h *serverHandler) HandleMessage(m *r2p2.Msg) {
	switch m.Type {
	case r2p2.TypeRequest:
		// Remember where to send this client's replies. The r2p2
		// SrcPort disambiguates clients sharing an IP. h.from points at
		// the owner's reused scratch address, so the table keeps a
		// stable clone (refreshed if the client re-binds).
		k := clientKey{ip: m.ID.SrcIP, port: m.ID.SrcPort}
		if known := h.clients[k]; !sameUDPAddr(known, h.from) {
			h.clients[k] = cloneUDPAddr(h.from)
		}
		// Leader-side admission: over plain UDP no middlebox fronts the
		// cluster, so the leader itself sheds requests above the
		// adaptive window, answering with a hinted NACK. Followers stay
		// permissive — requests fan out to every node, and only the
		// leader's verdict is authoritative (a follower NACK would race
		// an admitted request's response in the client's fan-in count).
		// LIN_READs bypass admission entirely: they never enter the
		// replication path the window protects, and a hinted NACK would
		// put the client into write-style backoff when the read protocol
		// is an immediate redirect to the next replica.
		if h.admit != nil && h.engine.IsLeader() && m.Policy != r2p2.PolicyLinRead &&
			!h.admit.Admit(m.ID.SrcPort, m.ID.ReqID, time.Since(h.start)) {
			(*serverTransport)(h).enqueue(h.clients[k],
				[]*wire.Buf{r2p2.MakeNackHintBuf(m.ID, h.admit.NackHint)})
			return
		}
	case r2p2.TypeFeedback:
		// Feedback addressed to this node (it is, or recently was, the
		// leader): every record frees one admission slot. The engine
		// never consumes FEEDBACK — it is a middlebox/admission message.
		if h.admit != nil {
			h.admit.Release(m.ID.SrcPort, m.ID.ReqID)
			for i := 0; i < r2p2.FeedbackRecordCount(m.Payload); i++ {
				h.admit.Release(r2p2.FeedbackRecordAt(m.Payload, i))
			}
		}
		return
	}
	h.engine.HandleMessage(m)
}

// serverTransport adapts Server to core.Transport. Sends are queued on
// the owner's egress coalescer (the engine only ever steps in the
// owner loop) and flushed at the end of the same loop pass.
type serverTransport Server

func (t *serverTransport) enqueue(addr *net.UDPAddr, dgs []*wire.Buf) {
	if addr == nil {
		wire.ReleaseAll(dgs)
		return
	}
	for _, b := range dgs {
		t.eg = append(t.eg, egressItem{addr: addr, buf: b})
	}
}

func (t *serverTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	t.enqueue(t.peers[id], dgs)
}

func (t *serverTransport) SendToAggregator(dgs []*wire.Buf) { t.enqueue(t.agg, dgs) }

func (t *serverTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	t.enqueue(t.clients[clientKey{ip: id.SrcIP, port: id.SrcPort}], dgs)
}

func (t *serverTransport) SendFeedback(dgs []*wire.Buf) {
	if t.admit == nil {
		// No middlebox over plain UDP: flow control is a switch service.
		wire.ReleaseAll(dgs)
		return
	}
	// Receiver-driven credit without a middlebox: the replier's feedback
	// must reach whoever admits — the leader. When this node leads it
	// consumes its own feedback in place; otherwise the datagrams go to
	// the leader it knows of (reply load balancing makes followers emit
	// feedback for requests the leader admitted).
	if t.engine.IsLeader() {
		for _, b := range dgs {
			var h r2p2.Header
			if h.Unmarshal(b.B) == nil && h.Type == r2p2.TypeFeedback {
				t.admit.Release(h.SrcPort, h.ReqID)
				payload := b.B[r2p2.HeaderSize:]
				for i := 0; i < r2p2.FeedbackRecordCount(payload); i++ {
					t.admit.Release(r2p2.FeedbackRecordAt(payload, i))
				}
			}
		}
		wire.ReleaseAll(dgs)
		return
	}
	lead := t.engine.Node().Status().Lead
	t.enqueue(t.peers[lead], dgs)
}

// serverRunner adapts Server to core.AppRunner. Operations run to
// completion on the owner loop, the engine's only execution context:
// Execute is called inline and done before Run returns, so a pass that
// commits a batch executes it, and its replies leave in that pass's
// sendmmsg. The engine timestamps the apply queue (commit → start);
// this records only the execution itself.
type serverRunner Server

func (r *serverRunner) Run(payload []byte, readOnly bool, done func([]byte)) {
	t0 := r.tel.Now() // nil telemetry: no clock read, Record is a no-op
	reply := r.service.Execute(payload, readOnly)
	r.tel.Record(obs.QService, r.tel.Now()-t0)
	done(reply)
}
