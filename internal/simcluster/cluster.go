// Package simcluster assembles a complete HovercRaft deployment inside
// the discrete-event simulator: server nodes running the protocol engine,
// the flow-control middlebox, the in-network aggregator, multicast
// groups, and hooks for load-generating clients. It is the simulated
// equivalent of the paper's testbed (§7) and the substrate for every
// experiment in the harness. One Cluster runs one Raft group by default
// or, sharded, G independent groups placed over a shared node pool.
package simcluster

import (
	"fmt"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	"hovercraft/internal/runtime"
	"hovercraft/internal/shard"
	"hovercraft/internal/simnet"
	"hovercraft/internal/wire"
)

// Setup selects one of the paper's four evaluated systems.
type Setup uint8

const (
	// SetupUnreplicated is the non-fault-tolerant baseline (one node).
	SetupUnreplicated Setup = iota
	// SetupVanilla is Raft-on-R2P2 with no HovercRaft extensions.
	SetupVanilla
	// SetupHovercraft adds multicast replication, reply/read load
	// balancing, and flow control.
	SetupHovercraft
	// SetupHovercraftPP adds the in-network aggregator.
	SetupHovercraftPP
)

func (s Setup) String() string {
	switch s {
	case SetupUnreplicated:
		return "UnRep"
	case SetupVanilla:
		return "VanillaRaft"
	case SetupHovercraft:
		return "HovercRaft"
	case SetupHovercraftPP:
		return "HovercRaft++"
	default:
		return fmt.Sprintf("setup(%d)", uint8(s))
	}
}

// Options configures a simulated cluster.
type Options struct {
	Setup Setup
	// Groups is the number of independent Raft groups (default 1,
	// at most shard.MaxGroups). Groups > 1 shards the keyspace
	// (Multi-Raft): clients route by Cluster.Map and tag requests with
	// the R2P2 group byte. Sharded clusters run SetupHovercraft without
	// a WAL.
	Groups int
	// Nodes is the node pool size (forced to 1 for SetupUnreplicated;
	// default Replication × min(Groups, 4), so 3 for one group).
	Nodes int
	// Replication is each group's replica count (default Nodes for one
	// group, else 3). Groups are placed over the pool by shard.Place.
	Replication int
	Seed        int64
	// Host configures node NICs; zero value uses paper defaults.
	Host simnet.HostConfig

	// Engine knobs (zero values take core defaults), applied per group.
	TickInterval   time.Duration
	Bound          int
	Policy         core.SelectPolicy
	DisableReplyLB bool
	// MaxInflightEntries / MaxBatchBytes tune replication pipelining
	// and per-AE batching; zero values take the paper-faithful core
	// defaults (deep pipeline, unbounded batch).
	MaxInflightEntries int
	MaxBatchBytes      int

	// ReadLease enables the leader-lease/ReadIndex linearizable read
	// fast path (core.Config.ReadLease): LIN_READ requests sent
	// point-to-point to any replica are served locally without log
	// replication. The lease clock is the engine tick — virtual time
	// here — so same-seed runs stay bit-identical.
	ReadLease bool
	// ReadStalenessBudget relaxes follower reads to bounded staleness
	// (core.Config.ReadStalenessBudget). 0 = strict linearizability.
	ReadStalenessBudget time.Duration

	// FlowLimit caps each group's in-flight requests at the middlebox
	// (0 = 4096).
	FlowLimit int

	// AdaptiveAdmission replaces each group's fixed FlowLimit window
	// with the AIMD controller of internal/admission: the group's admit
	// window tracks the worst queue-delay p99 across its live member
	// nodes' consensus-path stages, shrinking under overload and
	// recovering toward FlowLimit when the tail is healthy — a hot
	// shard sheds load while cold shards keep their full windows. Shed
	// requests carry a retry-after hint. Requires per-node telemetry;
	// when NewTelemetry is unset a fine-grained default (1ms epochs) is
	// installed automatically.
	AdaptiveAdmission bool
	// Admission tunes the controllers; zero values take the admission
	// package defaults, with Max/Initial defaulting to FlowLimit.
	Admission admission.Config

	// CompactEvery enables raft log compaction every N applied entries
	// when the service implements core.Snapshotter (0 = off).
	CompactEvery uint64

	// WAL, when true, gives every node an in-memory framed write-ahead
	// log (raft.BufferStorage) so a crashed node can come back through
	// Node.RestartFromWAL — a real post-crash recovery (volatile state
	// lost, service rebuilt by log replay) rather than the in-memory
	// resume of Node.Restart.
	WAL bool

	// NewService builds one group's application instance on one node.
	// Every member of a group must build equivalent state machines; the
	// group argument lets a keyed service know which slice of the
	// keyspace it owns. The returned cost model charges the simulated
	// app thread; return the service itself when it implements
	// app.CostModel.
	NewService func(group int) (app.Service, app.CostModel)

	// Preload is applied to every node's service before the cluster
	// starts (dataset loading, outside the measured window).
	Preload [][]byte

	// Obs, when non-nil, traces the request path and records cluster
	// events across every node, the fabric, and the middleboxes. Its
	// clock is bound to this cluster's virtual time.
	Obs *obs.Obs

	// NewTelemetry, when non-nil, builds each node's queue-delay
	// telemetry instrument (per-stage windowed histograms), shared by
	// every group replica the node hosts. The cluster binds every
	// instrument's clock to virtual time, so a fixed seed produces
	// identical telemetry counts run over run. The instrument survives
	// crash/restart cycles (it models the process, not the engine
	// incarnation).
	NewTelemetry func(id raft.NodeID) *obs.Telemetry
}

// Node is one simulated server. It hosts an engine per group it is a
// member of, all sharing the node's simulated host (NIC, app thread) —
// the contention that makes overlapping placements saturate honestly.
type Node struct {
	ID   raft.NodeID
	Host *simnet.Host
	// Engines is indexed by group; nil where this node is not a member
	// (and everywhere for SetupUnreplicated).
	Engines []*core.Engine
	Unrep   *core.UnreplicatedEngine // nil unless SetupUnreplicated
	// Services is indexed like Engines (Services[0] under UnRep).
	Services []app.Service
	Tel      *obs.Telemetry // nil unless Options.NewTelemetry

	cluster    *Cluster
	drv        *runtime.Driver
	crashed    bool
	storage    *raft.BufferStorage
	fsyncDelay time.Duration
}

// Group is one Raft group's cluster-side state.
type Group struct {
	// Flow is the group's window at the middlebox (nil in the UnRep and
	// Vanilla setups, which have none).
	Flow *core.FlowControl
	// Admission is the adaptive controller driving Flow's window (nil
	// unless Options.AdaptiveAdmission in a middlebox setup).
	Admission *admission.Controller

	addr simnet.Addr // multicast address of the member set
}

// Cluster is the assembled deployment.
type Cluster struct {
	Sim *simnet.Sim
	Net *simnet.Network

	// Map is the authoritative shard map clients route by.
	Map *shard.Map
	// Placement records each group's members and placed leader.
	Placement shard.Placement

	Nodes  []*Node
	Groups []*Group
	Agg    *core.Aggregator

	// ServiceAddr is where clients send requests: the middlebox in
	// HovercRaft modes, the (initial) leader in Vanilla, the server in
	// UnRep.
	ServiceAddr simnet.Addr

	// StaleNacks counts requests NACKed with the r2p2.GroupInvalid
	// redirect sentinel (client shard map newer than the deployment).
	StaleNacks uint64

	opts     Options
	aggHost  *simnet.Host
	flowHost *simnet.Host

	groupExcept map[raft.NodeID]simnet.Addr // aggregator fan-out, HovercRaft++
	addrOf      map[raft.NodeID]simnet.Addr
}

// New assembles a cluster (does not start ticking; call Start).
func New(opts Options) *Cluster {
	if opts.Groups <= 0 {
		opts.Groups = 1
	}
	if opts.Groups > 1 && (opts.Setup != SetupHovercraft || opts.WAL) {
		panic("simcluster: sharded clusters run SetupHovercraft without a WAL")
	}
	if opts.Setup == SetupUnreplicated {
		opts.Nodes = 1
	}
	if opts.Replication <= 0 {
		opts.Replication = 3
		if opts.Groups == 1 && opts.Nodes > 0 {
			opts.Replication = opts.Nodes
		}
	}
	if opts.Nodes <= 0 {
		// Enough nodes for disjoint groups, capped at 4 groups' worth —
		// beyond that, placements overlap by design.
		opts.Nodes = min(opts.Groups, 4) * opts.Replication
	}
	opts.Nodes = max(opts.Nodes, opts.Replication)
	if opts.Host.LinkBps == 0 {
		opts.Host = simnet.DefaultHostConfig()
	}
	if opts.FlowLimit <= 0 {
		opts.FlowLimit = 4096
	}
	if opts.TickInterval <= 0 {
		opts.TickInterval = 10 * time.Microsecond
	}
	if opts.NewService == nil {
		opts.NewService = func(int) (app.Service, app.CostModel) {
			s := &app.SynthService{}
			return s, s
		}
	}
	if opts.AdaptiveAdmission && opts.NewTelemetry == nil {
		// The controller needs the queue-delay signal; default to
		// instruments fine-grained enough for µs-scale simulated runs.
		opts.NewTelemetry = defaultAdmissionTelemetry(opts.Admission.Target)
	}

	c := &Cluster{
		Sim:    simnet.New(opts.Seed),
		opts:   opts,
		Map:    shard.NewMap(opts.Groups),
		addrOf: make(map[raft.NodeID]simnet.Addr),
	}
	c.Net = simnet.NewNetwork(c.Sim)
	if opts.Obs.Active() {
		opts.Obs.SetClock(c.Sim.Now)
		c.Net.SetObserver(func(kind, detail string) {
			opts.Obs.Emit("net", kind, detail)
		})
	}

	pool := make([]raft.NodeID, opts.Nodes)
	for i := range pool {
		pool[i] = raft.NodeID(i + 1)
	}
	c.Placement = shard.Place(opts.Groups, pool, opts.Replication)

	// Every host first (pool nodes, then the middleboxes), engines last:
	// raft.NewNode draws its election timeout from the shared Sim.Rand()
	// at construction, so the engine build order fixes the run.
	for _, id := range pool {
		h := c.Net.NewHost(fmt.Sprintf("node%d", id), opts.Host)
		c.addrOf[id] = h.Addr()
		n := &Node{
			ID: id, Host: h, cluster: c,
			Engines:  make([]*core.Engine, opts.Groups),
			Services: make([]app.Service, opts.Groups),
		}
		if opts.NewTelemetry != nil {
			n.Tel = opts.NewTelemetry(id)
			n.Tel.SetClock(c.Sim.Now)
		}
		if opts.WAL && opts.Setup != SetupUnreplicated {
			n.storage = raft.NewBufferStorage()
			n.storage.OnAppend = func(int) {
				if n.fsyncDelay > 0 {
					n.Host.App().Submit(n.fsyncDelay, nil)
				}
			}
		}
		c.Nodes = append(c.Nodes, n)
	}
	for _, members := range c.Placement.Members {
		c.Groups = append(c.Groups, &Group{addr: c.Net.NewGroup(c.addrs(members)...)})
	}

	switch opts.Setup {
	case SetupUnreplicated, SetupVanilla:
		c.ServiceAddr = c.addrOf[1]
	default:
		// One flow-control middlebox in front of every group's multicast
		// address, with a window per group.
		c.flowHost = c.Net.NewHost("flowctl", switchConfig(opts.Host))
		c.flowHost.SetHandler(c.onFlowPacket)
		c.ServiceAddr = c.flowHost.Addr()
		for g, sg := range c.Groups {
			sg.Flow = core.NewFlowControl(opts.FlowLimit, 20*time.Millisecond)
			if opts.AdaptiveAdmission {
				sg.Admission = newFlowController(opts.Admission, opts.FlowLimit,
					admission.WorstOf(c.liveTels(c.Placement.Members[g])))
				sg.Flow.NackHint = sg.Admission.Hint()
			}
		}
	}

	if opts.Setup == SetupHovercraftPP {
		members := c.Placement.Members[0]
		c.groupExcept = make(map[raft.NodeID]simnet.Addr)
		for _, id := range members {
			var rest []raft.NodeID
			for _, other := range members {
				if other != id {
					rest = append(rest, other)
				}
			}
			c.groupExcept[id] = c.Net.NewGroup(c.addrs(rest)...)
		}
		c.aggHost = c.Net.NewHost("aggregator", switchConfig(opts.Host))
		c.Agg = core.NewAggregator(members, &aggTransport{c: c})
		aggDrv := runtime.New(c.Agg, runtime.Options{
			Now: c.Sim.Now, ReasmTimeout: 20 * time.Millisecond,
		})
		c.aggHost.SetHandler(func(pkt *simnet.Packet) {
			aggDrv.Ingest(pkt.Payload, uint32(pkt.Src))
		})
	}

	// Engines in group-major order (node order for one group).
	for g, members := range c.Placement.Members {
		for _, id := range members {
			c.buildEngine(c.Nodes[id-1], g)
		}
	}
	for _, n := range c.Nodes {
		n.newDriver()
		n.Host.SetHandler(n.onPacket)
	}
	return c
}

// switchConfig is a middlebox's NIC: switch hardware at line rate with
// negligible per-packet software cost.
func switchConfig(cfg simnet.HostConfig) simnet.HostConfig {
	cfg.LinkBps = 100_000_000_000
	cfg.RxCost = 50 * time.Nanosecond
	cfg.TxCost = 50 * time.Nanosecond
	cfg.EgressQueue = 8192
	cfg.IngressQueue = 8192
	return cfg
}

// addrs maps node IDs to their network addresses.
func (c *Cluster) addrs(ids []raft.NodeID) []simnet.Addr {
	out := make([]simnet.Addr, len(ids))
	for i, id := range ids {
		out[i] = c.addrOf[id]
	}
	return out
}

// buildEngine constructs (or reconstructs, after a WAL restart) the
// node's service and protocol engine for group g.
func (c *Cluster) buildEngine(n *Node, g int) {
	opts := c.opts
	svc, cost := opts.NewService(g)
	for _, payload := range opts.Preload {
		svc.Execute(payload, false)
	}
	n.Services[g] = svc
	runner := &simRunner{host: n.Host, svc: svc, cost: cost, tel: n.Tel}
	tr := &nodeTransport{c: c, host: n.Host, group: uint8(g)}
	if opts.Setup == SetupUnreplicated {
		n.Unrep = core.NewUnreplicatedEngine(tr, runner)
		n.Unrep.SetObs(opts.Obs)
		return
	}
	mode := core.ModeVanilla
	switch opts.Setup {
	case SetupHovercraft:
		mode = core.ModeHovercraft
	case SetupHovercraftPP:
		mode = core.ModeHovercraftPP
	}
	var snapshotter core.Snapshotter
	if sn, ok := svc.(core.Snapshotter); ok && opts.CompactEvery > 0 {
		snapshotter = sn
	}
	var storage raft.Storage
	if n.storage != nil {
		storage = n.storage
	}
	n.Engines[g] = core.NewEngine(core.Config{
		Mode: mode, ID: n.ID, Peers: c.Placement.Members[g],
		TickInterval:   opts.TickInterval,
		Bound:          opts.Bound,
		Policy:         opts.Policy,
		DisableReplyLB: opts.DisableReplyLB,
		Rand:           c.Sim.Rand(),
		Snapshotter:    snapshotter,
		CompactEvery:   opts.CompactEvery,
		Storage:        storage,
		Obs:            opts.Obs,
		Tel:            n.Tel,

		MaxInflightEntries: opts.MaxInflightEntries,
		MaxBatchBytes:      opts.MaxBatchBytes,

		ReadLease:           opts.ReadLease,
		ReadStalenessBudget: opts.ReadStalenessBudget,
	}, tr, runner)
}

// newDriver gives the node a fresh runtime driver (empty reassembly
// state) feeding its engines.
func (n *Node) newDriver() {
	n.drv = runtime.New(runtime.HandlerFunc(n.dispatch), runtime.Options{
		Now:          n.cluster.Sim.Now,
		ReasmTimeout: 20 * time.Millisecond,
		Tick:         n.tickEngines,
		GCEvery:      1024,
		Telemetry:    n.Tel,
	})
}

// Start launches tick loops and campaigns each group's placed leader
// (deterministic bootstrap, as in the paper's experiments where the
// leader is fixed).
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.startTicking()
	}
	if c.opts.Setup != SetupUnreplicated {
		for g, leader := range c.Placement.Leaders {
			c.Nodes[leader-1].Engines[g].Campaign()
		}
	}
	if c.flowHost != nil {
		c.flowGC()
	}
	if c.Groups[0].Admission != nil {
		c.admitTick()
	}
}

// defaultAdmissionTelemetry builds the per-node instrument installed
// when adaptive admission is requested without explicit telemetry:
// 1ms epochs over an 8-slot ring, SLO'd at the controller's target.
func defaultAdmissionTelemetry(target time.Duration) func(raft.NodeID) *obs.Telemetry {
	if target <= 0 {
		target = 500 * time.Microsecond
	}
	return func(raft.NodeID) *obs.Telemetry {
		t := obs.NewTelemetry(nil, time.Millisecond, 8)
		t.SetSLO(target, 0.99)
		return t
	}
}

// newFlowController builds the AIMD controller for one middlebox
// window, defaulting its ceiling to the static flow limit so the
// adaptive window only ever shrinks below the configured cap.
func newFlowController(cfg admission.Config, flowLimit int, sig admission.Signal) *admission.Controller {
	if cfg.Max <= 0 {
		cfg.Max = flowLimit
	}
	if cfg.Initial <= 0 {
		cfg.Initial = cfg.Max
	}
	return admission.New(cfg, sig)
}

// liveTels is one group's admission signal: telemetry of its member
// nodes still running, in member order (a crashed node's stale window
// must not hold the group's admit window down through a failover).
func (c *Cluster) liveTels(members []raft.NodeID) func() []*obs.Telemetry {
	return func() []*obs.Telemetry {
		tels := make([]*obs.Telemetry, 0, len(members))
		for _, id := range members {
			if n := c.Nodes[id-1]; !n.crashed {
				tels = append(tels, n.Tel)
			}
		}
		return tels
	}
}

// admitTick is the control loop, one shared 250µs cadence for every group:
// read each group's signal, resize its window, refresh its NACK
// retry-after hint — a hot shard's backpressure never throttles its
// neighbors.
func (c *Cluster) admitTick() {
	for _, sg := range c.Groups {
		sg.Admission.Tick()
		sg.Flow.SetLimit(sg.Admission.Window())
		sg.Flow.NackHint = sg.Admission.Hint()
	}
	c.Sim.After(250*time.Microsecond, c.admitTick)
}

func (c *Cluster) flowGC() {
	for _, sg := range c.Groups {
		if n := sg.Flow.GC(c.Sim.Now()); n > 0 && c.opts.Obs.Active() {
			c.opts.Obs.Emitf("flow", "slot_reclaim", "reclaimed %d leaked in-flight slots", n)
		}
	}
	c.Sim.After(5*time.Millisecond, c.flowGC)
}

// AggHost exposes the aggregator's simulated host (failure injection in
// tests; nil outside HovercRaft++).
func (c *Cluster) AggHost() *simnet.Host { return c.aggHost }

// LeaderOf returns the node currently leading group g, or nil (during
// an election, and always under UnRep).
func (c *Cluster) LeaderOf(g int) *Node {
	for _, id := range c.Placement.Members[g] {
		n := c.Nodes[id-1]
		if !n.crashed && n.Engines[g] != nil && n.Engines[g].IsLeader() {
			return n
		}
	}
	return nil
}

// NodeAddrs returns every node's address in ID order: the read-target
// rotation set for loadgen clients spreading lin-reads across the
// group.
func (c *Cluster) NodeAddrs() []simnet.Addr {
	addrs := make([]simnet.Addr, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		addrs = append(addrs, c.addrOf[n.ID])
	}
	return addrs
}

// Run advances the simulation to the given virtual time.
func (c *Cluster) Run(until time.Duration) { c.Sim.Run(until) }

// --- node mechanics ------------------------------------------------------

func (n *Node) startTicking() {
	n.crashed = false
	var loop func()
	loop = func() {
		if n.crashed {
			return
		}
		n.drv.Tick()
		n.cluster.Sim.After(n.cluster.opts.TickInterval, loop)
	}
	n.cluster.Sim.After(n.cluster.opts.TickInterval, loop)
}

// tickEngines is the node's protocol timer: every colocated group
// replica ticks on the shared cadence.
func (n *Node) tickEngines() {
	for _, e := range n.Engines {
		if e != nil {
			e.Tick()
		}
	}
}

// onPacket is the node's virtual NIC.
func (n *Node) onPacket(pkt *simnet.Packet) {
	n.drv.Ingest(pkt.Payload, uint32(pkt.Src))
}

// dispatch routes a reassembled message to the engine of its group.
func (n *Node) dispatch(m *r2p2.Msg) {
	if n.Unrep != nil {
		n.Unrep.HandleMessage(m)
		return
	}
	g := int(m.Group)
	if g >= len(n.Engines) || n.Engines[g] == nil {
		// Not a member of this group under the current map. A client
		// request landing here means the sender routed by a stale map:
		// redirect it; anything else (stray consensus traffic during a
		// reconfiguration) is dropped.
		if m.Type == r2p2.TypeRequest {
			nack := r2p2.MakeNack(m.ID)
			r2p2.SetGroup(nack, r2p2.GroupInvalid)
			n.Host.Send(&simnet.Packet{Dst: simnet.Addr(m.ID.SrcIP), Payload: nack})
		}
		return
	}
	n.Engines[g].HandleMessage(m)
}

// Crash fail-stops the node (taking down its replicas in every group).
func (n *Node) Crash() {
	n.crashed = true
	n.Host.Crash()
	if n.cluster.opts.Obs.Active() {
		n.cluster.opts.Obs.Emitf("node", "crash", "node %d fail-stopped", n.ID)
	}
}

// Restart revives a crashed node with its in-memory protocol state (the
// network queues are lost; Raft recovery brings it back up to date).
func (n *Node) Restart() {
	n.Host.Restart()
	n.startTicking()
	if n.cluster.opts.Obs.Active() {
		n.cluster.opts.Obs.Emitf("node", "restart", "node %d restarted", n.ID)
	}
}

// Crashed reports the node's failure state.
func (n *Node) Crashed() bool { return n.crashed }

// SetFsyncDelay injects a per-record persistence stall: every WAL append
// additionally occupies the node's application thread for d (the
// fsync-delay fault). Zero clears it. No-op without Options.WAL.
func (n *Node) SetFsyncDelay(d time.Duration) { n.fsyncDelay = d }

// RestartFromWAL revives a crashed node the way a real machine comes
// back: all volatile state is discarded, a fresh engine and service are
// built, and the durable state is recovered from the node's WAL.
// tornBytes > 0 first shears that many bytes off the WAL tail,
// simulating a crash mid-write; recovery must then discard the torn
// record. The service state is rebuilt by Raft re-applying the log once
// the node rejoins (replayed replies are suppressed client-side by
// request-ID dedup). Returns raft.ErrCorrupt if the WAL is damaged
// beyond the torn-tail contract. WAL clusters run one group.
func (n *Node) RestartFromWAL(tornBytes int) error {
	if n.storage == nil {
		return fmt.Errorf("simcluster: node %d has no WAL (Options.WAL not set)", n.ID)
	}
	if tornBytes > 0 {
		n.storage.TruncateTail(tornBytes)
	}
	rs, err := n.storage.Recover()
	if err != nil {
		return err
	}
	n.cluster.buildEngine(n, 0)
	n.newDriver()
	if err := n.Engines[0].Bootstrap(rs); err != nil {
		return err
	}
	n.Host.Restart()
	n.startTicking()
	if n.cluster.opts.Obs.Active() {
		n.cluster.opts.Obs.Emitf("node", "restart", "node %d recovered from WAL (torn=%dB, term=%d, %d entries)",
			n.ID, tornBytes, rs.Term, len(rs.Entries))
	}
	return nil
}

// --- transports ------------------------------------------------------------

// sendBufs hands pooled datagrams to a host: each Packet takes over the
// buffer's reference, which the network releases at delivery (or drop).
func sendBufs(host *simnet.Host, dst simnet.Addr, dgs []*wire.Buf) {
	for _, b := range dgs {
		host.Send(&simnet.Packet{Dst: dst, Payload: b.B, Buf: b})
	}
}

// nodeTransport is one (node, group) engine's transport. Every header
// carries the full R2P2 frame per fragment, so stamping the group byte
// on each egress datagram tags whole messages — the engine itself stays
// group-unaware. Group 0 is the byte every encoder already writes.
type nodeTransport struct {
	c     *Cluster
	host  *simnet.Host
	group uint8
}

func (t *nodeTransport) stamp(dgs []*wire.Buf) {
	for _, b := range dgs {
		r2p2.SetGroup(b.B, t.group)
	}
}

func (t *nodeTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.addrOf[id]
	if !ok {
		wire.ReleaseAll(dgs)
		return
	}
	t.stamp(dgs)
	sendBufs(t.host, dst, dgs)
}

func (t *nodeTransport) SendToAggregator(dgs []*wire.Buf) {
	if t.c.aggHost == nil {
		wire.ReleaseAll(dgs)
		return
	}
	sendBufs(t.host, t.c.aggHost.Addr(), dgs)
}

// SendToClient keeps the group stamp on responses so shard-aware
// clients can attribute completions to groups without re-hashing the
// key.
func (t *nodeTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	t.stamp(dgs)
	sendBufs(t.host, simnet.Addr(id.SrcIP), dgs)
}

func (t *nodeTransport) SendFeedback(dgs []*wire.Buf) {
	if t.c.flowHost == nil {
		wire.ReleaseAll(dgs)
		return
	}
	t.stamp(dgs)
	sendBufs(t.host, t.c.flowHost.Addr(), dgs)
}

// aggTransport is the aggregator's transport (HovercRaft++, one group).
type aggTransport struct{ c *Cluster }

func (t *aggTransport) ForwardToFollowers(leader raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.groupExcept[leader]
	if !ok {
		dst = t.c.Groups[0].addr
	}
	sendBufs(t.c.aggHost, dst, dgs)
}

func (t *aggTransport) Broadcast(dgs []*wire.Buf) {
	sendBufs(t.c.aggHost, t.c.Groups[0].addr, dgs)
}

func (t *aggTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.addrOf[id]
	if !ok {
		wire.ReleaseAll(dgs)
		return
	}
	sendBufs(t.c.aggHost, dst, dgs)
}

// onFlowPacket is the middlebox datapath: it demultiplexes on the R2P2
// group byte, charges the group's own window, and rewrites the
// destination to the group's multicast address. Requests tagged with a
// group this deployment does not serve are NACKed with the GroupInvalid
// sentinel so shard-aware clients refresh their map.
func (c *Cluster) onFlowPacket(pkt *simnet.Packet) {
	g := r2p2.GroupOf(pkt.Payload)
	if int(g) >= len(c.Groups) {
		// Group this deployment does not serve (stale or corrupt client
		// map, or an unparseable frame): NACK first fragments of requests
		// with the redirect sentinel, drop the rest.
		var h r2p2.Header
		if err := h.Unmarshal(pkt.Payload); err == nil &&
			h.Type == r2p2.TypeRequest && h.Flags&r2p2.FlagFirst != 0 {
			c.StaleNacks++
			nack := r2p2.MakeNack(r2p2.IDOf(&h, uint32(pkt.Src)))
			r2p2.SetGroup(nack, r2p2.GroupInvalid)
			c.flowHost.Send(&simnet.Packet{Dst: pkt.Src, Payload: nack})
			if c.opts.Obs.Active() {
				c.opts.Obs.Emitf("flow", "stale_map", "redirected request for unknown group %d from %v", g, pkt.Src)
			}
		}
		return
	}
	sg := c.Groups[g]
	verdict, nack := sg.Flow.HandleDatagram(pkt.Payload, uint32(pkt.Src), c.Sim.Now())
	switch verdict {
	case core.VerdictForward:
		// Rewrite destination to the group's multicast address, keeping
		// the client's source address.
		c.flowHost.SendFrom(&simnet.Packet{Src: pkt.Src, Dst: sg.addr, Payload: pkt.Payload})
	case core.VerdictNack:
		if c.opts.Obs.Active() {
			c.opts.Obs.Emitf("flow", "nack", "middlebox nacked request from %v (window full)", pkt.Src)
		}
		// Flow-control NACK: echo the request's own group so clients can
		// tell back-pressure (retry later, same route) from staleness
		// (refresh the map).
		r2p2.SetGroup(nack, g)
		c.flowHost.Send(&simnet.Packet{Dst: pkt.Src, Payload: nack})
	}
}

// --- app runner -------------------------------------------------------------

type simRunner struct {
	host *simnet.Host
	svc  app.Service
	cost app.CostModel
	tel  *obs.Telemetry
}

func (r *simRunner) Run(payload []byte, readOnly bool, done func([]byte)) {
	var c time.Duration
	if r.cost != nil {
		c = r.cost.Cost(payload, readOnly)
	}
	if r.tel.Active() {
		// Sojourn on the simulated app thread: execution cost plus any
		// contention with other submitted work (e.g. fsync stalls).
		t0 := r.tel.Now()
		r.host.App().Submit(c, func() {
			r.tel.Record(obs.QService, r.tel.Now()-t0)
			done(r.svc.Execute(payload, readOnly))
		})
		return
	}
	r.host.App().Submit(c, func() {
		done(r.svc.Execute(payload, readOnly))
	})
}
