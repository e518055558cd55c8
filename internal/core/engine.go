package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	"hovercraft/internal/stats"
	"hovercraft/internal/wire"
)

// Mode selects the replication protocol variant (the four systems of the
// paper's evaluation; the unreplicated baseline is UnreplicatedEngine).
type Mode uint8

const (
	// ModeVanilla is Raft ported onto R2P2: the leader receives client
	// requests directly, replicates full request bodies, executes, and
	// replies to every client itself.
	ModeVanilla Mode = iota
	// ModeHovercraft adds the paper's §3 extensions: multicast request
	// dissemination with metadata-only ordering, reply and read-only
	// load balancing under bounded queues, and flow control.
	ModeHovercraft
	// ModeHovercraftPP additionally offloads AppendEntries fan-out and
	// reply fan-in to the in-network aggregator (§4).
	ModeHovercraftPP
)

func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "VanillaRaft"
	case ModeHovercraft:
		return "HovercRaft"
	case ModeHovercraftPP:
		return "HovercRaft++"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// AggregatorID is the virtual node identity of the in-network aggregator.
// It never votes and holds no log; it is "part of the leader" (§4).
const AggregatorID raft.NodeID = 0xFFFF

// Transport is how the engine reaches the world. Implementations exist
// for the discrete-event simulator and for real UDP sockets. All methods
// take fully encoded R2P2 datagrams in pooled wire buffers.
//
// Ownership: each call transfers one reference per buffer to the
// transport, which releases it (or hands it to the network) once the
// datagram is on its way. The slice itself stays owned by the caller and
// is only valid for the duration of the call — implementations must not
// retain it.
type Transport interface {
	// SendToNode delivers consensus datagrams to a peer node.
	SendToNode(id raft.NodeID, dgs []*wire.Buf)
	// SendToAggregator delivers datagrams to the in-network aggregator.
	SendToAggregator(dgs []*wire.Buf)
	// SendToClient delivers datagrams to the client identified by the
	// request's R2P2 identity (SrcIP names the client host; SrcPort
	// disambiguates endpoints sharing an IP, which real UDP transports
	// need).
	SendToClient(id r2p2.RequestID, dgs []*wire.Buf)
	// SendFeedback delivers FEEDBACK datagrams to the flow-control
	// middlebox (coalesced: one datagram may cover many replies).
	SendFeedback(dgs []*wire.Buf)
}

// AppRunner executes state-machine operations. Run must invoke done
// exactly once with the reply payload, in the engine's execution
// context. done may run before Run returns — the UDP transport executes
// inline on the owner loop — or later as an event of its own — the
// simulator charges a modelled application thread; the engine handles
// both without recursing. Calls are submitted one at a time per engine.
type AppRunner interface {
	Run(payload []byte, readOnly bool, done func(reply []byte))
}

// Config parameterizes an Engine.
type Config struct {
	Mode  Mode
	ID    raft.NodeID
	Peers []raft.NodeID

	// TickInterval is the runtime's tick period; all engine timing is
	// expressed in ticks and converted with it.
	TickInterval time.Duration
	// ElectionTicks / HeartbeatTicks parameterize Raft (see raft.Config).
	ElectionTicks  int
	HeartbeatTicks int
	// MaxEntriesPerAppend caps one AppendEntries message.
	MaxEntriesPerAppend int
	// MaxInflightEntries is the replication pipelining window: how many
	// entries may be outstanding (sent but unacknowledged) per follower.
	// When one AppendEntries cannot carry everything new, the leader
	// sends back-to-back AEs up to this window instead of waiting a
	// round trip per batch. 0 selects the raft default (4096).
	MaxInflightEntries int
	// MaxBatchBytes caps the encoded payload of one AppendEntries, so a
	// large backlog splits into pipelined MTU-friendly messages instead
	// of one huge datagram burst. 0 = unlimited (paper-faithful default:
	// the evaluation batches by entry count only).
	MaxBatchBytes int

	// Bound is B, the bounded-queue depth for reply load balancing.
	Bound int
	// Policy selects the replier-choice policy (JBSQ or RANDOM).
	Policy SelectPolicy
	// DisableReplyLB pins every replier to the leader (the paper
	// disables reply load balancing in its protocol-overhead
	// experiments, §7.1).
	DisableReplyLB bool

	// UnorderedTimeout garbage-collects parked client requests.
	UnorderedTimeout time.Duration
	// RecoveryRetryTicks paces recovery_request retransmissions.
	RecoveryRetryTicks int
	// GCEveryTicks paces unordered-store GC scans.
	GCEveryTicks int

	// Rand drives all randomized choices; required for deterministic
	// simulation (nil seeds from ID).
	Rand *rand.Rand

	// Storage receives raft persistence callbacks (nil = none).
	Storage raft.Storage

	// Snapshotter, when set with CompactEvery > 0, enables log
	// compaction: every CompactEvery applied entries the engine captures
	// an application snapshot and truncates the raft log; lagging
	// followers are caught up via InstallSnapshot and their application
	// state restored through the same interface.
	Snapshotter  Snapshotter
	CompactEvery uint64

	// Obs, when non-nil, receives request lifecycle stamps and cluster
	// events. A nil value disables tracing at zero allocation cost.
	Obs *obs.Obs

	// Tel, when non-nil, receives queue-delay telemetry: the engine
	// records raft step/propose time (obs.QRaftStep) and drives epoch
	// rotation from its tick. Nil disables at one pointer test per hook.
	Tel *obs.Telemetry

	// ReadLease enables the linearizable read fast path: leader leases
	// ratified by AppendEntries probe echoes plus the ReadIndex protocol,
	// so LIN_READ requests execute locally — at the leader without a
	// network round while the lease holds, at followers once their
	// applied index passes a leader-ratified read index — and never
	// touch the log, the WAL, or replication. Off by default: replicas
	// NACK LIN_READ requests so clients fall back to ordered reads.
	ReadLease bool
	// ReadStalenessBudget, when positive, throttles a follower to one
	// read-index fetch per budget window: every read arriving within the
	// window shares that one leader round instead of paying its own.
	// Reads are still strictly linearizable — each is served against an
	// index captured after it arrived — the budget only bounds the extra
	// queueing a read may absorb waiting for the next refresh. Zero
	// fetches as fast as one-in-flight batching allows.
	ReadStalenessBudget time.Duration
	// ReadNackAfter bounds how long a linearizable read may queue before
	// the replica NACKs it so the client redirects — the read SLO guard
	// against lagging followers and dead leaders. 0 selects 500µs.
	ReadNackAfter time.Duration
	// DriftTicks is the clock-drift margin subtracted from the election
	// timeout to size the leader lease (see raft.Config.DriftTicks).
	DriftTicks int

	// DedupWindow bounds the exactly-once RPC-ID cache: every replica
	// remembers the last DedupWindow applied read-write request IDs with
	// their replies, suppresses re-execution of retransmitted
	// duplicates, and lets the designated replier answer a retry from
	// the cache. 0 selects the default (65536); negative disables
	// dedup entirely (at-least-once semantics, the pre-cache behavior).
	DedupWindow int
}

// Snapshotter captures and restores application state for log
// compaction. Calls happen in the engine's execution context between
// operations, never while one executes, so implementations need no
// extra locking with respect to Execute.
type Snapshotter interface {
	Snapshot() []byte
	Restore(data []byte) error
}

func (c *Config) defaults() {
	if c.TickInterval <= 0 {
		c.TickInterval = 10 * time.Microsecond
	}
	if c.ElectionTicks <= 0 {
		c.ElectionTicks = 150
	}
	if c.HeartbeatTicks <= 0 {
		c.HeartbeatTicks = 20
	}
	if c.MaxEntriesPerAppend <= 0 {
		c.MaxEntriesPerAppend = 256
	}
	if c.Bound <= 0 {
		c.Bound = 128
	}
	if c.UnorderedTimeout <= 0 {
		c.UnorderedTimeout = 50 * time.Millisecond
	}
	if c.RecoveryRetryTicks <= 0 {
		c.RecoveryRetryTicks = 50
	}
	if c.GCEveryTicks <= 0 {
		c.GCEveryTicks = 256
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(int64(c.ID) * 31))
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 65536
	}
	if c.ReadNackAfter <= 0 {
		c.ReadNackAfter = 500 * time.Microsecond
	}
}

// Engine is one HovercRaft node: Raft embedded in the R2P2 layer plus the
// protocol extensions. Like raft.Node it is a deterministic step machine
// driven by HandleMessage and Tick; it is not safe for concurrent use.
//
// Single-owner contract: exactly one execution context may ever call
// into an Engine — the simulator's event loop, or the runtime.Loop that
// reads the UDP transport's socket. There is no engine lock to take;
// work originating elsewhere (a bootstrap Campaign) must be handed to
// the owner through its command queue and run from there.
// Anything the owner wants to expose to other goroutines (status,
// admission gauges) is published into atomics, never read directly.
type Engine struct {
	cfg       Config
	node      *raft.Node
	transport Transport
	runner    AppRunner

	unordered *UnorderedStore
	queues    *BoundedQueues
	counters  *stats.CounterSet
	obs       *obs.Obs
	tel       *obs.Telemetry

	// obsCommitSeen is the commit watermark already stamped into the
	// tracer (leader-side StageCommit walk; unused when obs is nil).
	obsCommitSeen uint64

	now   time.Duration
	ticks uint64

	// Leader-side announcement state (§3.4, Fig. 4).
	wasLeader       bool
	announced       uint64
	lastBcastCommit uint64
	lastBcastLast   uint64
	// sentCommit is, per follower, the commit index carried by the last
	// AppendEntries that actually left for it (recorded in flush): the
	// boundary pacer's "has this follower been told?" test.
	sentCommit map[raft.NodeID]uint64
	// aeClock is the counter charged for AppendEntries leaving during the
	// current step: aeTick inside Tick, aeBoundary inside EndBatch, nil
	// for message-driven sends (rejects, catch-up bursts).
	aeClock, aeTick, aeBoundary *stats.Counter

	// Apply pipeline: one operation executes at a time. inRun is set
	// while runner.Run is on the stack: a completion that arrives before
	// Run returns leaves the caller's loop to take the next operation
	// (see resume).
	applyBusy bool
	inRun     bool
	// The operation in execution and its completions, bound once in
	// NewEngine: Run gets a method value, not a closure per operation.
	// One operation runs at a time (applyBusy), so one slot suffices.
	cur       raft.Entry // the committed entry executing (a copy: the log slot may be truncated meanwhile)
	curTraced bool
	curRead   r2p2.RequestID // the lin-read executing
	applyDone func(reply []byte)
	readDone  func(reply []byte)
	// rxRaft is the decode scratch for inbound raft messages, valid for
	// one handleRaft step.
	rxRaft raft.Message
	// Commit→execution-start timestamps (telemetry only): entries are
	// stamped when the engine learns they committed and popped when
	// their execution starts, measuring the QApplyQueue stage. FIFO in
	// log order; commitHead keeps pops O(1) without reslicing.
	commitSeen   uint64
	commitStamps []commitStamp
	commitHead   int

	// Follower-side recovery of missing request bodies.
	missing      map[uint64]r2p2.RequestID // log index → request id
	missingAt    map[r2p2.RequestID]uint64 // reverse of missing: where a late body lands
	recoveryDue  uint64                    // tick when the next recovery burst may go
	lastTermSeen uint64

	// Exactly-once machinery: dedup remembers applied read-write IDs
	// (nil when disabled); inLog tracks IDs this leader has proposed but
	// not yet applied, so a retransmit arriving mid-flight is not
	// proposed twice.
	dedup *DedupCache
	inLog map[r2p2.RequestID]bool

	// heardTerm latches, per peer, the latest term in which the peer
	// was heard from. The leader only designates repliers among peers
	// heard in the current term, so a node that died before (or during)
	// the election is never assigned replies; deaths later in the term
	// are covered by the bounded-queue mechanism (§3.4).
	heardTerm map[raft.NodeID]uint64

	// Follower-side applied reporting: the leader's bounded queues are
	// only as fresh as the applied indices it hears, so followers
	// proactively report applied progress once per tick (§3.4's
	// "followers communicate their applied_idx to the leader as part
	// of the append_entries reply", decoupled from AE arrival so the
	// JBSQ view does not lag a full append round).
	lastReportedApplied uint64
	lastAEViaAgg        bool
	lastRespTick        uint64 // tick of the last MsgAppResp we sent

	// HovercRaft++ state.
	aggPongTerm   uint64 // last term the aggregator answered a ping for
	groupMode     bool
	groupNext     uint64 // next index to cover with a group append
	noopIndex     uint64 // index of this term's noop (group mode gate)
	followerMatch uint64 // follower: own last successful match this term
	idleHB        int    // ticks since last group append

	// flush routing context.
	ctxViaAgg   bool
	ctxFromResp bool

	// lastRestored tracks the snapshot index whose application state we
	// already restored (InstallSnapshot receiver side).
	lastRestored uint64

	// Linearizable read fast path (leader lease + ReadIndex). Reads
	// ready to serve once ratified+applied queue FIFO in pendingReads
	// (head index keeps pops O(1)); follower reads awaiting a leader
	// read index queue in fetchWait with one batched fetch in flight;
	// riPending parks follower fetches the leader cannot answer until
	// its next quorum round ratifies the captured index.
	pendingReads    []pendingRead
	pendingHead     int
	fetchWait       []fetchRead
	riPending       []riPend
	riSeq           uint64
	riInflight      bool
	riSentTick      uint64
	riSentNow       time.Duration
	readNackTicks   uint64
	fetchRetryTicks uint64

	msgSeq uint32

	// Hot-path scratch, reused across sends: encScratch holds one encoded
	// consensus envelope, dgScratch the pooled datagrams of one message
	// (transports must not retain the slice), fbPending the reply IDs
	// whose FEEDBACK is coalesced into one datagram per engine step.
	encScratch []byte
	dgScratch  []*wire.Buf
	fbPending  []r2p2.RequestID
	entScratch []raft.Entry
}

// NewEngine builds an engine. transport and runner must be non-nil.
func NewEngine(cfg Config, transport Transport, runner AppRunner) *Engine {
	cfg.defaults()
	e := &Engine{
		cfg:        cfg,
		transport:  transport,
		runner:     runner,
		unordered:  NewUnorderedStore(cfg.UnorderedTimeout),
		queues:     NewBoundedQueues(cfg.Peers, cfg.Bound),
		counters:   stats.NewCounterSet(),
		obs:        cfg.Obs,
		tel:        cfg.Tel,
		missing:    make(map[uint64]r2p2.RequestID),
		missingAt:  make(map[r2p2.RequestID]uint64),
		sentCommit: make(map[raft.NodeID]uint64),
		heardTerm:  make(map[raft.NodeID]uint64),
		inLog:      make(map[r2p2.RequestID]bool),
	}
	if cfg.DedupWindow > 0 {
		e.dedup = NewDedupCache(cfg.DedupWindow)
	}
	e.applyDone = e.finishApply
	e.readDone = e.finishRead
	e.aeBoundary = e.counters.Describe("tx_ae_boundary",
		"AppendEntries emitted at a run-to-completion loop boundary (EndBatch, ack-clocked): the replication clock of the UDP plane.")
	e.aeTick = e.counters.Describe("tx_ae_tick",
		"AppendEntries emitted from Tick (heartbeats, lease probes, the pacing fallback). The simulator's only clock; on the UDP plane a share growing against tx_ae_boundary means replication has fallen back to tick pacing.")
	e.node = raft.NewNode(raft.Config{
		ID: cfg.ID, Peers: cfg.Peers,
		ElectionTicks: cfg.ElectionTicks, HeartbeatTicks: cfg.HeartbeatTicks,
		MaxEntriesPerAppend: cfg.MaxEntriesPerAppend,
		MaxInflightEntries:  cfg.MaxInflightEntries,
		MaxBatchBytes:       cfg.MaxBatchBytes,
		DriftTicks:          cfg.DriftTicks,
		Rand:                cfg.Rand,
		Storage:             cfg.Storage,
	})
	if cfg.ReadLease {
		e.readNackTicks = uint64(cfg.ReadNackAfter / cfg.TickInterval)
		if e.readNackTicks < 1 {
			e.readNackTicks = 1
		}
		e.fetchRetryTicks = uint64(2 * cfg.HeartbeatTicks)
		if e.fetchRetryTicks < 1 {
			e.fetchRetryTicks = 1
		}
		// Pre-register the read-path counters so /metrics exposes them
		// (zero included — the stale counter's whole job is to be zero).
		for _, c := range []string{
			"rx_read", "read_leader_served", "read_follower_served",
			"read_amortized", "read_nacked", "read_stale_served",
		} {
			e.counters.Get(c)
		}
	}
	return e
}

// Bootstrap restores the engine from durable state recovered by
// raft.OpenFileStorage. Must precede the first Tick or HandleMessage.
func (e *Engine) Bootstrap(rs *raft.RecoveredState) error {
	if err := e.node.Bootstrap(rs); err != nil {
		return err
	}
	if rs != nil && rs.SnapIdx > 0 && e.cfg.Snapshotter != nil {
		ids, app, err := unwrapSnapshot(rs.SnapData)
		if err != nil {
			return err
		}
		if err := e.cfg.Snapshotter.Restore(app); err != nil {
			return err
		}
		if e.dedup != nil {
			e.dedup.seedFromSnapshot(ids)
		}
		e.lastRestored = rs.SnapIdx
	}
	// A follower's WAL holds metadata-only entries (bodies travel by
	// multicast, not AppendEntries): register every bodyless entry for
	// batch recovery now, rather than discovering them one at a time
	// when the apply pipeline stalls on each.
	log := e.node.Log()
	for i := log.FirstIndex(); i <= log.LastIndex(); i++ {
		le := log.Entry(i)
		if le == nil || le.Kind == raft.KindNoop || le.Data != nil {
			continue
		}
		if e.dedup != nil && le.Kind == raft.KindReadWrite && e.dedup.Seen(le.ID) {
			continue // duplicate of a snapshotted request; never executed
		}
		e.noteMissing(i, le.ID)
	}
	e.lastTermSeen = e.node.Term()
	return nil
}

// Node exposes the underlying raft node (tests, harness instrumentation).
func (e *Engine) Node() *raft.Node { return e.node }

// Counters exposes the engine's message counters (Table 1).
func (e *Engine) Counters() *stats.CounterSet { return e.counters }

// Unordered exposes the unordered store (tests).
func (e *Engine) Unordered() *UnorderedStore { return e.unordered }

// Queues exposes the bounded queues (tests).
func (e *Engine) Queues() *BoundedQueues { return e.queues }

// Dedup exposes the exactly-once reply cache (tests; nil when disabled).
func (e *Engine) Dedup() *DedupCache { return e.dedup }

// IsLeader reports whether this node currently leads.
func (e *Engine) IsLeader() bool { return e.node.State() == raft.StateLeader }

// Campaign forces an immediate election (harness bootstrap).
func (e *Engine) Campaign() {
	e.node.Campaign()
	e.finish()
}

// Tick advances engine time by one TickInterval.
func (e *Engine) Tick() {
	e.ticks++
	e.now += e.cfg.TickInterval
	// The tick is the single-threaded cadence driver for telemetry epoch
	// rotation in both runtimes (DES loop / engine mutex).
	e.tel.MaybeRotate()
	e.aeClock = e.aeTick
	e.node.Tick()
	if e.IsLeader() {
		e.pace(false)
	} else {
		e.reportApplied()
	}
	if e.ticks%uint64(e.cfg.GCEveryTicks) == 0 {
		e.unordered.GC(e.now)
	}
	e.retryRecovery()
	e.readTick()
	e.finish()
	e.aeClock = nil
}

// EndBatch is the run-to-completion loop boundary: the owner calls it
// once per loop pass, after everything the pass read has been ingested
// and before its egress is flushed. It runs the data-driven half of
// pace — announce, then AppendEntries for what this pass made sendable —
// so replicate → ack → commit → notify → apply → reply is clocked by
// packet arrivals alone and the batch is whatever one pass ingested.
// Timers (heartbeats, elections, recovery retry, GC) stay in Tick, whose
// unconditional pace remains the loss fallback.
//
// The simulator never calls it: its 10µs tick already is its batch
// boundary, so HandleMessage/Tick-driven runs are unaffected.
func (e *Engine) EndBatch() {
	if !e.IsLeader() {
		return
	}
	e.aeClock = e.aeBoundary
	e.pace(true)
	e.finish()
	e.aeClock = nil
}

// HandleMessage feeds one reassembled R2P2 message into the engine.
func (e *Engine) HandleMessage(m *r2p2.Msg) {
	switch m.Type {
	case r2p2.TypeRequest:
		e.handleClientRequest(m)
	case r2p2.TypeRaftReq, r2p2.TypeRaftResp:
		// The aggregator re-wraps forwarded messages under its own
		// R2P2 identity, so its well-known source port marks traffic
		// that arrived via the in-network path (robust even when all
		// processes share one IP).
		viaAgg := m.ID.SrcPort == uint16(AggregatorID)
		e.handleConsensus(m, viaAgg)
	default:
		// Responses/feedback/nacks are not addressed to servers.
		e.counters.Get("rx_unexpected").Inc()
	}
	// Paths that reply without flushing (dedup cache hits) still get
	// their feedback out within the step.
	e.flushFeedback()
}

// --- client requests ---------------------------------------------------

func (e *Engine) handleClientRequest(m *r2p2.Msg) {
	if m.IsLinRead() {
		// Linearizable reads ride the lease fast path: no log, no WAL,
		// no replication (readpath.go).
		e.handleLinRead(m)
		return
	}
	e.counters.Get("rx_req").Inc()
	kind := raft.KindReadWrite
	if m.IsReadOnly() {
		kind = raft.KindReadOnly
	}
	// Exactly-once fast path: a retransmission of an already-applied
	// write is answered from the reply cache, never re-proposed or even
	// parked. Read-only requests are not deduplicated — re-reading is
	// harmless and the reply may legitimately differ.
	if e.dedup != nil && kind == raft.KindReadWrite {
		if reply, replier, hasReply, ok := e.dedup.Lookup(m.ID); ok {
			e.counters.Get("rx_req_dup").Inc()
			if hasReply && e.shouldAnswerDup(replier) {
				e.counters.Get("tx_dup_reply").Inc()
				e.reply(m.ID, reply)
			}
			return
		}
		if e.inLog[m.ID] {
			// Already proposed and committed-or-committing: the reply
			// will go out when the entry applies.
			e.counters.Get("rx_req_inflight").Inc()
			return
		}
	}
	switch e.cfg.Mode {
	case ModeVanilla:
		if !e.IsLeader() {
			// Redirect: vanilla Raft clients must talk to the leader.
			e.counters.Get("tx_nack").Inc()
			e.dgScratch = append(e.dgScratch[:0], r2p2.MakeNackBuf(m.ID))
			e.transport.SendToClient(m.ID, e.dgScratch)
			return
		}
		e.obs.Stage(m.ID, obs.StageLeaderRx)
		_, err := e.propose(raft.Entry{
			Kind: kind, ID: m.ID, BodyHash: raft.Hash64(m.Payload),
			Data: m.Payload, Replier: e.cfg.ID,
		})
		if err != nil {
			return
		}
		if kind == raft.KindReadWrite {
			e.inLog[m.ID] = true
		}
		e.obs.Stage(m.ID, obs.StageAppend)
		e.finish()
	default:
		// Every node parks the request; if we are (or become) the
		// leader, it is additionally proposed. Keeping the parked copy
		// even at the leader covers the stale-leader case: if our
		// proposal is truncated by the real leader, the body is still
		// here for promotion when its AE metadata arrives.
		e.unordered.Put(m.ID, m.Policy, m.Payload, e.now)
		if e.IsLeader() {
			e.obs.Stage(m.ID, obs.StageLeaderRx)
			_, err := e.propose(raft.Entry{
				Kind: kind, ID: m.ID, BodyHash: raft.Hash64(m.Payload),
				Data: m.Payload,
			})
			if err == nil {
				if kind == raft.KindReadWrite {
					e.inLog[m.ID] = true
				}
				e.obs.Stage(m.ID, obs.StageAppend)
				e.finish()
			}
		} else {
			e.promoteLateBody(m.ID)
		}
	}
}

// propose runs node.Propose, timed as the raft_step telemetry stage.
func (e *Engine) propose(ent raft.Entry) (uint64, error) {
	if !e.tel.Active() {
		return e.node.Propose(ent)
	}
	t0 := e.tel.Now()
	idx, err := e.node.Propose(ent)
	e.tel.Record(obs.QRaftStep, e.tel.Now()-t0)
	return idx, err
}

// shouldAnswerDup decides whether this node resends the cached reply for
// a duplicate request: the original replier always does; the leader steps
// in when that replier has not been heard from this term (it may be dead,
// and a dead replier would otherwise leave the client retrying forever).
func (e *Engine) shouldAnswerDup(replier raft.NodeID) bool {
	if replier == e.cfg.ID {
		return true
	}
	if !e.IsLeader() {
		return false
	}
	return replier == raft.None || e.heardTerm[replier] < e.node.Term()
}

// --- consensus messages -------------------------------------------------

func (e *Engine) handleConsensus(m *r2p2.Msg, viaAgg bool) {
	if len(m.Payload) > 0 && m.Payload[0] == envRaft {
		// The common case, decoded into the engine's scratch message:
		// Step copies what it keeps (the log copies entries by value).
		if err := raft.DecodeMessageInto(m.Payload[1:], &e.rxRaft); err != nil {
			e.counters.Get("rx_bad_envelope").Inc()
			return
		}
		e.handleRaft(&e.rxRaft, viaAgg)
		return
	}
	env, err := DecodeEnvelope(m.Payload)
	if err != nil {
		e.counters.Get("rx_bad_envelope").Inc()
		return
	}
	switch {
	case env.RecoveryReq != nil:
		e.handleRecoveryReq(env.RecoveryReq)
	case env.RecoveryResp != nil:
		e.handleRecoveryResp(env.RecoveryResp)
	case env.AggCommit != nil:
		e.handleAggCommit(env.AggCommit)
	case env.AggPongTerm != nil:
		e.handleAggPong(*env.AggPongTerm)
	case env.ReadIndexReq != nil:
		e.handleReadIndexReq(env.ReadIndexReq)
	case env.ReadIndexResp != nil:
		e.handleReadIndexResp(env.ReadIndexResp)
	case env.AggPing != nil:
		// Pings are for the aggregator, not nodes.
		e.counters.Get("rx_unexpected").Inc()
	}
}

// handleRaft steps a raft message. viaAgg tells a follower the
// AppendEntries arrived via the aggregator's multicast (success replies
// then go back to the aggregator, §4) rather than point-to-point from
// the leader (replies go to the leader).
func (e *Engine) handleRaft(m *raft.Message, viaAgg bool) {
	viaAgg = viaAgg && e.cfg.Mode == ModeHovercraftPP
	switch m.Type {
	case raft.MsgApp:
		e.counters.Get("rx_ae").Inc()
	case raft.MsgAppResp:
		e.counters.Get("rx_ae_resp").Inc()
		if e.cfg.Mode == ModeHovercraftPP && !m.Success && e.groupMode {
			// A rejecting follower needs point-to-point catch-up;
			// the sends generated while stepping this response are
			// allowed through the group-mode filter.
			e.counters.Get("agg_direct_fallback").Inc()
		}
	case raft.MsgVote:
		e.counters.Get("rx_vote").Inc()
	}
	if m.Term >= e.node.Term() && m.From != raft.None {
		e.heardTerm[m.From] = m.Term
	}
	e.ctxViaAgg = viaAgg
	e.ctxFromResp = m.IsResponse()
	if e.tel.Active() {
		t0 := e.tel.Now()
		e.node.Step(*m)
		e.tel.Record(obs.QRaftStep, e.tel.Now()-t0)
	} else {
		e.node.Step(*m)
	}
	if m.Type == raft.MsgApp {
		e.lastAEViaAgg = viaAgg
		e.promoteBodies(m)
	}
	if m.Type == raft.MsgAppResp && e.IsLeader() {
		// Feed the bounded queues with the follower's applied progress
		// (§3.4: the AE reply carries applied_idx).
		e.queues.Applied(m.From, m.AppliedIndex)
	}
	e.finish()
	e.ctxViaAgg = false
	e.ctxFromResp = false
}

// promoteBodies fills request bodies for metadata-only entries that just
// landed in the log, from the unordered set (§3.2); entries still missing
// are scheduled for recovery.
func (e *Engine) promoteBodies(m *raft.Message) {
	if e.cfg.Mode == ModeVanilla {
		return
	}
	log := e.node.Log()
	for i := range m.Entries {
		idx := m.Entries[i].Index
		le := log.Entry(idx)
		if le == nil || le.Index != m.Entries[i].Index || le.Term != m.Entries[i].Term {
			continue // truncated or superseded meanwhile
		}
		if le.Kind == raft.KindNoop || le.Data != nil {
			e.dropMissing(idx)
			continue
		}
		if body, ok := e.unordered.Take(le.ID, le.BodyHash); ok {
			le.Data = body
			e.dropMissing(idx)
		} else {
			e.noteMissing(idx, le.ID)
		}
	}
	if len(e.missing) > 0 {
		e.sendRecovery(false)
	}
}

// reportApplied pushes the follower's applied index to the leader (or
// the aggregator's completed registers in HovercRaft++ group flow) when
// it advanced since the last report. One small message per tick at most.
func (e *Engine) reportApplied() {
	if e.cfg.Mode == ModeVanilla {
		return
	}
	if e.ticks%2 != 0 {
		return // pace reports at half the tick rate; freshness is ample
	}
	if e.ticks-e.lastRespTick < 2 {
		// An AppendEntries reply just carried our applied index; a
		// separate report would be redundant leader load. Under steady
		// load AE replies flow every tick, so explicit reports only
		// fire when the AE stream pauses (e.g. aggregated group mode
		// between commits, or idle-but-applying periods).
		return
	}
	applied := e.node.Log().Applied()
	if applied <= e.lastReportedApplied || e.followerMatch == 0 {
		return
	}
	lead := e.node.Leader()
	if lead == raft.None || lead == e.cfg.ID {
		return
	}
	e.lastReportedApplied = applied
	m := raft.Message{
		Type: raft.MsgAppResp, From: e.cfg.ID, To: lead, Term: e.node.Term(),
		Success: true, MatchIndex: e.followerMatch, AppliedIndex: applied,
	}
	e.counters.Get("tx_applied_report").Inc()
	e.encScratch = AppendRaft(e.encScratch[:0], &m)
	dgs := e.consensusBufs(r2p2.TypeRaftResp, e.encScratch)
	if e.cfg.Mode == ModeHovercraftPP && e.lastAEViaAgg {
		e.transport.SendToAggregator(dgs)
	} else {
		e.transport.SendToNode(lead, dgs)
	}
}

// --- recovery ----------------------------------------------------------

// noteMissing registers the bodyless entry at idx for recovery. The first
// request for a freshly missing body waits for the next tick: when an
// AppendEntries overtakes the client's own datagram the body is usually
// one packet behind, and promoteLateBody fills it without a round trip.
func (e *Engine) noteMissing(idx uint64, id r2p2.RequestID) {
	if _, known := e.missing[idx]; !known && e.recoveryDue <= e.ticks {
		e.recoveryDue = e.ticks + 1
	}
	e.missing[idx] = id
	e.missingAt[id] = idx
}

// dropMissing forgets idx: its body arrived, or it no longer needs one.
func (e *Engine) dropMissing(idx uint64) {
	id, ok := e.missing[idx]
	if !ok {
		return
	}
	delete(e.missing, idx)
	if e.missingAt[id] == idx {
		delete(e.missingAt, id)
	}
}

// promoteLateBody handles a client request that arrives after the
// AppendEntries that ordered it: the follower already holds the bodyless
// entry in missing, so the body goes straight from the unordered set into
// the log and the apply pipeline resumes in this step instead of waiting
// out a recovery round trip (or, when a recovery went out recently, a
// full RecoveryRetryTicks).
func (e *Engine) promoteLateBody(id r2p2.RequestID) {
	idx, ok := e.missingAt[id]
	if !ok {
		return
	}
	le := e.node.Log().Entry(idx)
	if le == nil || le.ID != id || le.Data != nil {
		return // truncated or filled meanwhile; recovery state heals itself
	}
	body, ok := e.unordered.Take(id, le.BodyHash)
	if !ok {
		return // hash mismatch: leave it to recovery
	}
	le.Data = body
	e.dropMissing(idx)
	e.counters.Get("late_body_promoted").Inc()
	e.finish()
}

// sendRecovery asks the leader for missing bodies; force bypasses pacing.
func (e *Engine) sendRecovery(force bool) {
	if len(e.missing) == 0 {
		return
	}
	if !force && e.ticks < e.recoveryDue {
		return
	}
	// Ask the leader, or — when we are the leader (e.g. a restarted
	// node that persisted metadata-only entries won an election) — any
	// other peer; §3.2 allows recovery from "the leader or any other
	// follower that might have potentially received it".
	target := e.node.Leader()
	if target == e.cfg.ID || target == raft.None {
		target = raft.None
		others := make([]raft.NodeID, 0, len(e.cfg.Peers)-1)
		for _, p := range e.cfg.Peers {
			if p != e.cfg.ID {
				others = append(others, p)
			}
		}
		if len(others) > 0 {
			target = others[e.cfg.Rand.Intn(len(others))]
		}
	}
	if target == raft.None {
		return
	}
	lead := target
	e.recoveryDue = e.ticks + uint64(e.cfg.RecoveryRetryTicks)
	req := &RecoveryReq{From: e.cfg.ID}
	// Lowest indexes first, deterministically (map order would make the
	// request bytes — and hence the whole run — vary between replays of
	// the same seed): the apply pipeline needs the earliest bodies first.
	idxs := make([]uint64, 0, len(e.missing))
	for idx := range e.missing {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	if len(idxs) > 64 {
		idxs = idxs[:64]
	}
	for _, idx := range idxs {
		req.Indexes = append(req.Indexes, idx)
		req.IDs = append(req.IDs, e.missing[idx])
	}
	e.counters.Get("tx_recovery_req").Inc()
	if e.obs.Active() {
		e.obs.Emitf("raft", "recovery_request", "node=%d target=%d missing=%d",
			e.cfg.ID, lead, len(req.Indexes))
	}
	e.transport.SendToNode(lead, e.consensusBufs(r2p2.TypeRaftReq, EncodeRecoveryReq(req)))
}

func (e *Engine) retryRecovery() {
	if len(e.missing) > 0 && e.ticks >= e.recoveryDue {
		e.sendRecovery(true)
	}
}

func (e *Engine) handleRecoveryReq(r *RecoveryReq) {
	e.counters.Get("rx_recovery_req").Inc()
	resp := &RecoveryResp{From: e.cfg.ID}
	log := e.node.Log()
	for i, idx := range r.Indexes {
		id := r.IDs[i]
		if le := log.Entry(idx); le != nil && le.ID == id && le.Data != nil {
			cp := *le
			resp.Entries = append(resp.Entries, cp)
			continue
		}
		// Not in the log (or bodyless there): maybe parked unordered.
		if body, ok := e.unordered.Take(id, 0); ok {
			// Put it back — we are only lending a copy.
			e.unordered.Put(id, r2p2.PolicyReplicated, body, e.now)
			resp.Entries = append(resp.Entries, raft.Entry{
				Index: idx, ID: id, Data: body, BodyHash: raft.Hash64(body),
			})
		}
	}
	if len(resp.Entries) == 0 {
		return
	}
	e.counters.Get("tx_recovery_resp").Inc()
	e.transport.SendToNode(r.From, e.consensusBufs(r2p2.TypeRaftResp, EncodeRecoveryResp(resp)))
}

func (e *Engine) handleRecoveryResp(r *RecoveryResp) {
	e.counters.Get("rx_recovery_resp").Inc()
	log := e.node.Log()
	for i := range r.Entries {
		re := &r.Entries[i]
		le := log.Entry(re.Index)
		if le == nil || le.ID != re.ID || le.Data != nil {
			continue
		}
		if le.BodyHash != 0 && raft.Hash64(re.Data) != le.BodyHash {
			continue
		}
		le.Data = re.Data
		e.dropMissing(re.Index)
	}
	e.finish()
}

// --- HovercRaft++ ------------------------------------------------------

func (e *Engine) handleAggPong(term uint64) {
	e.counters.Get("rx_agg_pong").Inc()
	if term == e.node.Term() {
		e.aggPongTerm = term
	}
}

func (e *Engine) handleAggCommit(a *AggCommit) {
	e.counters.Get("rx_agg_commit").Inc()
	if a.Term != e.node.Term() {
		return
	}
	if e.IsLeader() {
		// The aggregator counted the quorum; commit is authoritative.
		// Group mode only starts after this term's noop committed via
		// the normal path, so every index here is covered by
		// current-term replication (see DESIGN.md §4.4).
		e.node.ForceCommit(a.Commit)
		for i, id := range a.Nodes {
			e.queues.Applied(id, a.Apps[i])
			if pr := e.node.Progress(id); pr != nil && a.Apps[i] > pr.Applied {
				pr.Applied = a.Apps[i]
			}
		}
	} else {
		// Commit only what we ourselves acknowledged this term.
		limit := a.Commit
		if e.followerMatch < limit {
			limit = e.followerMatch
		}
		e.node.ForceCommit(limit)
	}
	e.finish()
}

// --- leader pacing -------------------------------------------------------

// pace advances the announcement window, then emits the AppendEntries
// that are due (point-to-point or via the aggregator). It has two
// callers and two clocks. From Tick it broadcasts to everyone whenever
// anything is new since the last broadcast — the simulator's only pacer
// and the UDP plane's loss fallback. From EndBatch (boundary) it is
// ack-clocked per follower, see appendDue.
func (e *Engine) pace(boundary bool) {
	if e.cfg.Mode != ModeVanilla {
		e.announce()
	}
	if e.groupMode {
		e.paceGroup(boundary)
		return
	}
	log := e.node.Log()
	target, commit := log.LastIndex(), log.Commit()
	if e.cfg.Mode != ModeVanilla {
		target = e.announced
	}
	switch {
	case boundary:
		if e.appendDue(target, commit) {
			e.lastBcastLast, e.lastBcastCommit = target, commit
		}
	case target > e.lastBcastLast || commit > e.lastBcastCommit:
		e.node.BroadcastAppend()
		e.lastBcastLast, e.lastBcastCommit = target, commit
	}
	if e.cfg.Mode == ModeHovercraftPP && !boundary {
		e.aggHandshake()
	}
}

// appendDue is the boundary pacer. A follower with something to hear —
// announced entries at or past its Next, or a commit index no append to
// it has carried — and nothing in flight gets one AppendEntries now. A
// follower with an append in flight is left to its ack: the boundary
// after the ack sends whatever accumulated over that round trip, commit
// included. At low load every request therefore leaves in the pass that
// ingested it, and at saturation the batch is one round trip's arrivals,
// with no parameter. It reports whether every follower has now been sent
// everything up to (target, commit); if not, the broadcast watermarks
// stay behind and the next tick's pace covers the rest — a lost append
// never acks, so only the timer can restart its follower.
func (e *Engine) appendDue(target, commit uint64) bool {
	told := true
	for _, p := range e.cfg.Peers {
		if p == e.cfg.ID {
			continue
		}
		pr := e.node.Progress(p)
		if pr.Next > target && commit <= e.sentCommit[p] {
			continue // nothing to say
		}
		if pr.Next-1 != pr.Match {
			told = false // in flight: the ack clocks the next one
			continue
		}
		e.node.SendAppend(p)
		if pr.Next <= target {
			told = false // capped by MaxEntriesPerAppend / MaxBatchBytes
		}
	}
	return told
}

// aggHandshake runs at tick cadence while HovercRaft++ still broadcasts
// point-to-point: ping the aggregator every HeartbeatTicks, and switch to
// group mode once it answered for this term and the term's noop
// committed.
func (e *Engine) aggHandshake() {
	log := e.node.Log()
	e.idleHB++
	if e.aggPongTerm != e.node.Term() && e.idleHB >= e.cfg.HeartbeatTicks {
		e.idleHB = 0
		e.counters.Get("tx_agg_ping").Inc()
		ping := EncodeAggPing(&AggPing{Term: e.node.Term(), From: e.cfg.ID})
		e.transport.SendToAggregator(e.consensusBufs(r2p2.TypeRaftReq, ping))
	}
	if e.aggPongTerm == e.node.Term() && log.Commit() >= e.noopIndex {
		e.groupMode = true
		e.groupNext = log.Commit() + 1
		e.idleHB = 0
	}
}

// paceGroup is group mode: one append to the aggregator covers all
// followers. The idle-heartbeat clock (idleHB) is a timer and advances
// on ticks only; at a loop boundary only new entries or a moved commit
// send.
func (e *Engine) paceGroup(boundary bool) {
	log := e.node.Log()
	if !boundary {
		e.idleHB++
	}
	hasNew := e.groupNext <= e.announced
	commitMoved := log.Commit() > e.lastBcastCommit
	heartbeatDue := !boundary && e.idleHB >= e.cfg.HeartbeatTicks
	if !hasNew && !commitMoved && !heartbeatDue {
		return
	}
	m, ok := e.node.AppendMsgFrom(e.groupNext, AggregatorID, 0)
	if !ok {
		// groupNext fell behind the compaction horizon (extremely
		// lagging aggregator view); drop out of group mode and let the
		// normal path re-establish it.
		e.groupMode = false
		return
	}
	m.Entries = e.stripBodies(m.Entries)
	e.idleHB = 0
	e.lastBcastCommit = log.Commit()
	e.groupNext += uint64(len(m.Entries))
	e.counters.Get("tx_agg_ae").Inc()
	e.countAEClock()
	e.encScratch = AppendRaft(e.encScratch[:0], &m)
	e.transport.SendToAggregator(e.consensusBufs(r2p2.TypeRaftReq, e.encScratch))
}

// announce advances announced_idx, designating repliers under the bounded
// queue invariant (§3.4): a node with a full queue is ineligible, and
// when nobody is eligible the leader waits.
func (e *Engine) announce() {
	log := e.node.Log()
	if e.announced < log.SnapIndex() {
		e.announced = log.SnapIndex()
	}
	for e.announced < log.LastIndex() {
		idx := e.announced + 1
		le := log.Entry(idx)
		if le == nil {
			break
		}
		if le.Kind == raft.KindNoop {
			e.announced = idx
			continue
		}
		if le.Replier != raft.None {
			// Inherited from a previous leader: immutable.
			e.announced = idx
			continue
		}
		var replier raft.NodeID
		if e.cfg.DisableReplyLB {
			// No reply load balancing: the leader answers everything,
			// vanilla-style, and the bounded-queue window does not
			// gate announcements (there is no replier choice to make).
			le.Replier = e.cfg.ID
			e.announced = idx
			continue
		} else {
			term := e.node.Term()
			alive := func(n raft.NodeID) bool {
				return n == e.cfg.ID || e.heardTerm[n] >= term
			}
			r, ok := e.queues.Select(e.cfg.Policy, e.cfg.Rand, alive)
			if !ok {
				break // wait: liveness unaffected (§3.4)
			}
			replier = r
		}
		le.Replier = replier
		e.queues.Assign(replier, idx)
		e.announced = idx
	}
	e.node.SetReplicationLimit(e.announced)
}

// --- state transitions ---------------------------------------------------

func (e *Engine) checkTransitions() {
	if t := e.node.Term(); t != e.lastTermSeen {
		e.lastTermSeen = t
		e.followerMatch = 0
		e.aggPongTerm = 0
		e.groupMode = false
	}
	leading := e.IsLeader()
	switch {
	case leading && !e.wasLeader:
		e.becomeLeader()
	case !leading && e.wasLeader:
		if e.obs.Active() {
			e.obs.Emitf("raft", "leader_stepdown", "node=%d term=%d", e.cfg.ID, e.node.Term())
		}
		e.wasLeader = false
		e.queues.Reset()
		e.announced = 0
		e.lastBcastLast = 0
		e.lastBcastCommit = 0
		e.groupMode = false
		e.node.SetReplicationLimit(0)
	}
}

func (e *Engine) becomeLeader() {
	e.wasLeader = true
	e.counters.Get("became_leader").Inc()
	if e.obs.Active() {
		e.obs.Emitf("raft", "leader_elected", "node=%d term=%d", e.cfg.ID, e.node.Term())
	}
	log := e.node.Log()
	e.noopIndex = log.LastIndex() // the noop becomeLeader just appended
	e.groupMode = false
	e.lastBcastLast = 0
	e.lastBcastCommit = 0
	clear(e.sentCommit)
	if e.cfg.Mode == ModeVanilla {
		e.node.SetReplicationLimit(0)
		return
	}
	// Recompute announced_idx from the inherited log: the prefix whose
	// entries all carry a replier. The same walk rebuilds the in-flight
	// suppression set — every unapplied ID in the log must block
	// re-proposal of its retransmissions.
	e.announced = log.LastIndex()
	ids := make(map[r2p2.RequestID]bool)
	e.inLog = make(map[r2p2.RequestID]bool)
	applied0 := log.Applied()
	for i := log.FirstIndex(); i <= log.LastIndex(); i++ {
		le := log.Entry(i)
		if le.Kind != raft.KindNoop {
			ids[le.ID] = true
			if le.Kind == raft.KindReadWrite && i > applied0 {
				e.inLog[le.ID] = true
			}
		}
		if le.Kind != raft.KindNoop && le.Replier == raft.None && e.announced >= i {
			e.announced = i - 1
		}
	}
	// Rebuild bounded queues from announced-but-unapplied assignments.
	applied := log.Applied()
	e.queues.Rebuild(func(emit func(n raft.NodeID, idx uint64)) {
		for i := applied + 1; i <= e.announced; i++ {
			le := log.Entry(i)
			if le != nil && le.Kind != raft.KindNoop && le.Replier != raft.None {
				emit(le.Replier, i)
			}
		}
	})
	e.node.SetReplicationLimit(e.announced)
	// Order everything we heard that the old leader never announced (§5).
	// Retransmissions of already-applied writes are filtered by the dedup
	// cache — proposing one again is safe (it is skipped at apply) but
	// wasteful.
	for _, ent := range e.unordered.Drain() {
		if ids[ent.ID] {
			continue // already in the inherited log
		}
		if e.dedup != nil && ent.Kind == raft.KindReadWrite && e.dedup.Seen(ent.ID) {
			continue
		}
		if _, err := e.propose(ent); err != nil {
			break
		}
		if ent.Kind == raft.KindReadWrite {
			e.inLog[ent.ID] = true
		}
	}
}

// --- applying ------------------------------------------------------------

// maybeApply pushes the apply pipeline: strictly in-order execution of
// committed entries, eagerly on commit (paper §6.2), skipping read-only
// entries on non-replier nodes (§3.5) and stalling on bodies still being
// recovered.
func (e *Engine) maybeApply() {
	log := e.node.Log()
	if e.tel.Active() {
		e.stampCommits(log)
	}
	for !e.applyBusy {
		next := log.Applied() + 1
		if next > log.Commit() {
			return
		}
		le := log.Entry(next)
		if le == nil {
			return // behind a snapshot restore; nothing to run
		}
		if next > e.announced && e.cfg.Mode != ModeVanilla && e.IsLeader() {
			// Committed but not announced: only a quorum of one commits
			// at Propose, before a replier is designated. Executing now
			// would apply with Replier == None and answer nobody; the
			// announce follows at the next pace (same loop pass).
			return
		}
		if e.dedup != nil && le.Kind == raft.KindReadWrite {
			if reply, _, hasReply, ok := e.dedup.Lookup(le.ID); ok {
				// Duplicate of an already-executed write: a client
				// retransmission that a (new) leader ordered again.
				// Exactly-once means every replica skips execution here
				// — identically, since the caches march in lockstep —
				// and the entry's replier answers from the cache. This
				// check precedes the body stall: a dup needs no body.
				e.counters.Get("apply_dup_skip").Inc()
				e.dropMissing(next)
				delete(e.inLog, le.ID)
				e.unordered.Drop(le.ID)
				if hasReply && le.Replier == e.cfg.ID {
					e.counters.Get("tx_dup_reply").Inc()
					e.reply(le.ID, reply)
				}
				e.markApplied(next)
				continue
			}
		}
		if le.Kind != raft.KindNoop && le.Data == nil {
			e.noteMissing(next, le.ID)
			e.sendRecovery(false)
			return // stall until the body is recovered
		}
		if le.Kind != raft.KindNoop {
			e.unordered.Drop(le.ID)
		}
		execute := le.Kind == raft.KindReadWrite ||
			(le.Kind == raft.KindReadOnly && le.Replier == e.cfg.ID)
		if !execute {
			e.markApplied(next)
			continue
		}
		if e.dedup != nil && le.Kind == raft.KindReadWrite {
			// Register the ID before execution starts so a retransmit
			// arriving mid-execution is suppressed, not re-proposed; the
			// reply bytes are filled in by the done callback below.
			e.dedup.Record(le.ID, nil, le.Replier)
			delete(e.inLog, le.ID)
		}
		if e.tel.Active() {
			if wait, ok := e.applyWait(next); ok {
				e.tel.Record(obs.QApplyQueue, wait)
			}
		}
		e.cur = *le
		// Only the replier's execution is part of the traced request
		// path (read-write entries execute on every node).
		e.curTraced = e.obs.Active() && le.Replier == e.cfg.ID
		if e.curTraced {
			e.obs.Stage(le.ID, obs.StageApplyStart)
		}
		e.run(e.cur.Data, e.cur.Kind == raft.KindReadOnly, e.applyDone)
	}
}

// finishApply is the completion of the committed entry in e.cur.
func (e *Engine) finishApply(reply []byte) {
	e.applyBusy = false
	entry := &e.cur
	if e.curTraced {
		e.obs.Stage(entry.ID, obs.StageApplyDone)
	}
	// A snapshot restore may have advanced applied past this entry
	// while it executed; its result is still valid (computed on
	// consistent pre-restore state) but the applied index must not
	// regress.
	if entry.Index > e.node.Log().Applied() {
		e.markApplied(entry.Index)
	}
	if e.dedup != nil && entry.Kind == raft.KindReadWrite {
		r := reply
		if r == nil {
			r = []byte{} // nil means "reply unknown" in the cache
		}
		e.dedup.Record(entry.ID, r, entry.Replier)
	}
	if entry.Replier == e.cfg.ID {
		e.reply(entry.ID, reply)
	}
	e.resume()
}

// run hands one operation to the runner.
func (e *Engine) run(payload []byte, readOnly bool, done func(reply []byte)) {
	e.applyBusy = true
	e.inRun = true
	e.runner.Run(payload, readOnly, done)
	e.inRun = false
}

// resume continues the pipeline after a completion. Inside Run it does
// nothing: the maybeApply or serveReads loop that called Run takes the
// next operation itself, so a backlog of N synchronous completions runs
// at constant stack depth and the step that committed them flushes its
// raft outbox and feedback once (its finish). A completion arriving
// later — the simulator's application thread — is an event of its own
// and pushes the pipeline and flushes here.
func (e *Engine) resume() {
	if e.inRun {
		return
	}
	e.maybeApply()
	e.serveReads()
	e.flush()
}

// commitStamp records when one log entry became committed (and thus
// eligible for execution) on this node.
type commitStamp struct {
	idx uint64
	at  time.Duration
}

// stampCommits timestamps every entry newly committed since the last
// call. Under overload the committed-but-unapplied backlog is where
// requests queue, so these stamps are what make the apply-queue delay
// visible to telemetry (and through it, the admission controller).
func (e *Engine) stampCommits(log *raft.Log) {
	if a := log.Applied(); e.commitSeen < a {
		// Snapshot restore (or engine start) skipped ahead; entries at
		// or below applied never execute here.
		e.commitSeen = a
	}
	c := log.Commit()
	if c <= e.commitSeen {
		return
	}
	now := e.tel.Now()
	for i := e.commitSeen + 1; i <= c; i++ {
		e.commitStamps = append(e.commitStamps, commitStamp{idx: i, at: now})
	}
	e.commitSeen = c
}

// applyWait pops the commit stamp for idx, discarding stamps of entries
// that were skipped (noops, dups, non-replier read-onlys, snapshot
// restores), and returns how long idx waited for its execution slot.
func (e *Engine) applyWait(idx uint64) (time.Duration, bool) {
	for e.commitHead < len(e.commitStamps) && e.commitStamps[e.commitHead].idx < idx {
		e.commitHead++
	}
	if e.commitHead >= len(e.commitStamps) || e.commitStamps[e.commitHead].idx != idx {
		return 0, false
	}
	at := e.commitStamps[e.commitHead].at
	e.commitHead++
	if e.commitHead == len(e.commitStamps) {
		e.commitStamps = e.commitStamps[:0]
		e.commitHead = 0
	}
	return e.tel.Now() - at, true
}

func (e *Engine) markApplied(idx uint64) {
	e.node.AppliedTo(idx)
	if e.IsLeader() {
		e.queues.Applied(e.cfg.ID, idx)
	}
}

func (e *Engine) reply(id r2p2.RequestID, payload []byte) {
	e.counters.Get("tx_resp").Inc()
	e.dgScratch = r2p2.AppendResponseBufs(e.dgScratch[:0], id, payload, 0)
	e.transport.SendToClient(id, e.dgScratch)
	if e.cfg.Mode != ModeVanilla {
		e.counters.Get("tx_feedback").Inc()
		// Coalesced: the IDs accumulate across the current engine step
		// and leave as one FEEDBACK datagram in flushFeedback.
		e.fbPending = append(e.fbPending, id)
	}
}

// flushFeedback sends one coalesced FEEDBACK datagram covering every
// reply emitted since the last flush.
func (e *Engine) flushFeedback() {
	if len(e.fbPending) == 0 {
		return
	}
	e.dgScratch = r2p2.AppendFeedbackBufs(e.dgScratch[:0], e.fbPending)
	e.transport.SendFeedback(e.dgScratch)
	e.fbPending = e.fbPending[:0]
}

// --- outbox ---------------------------------------------------------------

// finish runs the standard post-step sequence.
func (e *Engine) finish() {
	e.checkTransitions()
	e.maybeSnapshot()
	e.noteCommits()
	e.maybeApply()
	e.pumpReadIndex()
	e.serveReads()
	e.maybeCompact()
	e.flush()
}

// noteCommits stamps StageCommit for entries whose commit the leader just
// learned about (quorum replication finished). Only the leader stamps, so
// the replicate segment measures append→quorum at the ordering node.
func (e *Engine) noteCommits() {
	if !e.obs.Active() {
		return
	}
	log := e.node.Log()
	commit := log.Commit()
	if commit <= e.obsCommitSeen {
		return
	}
	if e.IsLeader() {
		for i := e.obsCommitSeen + 1; i <= commit; i++ {
			if le := log.Entry(i); le != nil && le.Kind != raft.KindNoop {
				e.obs.Stage(le.ID, obs.StageCommit)
			}
		}
	}
	e.obsCommitSeen = commit
}

// maybeSnapshot restores application state after an InstallSnapshot
// replaced the log (receiver side of compaction catch-up).
func (e *Engine) maybeSnapshot() {
	if e.cfg.Snapshotter == nil {
		return
	}
	log := e.node.Log()
	if si := log.SnapIndex(); si > e.lastRestored && si >= log.Applied() {
		ids, app, uerr := unwrapSnapshot(log.SnapData())
		if uerr != nil {
			return
		}
		if err := e.cfg.Snapshotter.Restore(app); err == nil {
			if e.dedup != nil {
				// Keep suppressing duplicates of writes whose effects
				// are baked into the restored state.
				e.dedup.seedFromSnapshot(ids)
			}
			e.lastRestored = si
			e.counters.Get("snap_restored").Inc()
			// Entries below the snapshot can never need recovery now.
			for idx := range e.missing {
				if idx <= si {
					e.dropMissing(idx)
				}
			}
			// Drop every parked request: some may already be inside
			// the snapshot (we skipped their individual applies), and
			// re-proposing one after a leadership change would execute
			// it twice. Requests still genuinely unordered are
			// re-fetched through the recovery path if we ever need
			// their bodies.
			e.unordered.Drain()
		}
	}
}

// maybeCompact truncates the applied log prefix into a snapshot every
// CompactEvery entries. Only runs while no operation is in flight so
// Snapshot sees a quiescent state machine.
func (e *Engine) maybeCompact() {
	if e.cfg.Snapshotter == nil || e.cfg.CompactEvery == 0 || e.applyBusy {
		return
	}
	log := e.node.Log()
	if log.Applied()-log.SnapIndex() < e.cfg.CompactEvery {
		return
	}
	// The dedup ID window rides inside the snapshot blob so restored
	// replicas keep their exactly-once guarantee (see dedup.go).
	blob := wrapSnapshot(e.dedup, e.cfg.Snapshotter.Snapshot())
	if err := e.node.Compact(log.Applied(), blob); err == nil {
		e.lastRestored = log.SnapIndex()
		e.counters.Get("snap_taken").Inc()
	}
}

// flush drains the raft outbox, encodes, and routes messages.
func (e *Engine) flush() {
	e.flushFeedback()
	for _, m := range e.node.ReadMessages() {
		m := m
		if m.Type == raft.MsgApp {
			if e.cfg.Mode != ModeVanilla {
				m.Entries = e.stripBodies(m.Entries)
			}
			if e.cfg.Mode == ModeHovercraftPP && e.groupMode && !e.ctxFromResp {
				// Group mode replicates via the aggregator; suppress
				// raft-generated broadcast appends (heartbeats). Sends
				// triggered by stepping a response are the direct
				// catch-up path and pass through.
				continue
			}
			e.counters.Get("tx_ae").Inc()
			e.countAEClock()
			e.sentCommit[m.To] = m.Commit
		}
		typ := r2p2.TypeRaftReq
		if m.IsResponse() {
			typ = r2p2.TypeRaftResp
		}
		if m.Type == raft.MsgAppResp {
			e.counters.Get("tx_ae_resp").Inc()
			e.lastRespTick = e.ticks
			if m.Success {
				if m.MatchIndex > e.followerMatch {
					e.followerMatch = m.MatchIndex
				}
				if e.cfg.Mode == ModeHovercraftPP && e.ctxViaAgg {
					e.encScratch = AppendRaft(e.encScratch[:0], &m)
					e.transport.SendToAggregator(e.consensusBufs(typ, e.encScratch))
					continue
				}
			}
		}
		e.encScratch = AppendRaft(e.encScratch[:0], &m)
		e.transport.SendToNode(m.To, e.consensusBufs(typ, e.encScratch))
	}
}

// countAEClock charges one outgoing AppendEntries to the clock that
// emitted it (see aeClock).
func (e *Engine) countAEClock() {
	if e.aeClock != nil {
		e.aeClock.Inc()
	}
}

// stripBodies is raft.StripBodies into a reused scratch: the result is
// only valid until the next call, which is fine for the flush loop —
// every message is encoded onto the wire before the next one is built.
func (e *Engine) stripBodies(entries []raft.Entry) []raft.Entry {
	e.entScratch = e.entScratch[:0]
	for i := range entries {
		ent := entries[i]
		ent.Data = nil
		e.entScratch = append(e.entScratch, ent)
	}
	return e.entScratch
}

// consensusBufs wraps an envelope payload into pooled R2P2 datagrams.
// The returned slice is the engine's reused scratch: transports consume
// it synchronously and must not retain it.
func (e *Engine) consensusBufs(typ r2p2.MessageType, payload []byte) []*wire.Buf {
	e.msgSeq++
	e.dgScratch = r2p2.AppendMsgBufs(e.dgScratch[:0], typ, r2p2.PolicyUnrestricted, uint16(e.cfg.ID), e.msgSeq, payload, 0)
	return e.dgScratch
}
