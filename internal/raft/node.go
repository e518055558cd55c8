package raft

import (
	"errors"
	"fmt"
	"math/rand"
)

// Config parameterizes a Node.
type Config struct {
	// ID is this node's identity; must appear in Peers.
	ID NodeID
	// Peers lists every cluster member, including ID.
	Peers []NodeID
	// ElectionTicks is the base election timeout in ticks; the actual
	// timeout is randomized in [ElectionTicks, 2*ElectionTicks).
	ElectionTicks int
	// HeartbeatTicks is the leader's idle AppendEntries interval.
	HeartbeatTicks int
	// MaxEntriesPerAppend caps entries in one AppendEntries message.
	MaxEntriesPerAppend int
	// MaxInflightEntries caps optimistically sent but unacknowledged
	// entries per follower (Next - Match); beyond it the leader stops
	// shipping new entries until acks arrive or a heartbeat probe
	// resynchronizes. Prevents unbounded bursts at follower ingress.
	// This is also the pipelining window: one paced broadcast emits as
	// many back-to-back AppendEntries per follower as fit in it.
	MaxInflightEntries int
	// MaxBatchBytes, when nonzero, additionally caps one AppendEntries
	// message by the wire size of its entries (fixed metadata bytes plus
	// any carried body bytes). The paper-faithful default of 0 leaves
	// batching bounded by MaxEntriesPerAppend only; setting it near the
	// MTU payload size keeps every metadata append in a single datagram
	// and lets the pipeline (see MaxInflightEntries) provide throughput.
	MaxBatchBytes int
	// DriftTicks is the clock-drift safety margin of the leader lease:
	// the lease extends ElectionTicks-DriftTicks ticks past the
	// quorum-ack watermark (see LeaseValid). A follower that echoed a
	// probe will not grant a vote for at least ElectionTicks of its own
	// clock; DriftTicks covers its clock running fast relative to the
	// leader's. Defaults to ElectionTicks/10 (minimum 1) and is clamped
	// so the lease never reaches the full election timeout.
	DriftTicks int
	// Rand supplies election jitter. Required for determinism under the
	// simulator; nil uses a fixed-seed source.
	Rand *rand.Rand
	// Storage receives persistence callbacks. Nil means NopStorage.
	Storage Storage
}

func (c *Config) validate() error {
	if c.ID == None {
		return errors.New("raft: config needs a nonzero ID")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.ID {
			found = true
		}
	}
	if !found {
		return errors.New("raft: ID must be listed in Peers")
	}
	if c.ElectionTicks <= 0 {
		c.ElectionTicks = 10
	}
	if c.HeartbeatTicks <= 0 {
		c.HeartbeatTicks = 1
	}
	if c.ElectionTicks <= c.HeartbeatTicks {
		return fmt.Errorf("raft: ElectionTicks (%d) must exceed HeartbeatTicks (%d)",
			c.ElectionTicks, c.HeartbeatTicks)
	}
	if c.MaxEntriesPerAppend <= 0 {
		c.MaxEntriesPerAppend = 256
	}
	if c.MaxInflightEntries <= 0 {
		c.MaxInflightEntries = 4096
	}
	if c.DriftTicks <= 0 {
		c.DriftTicks = c.ElectionTicks / 10
		if c.DriftTicks < 1 {
			c.DriftTicks = 1
		}
	}
	if c.DriftTicks >= c.ElectionTicks {
		c.DriftTicks = c.ElectionTicks - 1
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(int64(c.ID)))
	}
	if c.Storage == nil {
		c.Storage = NopStorage{}
	}
	return nil
}

// Progress is the leader's view of one follower.
type Progress struct {
	// Next is the index of the next entry to send.
	Next uint64
	// Match is the highest index known replicated on the follower.
	Match uint64
	// Applied is the follower's applied index, piggybacked on
	// AppendEntries replies (HovercRaft §3.4).
	Applied uint64
	// ackedProbe is the largest lease-probe stamp the follower has
	// echoed this term — the latest leader tick at which the follower
	// provably received an append (and reset its election timer).
	ackedProbe uint64
	// pendingSnap is set while a snapshot transfer is outstanding.
	pendingSnap bool
}

// ErrNotLeader is returned by Propose on a non-leader.
var ErrNotLeader = errors.New("raft: not the leader")

// Node is a single Raft participant, advanced by Tick and Step.
// It is not safe for concurrent use; the runtime serializes access.
type Node struct {
	cfg Config

	state StateType
	term  uint64
	vote  NodeID
	lead  NodeID
	log   *Log

	// follower/candidate
	electionElapsed  int
	randomizedExpiry int

	// candidate
	votes map[NodeID]bool

	// leader
	prs              map[NodeID]*Progress
	heartbeatElapsed int

	// repLimit, when nonzero, caps the highest index included in
	// outgoing AppendEntries. HovercRaft sets it to the leader's
	// announced_idx so entries are never replicated before their
	// designated replier has been chosen (§3.3: the replier field is
	// immutable once an entry has been sent to any follower).
	repLimit uint64

	// ticks counts every Tick since construction — the lease clock.
	// It is monotonic across role changes (probe stamps from different
	// terms stay comparable at the stamping leader) and deliberately
	// volatile: a restarted node starts a fresh clock and holds no lease.
	ticks uint64

	msgs []Message
	// spare is the outbox double buffer: ReadMessages hands out one
	// array while new sends fill the other, so steady-state draining
	// never allocates.
	spare []Message
	// matchScratch is reused by maybeCommit's quorum count.
	matchScratch []uint64
	// probeScratch is reused by AckWatermark's quorum count.
	probeScratch []uint64
}

// NewNode creates a node. It panics on invalid configuration (a startup
// bug, not a runtime condition).
func NewNode(cfg Config) *Node {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := &Node{cfg: cfg, log: NewLog()}
	n.becomeFollower(0, None)
	return n
}

// --- accessors -------------------------------------------------------

// ID returns this node's identity.
func (n *Node) ID() NodeID { return n.cfg.ID }

// State returns the node's current role.
func (n *Node) State() StateType { return n.state }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the known leader of the current term (None if unknown).
func (n *Node) Leader() NodeID { return n.lead }

// Log exposes the node's log (read-mostly; the HovercRaft engine uses it
// to promote request bodies and to build group appends).
func (n *Node) Log() *Log { return n.log }

// Peers returns the cluster membership.
func (n *Node) Peers() []NodeID { return append([]NodeID(nil), n.cfg.Peers...) }

// Quorum returns the majority size.
func (n *Node) Quorum() int { return len(n.cfg.Peers)/2 + 1 }

// Progress returns the leader's progress entry for peer id (nil when not
// leader or unknown peer).
func (n *Node) Progress(id NodeID) *Progress {
	if n.state != StateLeader {
		return nil
	}
	return n.prs[id]
}

// Status summarizes externally visible state.
func (n *Node) Status() Status {
	return Status{
		ID: n.cfg.ID, State: n.state, Term: n.term, Lead: n.lead,
		Commit: n.log.Commit(), Applied: n.log.Applied(), Last: n.log.LastIndex(),
	}
}

// ReadMessages drains the outbox. The returned slice (and the Entries
// views inside its messages) is valid until the call after next: callers
// must finish encoding the drained messages before stepping the node
// again, which the engine's synchronous drain loop guarantees.
func (n *Node) ReadMessages() []Message {
	out := n.msgs
	n.msgs, n.spare = n.spare[:0], out
	return out
}

func (n *Node) send(m Message) {
	m.From = n.cfg.ID
	if m.Term == 0 {
		m.Term = n.term
	}
	n.msgs = append(n.msgs, m)
}

// --- role transitions ------------------------------------------------

func (n *Node) resetElectionTimer() {
	n.electionElapsed = 0
	n.randomizedExpiry = n.cfg.ElectionTicks + n.cfg.Rand.Intn(n.cfg.ElectionTicks)
}

func (n *Node) becomeFollower(term uint64, lead NodeID) {
	if term > n.term {
		n.term = term
		n.vote = None
		n.cfg.Storage.SaveState(n.term, n.vote)
	}
	n.state = StateFollower
	n.lead = lead
	n.votes = nil
	n.prs = nil
	n.resetElectionTimer()
}

func (n *Node) becomeCandidate() {
	n.state = StateCandidate
	n.term++
	n.vote = n.cfg.ID
	n.lead = None
	n.votes = map[NodeID]bool{n.cfg.ID: true}
	n.cfg.Storage.SaveState(n.term, n.vote)
	n.resetElectionTimer()
}

func (n *Node) becomeLeader() {
	n.state = StateLeader
	n.lead = n.cfg.ID
	n.heartbeatElapsed = 0
	n.prs = make(map[NodeID]*Progress, len(n.cfg.Peers))
	last := n.log.LastIndex()
	for _, p := range n.cfg.Peers {
		n.prs[p] = &Progress{Next: last + 1}
	}
	n.prs[n.cfg.ID].Match = last
	// Commit an empty entry to establish the new term (Raft §5.4.2:
	// a leader may only count replicas of current-term entries toward
	// commitment, so it creates one immediately).
	n.appendLocal(Entry{Term: n.term, Kind: KindNoop})
	n.broadcastAppend()
}

// Campaign starts an election immediately (also used by tests to steer
// leadership deterministically).
func (n *Node) Campaign() {
	if n.state == StateLeader {
		return
	}
	n.becomeCandidate()
	if len(n.cfg.Peers) == 1 {
		n.becomeLeader()
		return
	}
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		n.send(Message{
			Type: MsgVote, To: p,
			Index: n.log.LastIndex(), LogTerm: n.log.LastTerm(),
		})
	}
}

// --- tick ------------------------------------------------------------

// Tick advances the node's logical clock by one tick.
func (n *Node) Tick() {
	n.ticks++
	switch n.state {
	case StateLeader:
		n.heartbeatElapsed++
		if n.heartbeatElapsed >= n.cfg.HeartbeatTicks {
			n.heartbeatElapsed = 0
			n.broadcastAppend()
		}
	default:
		n.electionElapsed++
		if n.electionElapsed >= n.randomizedExpiry {
			n.Campaign()
		}
	}
}

// --- proposing -------------------------------------------------------

// Propose appends a client entry to the leader's log and returns its
// index. Nothing is sent here: the engine decides when appends leave —
// at its next batch boundary on the UDP plane (ack-clocked per follower
// through SendAppend), at its next tick in the simulator (BroadcastAppend)
// — so a batch forms from whatever accumulated, never from waiting. Term
// and Index are assigned here.
func (n *Node) Propose(e Entry) (uint64, error) {
	if n.state != StateLeader {
		return 0, ErrNotLeader
	}
	e.Term = n.term
	return n.appendLocal(e), nil
}

func (n *Node) appendLocal(e Entry) uint64 {
	idx := n.log.Append(e)
	n.cfg.Storage.AppendEntries(n.log.Slice(idx, idx, 0))
	n.prs[n.cfg.ID].Match = idx
	n.prs[n.cfg.ID].Next = idx + 1
	n.maybeCommit()
	return idx
}

// BroadcastAppend sends AppendEntries to every follower now, whether or
// not one is already in flight to it. The HovercRaft engine calls it from
// its tick when something is new since the last broadcast: the only pacer
// in the simulator, the loss fallback behind boundary pacing on the UDP
// plane. Either way never per proposal, which is what keeps the leader's
// packet rate bounded.
func (n *Node) BroadcastAppend() {
	if n.state == StateLeader {
		n.broadcastAppend()
	}
}

func (n *Node) broadcastAppend() {
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.sendAppendBurst(p)
		}
	}
}

// sendAppendBurst pipelines AppendEntries to one follower: after the
// first (possibly empty, heartbeat-carrying) append, it keeps sending
// back-to-back appends while the follower still lags and the in-flight
// window (MaxInflightEntries) has room. Each append is bounded by
// MaxEntriesPerAppend/MaxBatchBytes, so a long backlog goes out as a
// train of bounded datagrams in one go instead of one append per
// pacing round.
func (n *Node) sendAppendBurst(to NodeID) {
	pr := n.prs[to]
	if pr == nil {
		return
	}
	n.sendAppend(to)
	target := n.replicationTarget()
	for !pr.pendingSnap && pr.Next <= target &&
		pr.Next-pr.Match-1 < uint64(n.cfg.MaxInflightEntries) {
		before := pr.Next
		n.sendAppend(to)
		if pr.Next == before {
			// Window exhausted (or nothing sendable): stop the train.
			break
		}
	}
}

// SendAppend sends one AppendEntries to peer id: the engine's
// ack-clocked boundary pacer sends to each follower separately, when
// nothing is in flight to it.
func (n *Node) SendAppend(id NodeID) {
	if n.state == StateLeader && id != n.cfg.ID {
		n.sendAppend(id)
	}
}

func (n *Node) sendAppend(to NodeID) {
	pr := n.prs[to]
	if pr == nil {
		return
	}
	if pr.pendingSnap {
		return
	}
	if pr.Next < n.log.FirstIndex() {
		// The follower is behind the compaction horizon: ship a snapshot.
		pr.pendingSnap = true
		n.send(Message{
			Type: MsgSnap, To: to,
			Index:    n.log.SnapIndex(),
			LogTerm:  n.log.SnapTerm(),
			SnapData: n.log.SnapData(),
		})
		return
	}
	prevIdx := pr.Next - 1
	prevTerm, ok := n.log.Term(prevIdx)
	if !ok {
		panic(fmt.Sprintf("raft: no term for prev index %d (first=%d last=%d)",
			prevIdx, n.log.FirstIndex(), n.log.LastIndex()))
	}
	maxEnt := n.cfg.MaxEntriesPerAppend
	// Respect the in-flight window: entries beyond Match+MaxInflight
	// stay queued until acknowledgements arrive (the heartbeat still
	// goes out as an empty probe, which also re-syncs Next after loss).
	if inflight := pr.Next - pr.Match - 1; inflight >= uint64(n.cfg.MaxInflightEntries) {
		maxEnt = 0
	} else if room := uint64(n.cfg.MaxInflightEntries) - inflight; uint64(maxEnt) > room {
		maxEnt = int(room)
	}
	var entries []Entry
	if maxEnt > 0 {
		entries = n.log.View(pr.Next, n.replicationTarget(), maxEnt, n.cfg.MaxBatchBytes)
	}
	n.send(Message{
		Type: MsgApp, To: to,
		Index: prevIdx, LogTerm: prevTerm,
		Entries: entries,
		Commit:  n.log.Commit(),
		Probe:   n.ticks,
	})
	// Advance Next optimistically so the next paced broadcast ships new
	// entries instead of re-sending this in-flight window every tick.
	// Loss is healed by the reject/hint path triggered by the gap the
	// follower will observe on the next append.
	pr.Next += uint64(len(entries))
}

// AppendMsgFrom builds (without sending or touching Progress) an
// AppendEntries message starting at index next, addressed to to. It
// reports false if next is behind the compaction horizon. HovercRaft++
// uses this to build the single group append sent to the aggregator.
func (n *Node) AppendMsgFrom(next uint64, to NodeID, maxEntries int) (Message, bool) {
	if n.state != StateLeader || next < n.log.FirstIndex() {
		return Message{}, false
	}
	prevIdx := next - 1
	prevTerm, ok := n.log.Term(prevIdx)
	if !ok {
		return Message{}, false
	}
	if maxEntries <= 0 {
		maxEntries = n.cfg.MaxEntriesPerAppend
	}
	hi := n.log.LastIndex()
	if n.repLimit != 0 && n.repLimit < hi {
		hi = n.repLimit
	}
	m := Message{
		Type: MsgApp, From: n.cfg.ID, To: to, Term: n.term,
		Index: prevIdx, LogTerm: prevTerm,
		Entries: n.log.View(next, hi, maxEntries, n.cfg.MaxBatchBytes),
		Commit:  n.log.Commit(),
		Probe:   n.ticks,
	}
	return m, true
}

// SetReplicationLimit caps the highest index outgoing AppendEntries may
// carry (0 removes the cap). See the repLimit field.
func (n *Node) SetReplicationLimit(idx uint64) { n.repLimit = idx }

// ForceCommit advances the commit index to min(i, lastIndex) without a
// local quorum count. It is the HovercRaft++ hook for AGG_COMMIT, where
// the in-network aggregator has already counted the quorum (§4). The
// engine guarantees the precondition that i is covered by current-term
// replication (see engine documentation); the node additionally refuses
// to regress and to commit past its log.
func (n *Node) ForceCommit(i uint64) bool {
	return n.log.CommitTo(i)
}

// replicationTarget is the highest index we currently try to replicate.
func (n *Node) replicationTarget() uint64 {
	last := n.log.LastIndex()
	if n.repLimit != 0 && n.repLimit < last {
		return n.repLimit
	}
	return last
}

// maybeCommit advances commit from the leader's match indices. It runs
// on every append response, so the quorum count reuses a scratch slice
// and an insertion sort (cluster sizes are single-digit) instead of
// allocating via sort.Slice.
func (n *Node) maybeCommit() bool {
	matches := n.matchScratch[:0]
	for _, pr := range n.prs {
		matches = append(matches, pr.Match)
	}
	n.matchScratch = matches
	for i := 1; i < len(matches); i++ { // descending insertion sort
		for j := i; j > 0 && matches[j] > matches[j-1]; j-- {
			matches[j], matches[j-1] = matches[j-1], matches[j]
		}
	}
	candidate := matches[n.Quorum()-1]
	// Raft §5.4.2: only commit entries from the current term by counting.
	if t, ok := n.log.Term(candidate); ok && t == n.term {
		return n.log.CommitTo(candidate)
	}
	return false
}

// --- leader lease / read index ---------------------------------------

// Ticks returns the node's logical clock (Tick count since construction).
func (n *Node) Ticks() uint64 { return n.ticks }

// AckWatermark returns the latest tick at which this leader provably
// still held a quorum: the quorum-th largest of the echoed probe stamps,
// the leader standing in for itself at the current tick. Zero when not
// leader or before the first quorum echo round of this term.
//
// Safety: a follower echoes probe T only after receiving an append we
// stamped at our tick T, and receipt reset its election timer — so it
// cannot grant a vote until at least ElectionTicks of its own clock
// later. With a quorum acked at tick W, no rival can assemble a quorum
// (which must intersect ours) before W + ElectionTicks, less clock
// drift.
func (n *Node) AckWatermark() uint64 {
	if n.state != StateLeader {
		return 0
	}
	probes := n.probeScratch[:0]
	for id, pr := range n.prs {
		if id == n.cfg.ID {
			probes = append(probes, n.ticks)
		} else {
			probes = append(probes, pr.ackedProbe)
		}
	}
	n.probeScratch = probes
	for i := 1; i < len(probes); i++ { // descending insertion sort
		for j := i; j > 0 && probes[j] > probes[j-1]; j-- {
			probes[j], probes[j-1] = probes[j-1], probes[j]
		}
	}
	return probes[n.Quorum()-1]
}

// leaseTicks is the lease length: the election timeout minus the
// configured clock-drift bound. resetElectionTimer randomizes actual
// follower timeouts in [ElectionTicks, 2*ElectionTicks), so the base
// ElectionTicks is already the conservative end.
func (n *Node) leaseTicks() uint64 {
	return uint64(n.cfg.ElectionTicks - n.cfg.DriftTicks)
}

// termCommitted reports whether this term's noop has committed — before
// that the inherited commit index may trail entries an earlier leader
// already committed elsewhere, so it must not anchor a read (Raft §8).
func (n *Node) termCommitted() bool {
	t, ok := n.log.Term(n.log.Commit())
	return ok && t == n.term
}

// LeaseValid reports whether the leader currently holds a read lease:
// a quorum acknowledged one of its probes within the last
// ElectionTicks-DriftTicks ticks, and this term's noop has committed.
// While it holds, no other node can win an election, so the local
// commit index is linearizable to read from without a network round.
func (n *Node) LeaseValid() bool {
	if n.state != StateLeader || !n.termCommitted() {
		return false
	}
	wm := n.AckWatermark()
	return wm > 0 && n.ticks < wm+n.leaseTicks()
}

// ReadIndex captures the commit index for a linearizable read.
// ok=false when this node is not a leader able to serve reads (not
// leader, or its term noop has not committed yet). confirm==0 means the
// lease already ratifies the index: serve the read as soon as the
// applied index reaches it. Otherwise confirm is the capture tick — the
// caller must hold the read until AckWatermark() >= confirm, i.e. until
// a quorum echoes a probe from the capture point or later (the
// heartbeat-round confirmation of classic ReadIndex).
func (n *Node) ReadIndex() (index uint64, confirm uint64, ok bool) {
	if n.state != StateLeader || !n.termCommitted() {
		return 0, 0, false
	}
	if n.LeaseValid() {
		return n.log.Commit(), 0, true
	}
	return n.log.Commit(), n.ticks, true
}

// --- stepping --------------------------------------------------------

// Step feeds one message into the state machine.
func (n *Node) Step(m Message) {
	switch {
	case m.Term > n.term:
		lead := None
		if m.Type == MsgApp || m.Type == MsgSnap {
			lead = m.From
		}
		n.becomeFollower(m.Term, lead)
	case m.Term < n.term:
		// Stale sender: tell it about the newer term so it steps down
		// (replies suffice; stale responses are dropped).
		switch m.Type {
		case MsgVote:
			n.send(Message{Type: MsgVoteResp, To: m.From, Success: false})
		case MsgApp, MsgSnap:
			n.send(Message{Type: MsgAppResp, To: m.From, Success: false,
				RejectHint: n.log.LastIndex(), AppliedIndex: n.log.Applied()})
		}
		return
	}

	switch m.Type {
	case MsgVote:
		n.handleVote(m)
	case MsgVoteResp:
		n.handleVoteResp(m)
	case MsgApp:
		n.handleAppend(m)
	case MsgAppResp:
		n.handleAppendResp(m)
	case MsgSnap:
		n.handleSnapshot(m)
	case MsgSnapResp:
		n.handleSnapshotResp(m)
	}
}

func (n *Node) handleVote(m Message) {
	canVote := n.vote == None || n.vote == m.From
	if canVote && n.log.IsUpToDate(m.Index, m.LogTerm) && n.state == StateFollower {
		n.vote = m.From
		n.cfg.Storage.SaveState(n.term, n.vote)
		n.resetElectionTimer()
		n.send(Message{Type: MsgVoteResp, To: m.From, Success: true})
	} else {
		n.send(Message{Type: MsgVoteResp, To: m.From, Success: false})
	}
}

func (n *Node) handleVoteResp(m Message) {
	if n.state != StateCandidate {
		return
	}
	n.votes[m.From] = m.Success
	granted := 0
	for _, g := range n.votes {
		if g {
			granted++
		}
	}
	if granted >= n.Quorum() {
		n.becomeLeader()
	}
}

func (n *Node) handleAppend(m Message) {
	if n.state != StateFollower {
		// Same-term candidate discovers an elected leader.
		n.becomeFollower(n.term, m.From)
	}
	n.lead = m.From
	n.resetElectionTimer()

	// Every reply below echoes m.Probe: whether or not the entries fit
	// our log, receiving the append reset our election timer, which is
	// exactly what the leader's lease watermark counts.
	if m.Index < n.log.Commit() {
		// Stale append below our commit point: it cannot conflict;
		// just report where we are.
		n.send(Message{Type: MsgAppResp, To: m.From, Success: true,
			MatchIndex: n.log.Commit(), AppliedIndex: n.log.Applied(), Probe: m.Probe})
		return
	}
	last, ok := n.log.TryAppend(m.Index, m.LogTerm, m.Entries)
	if !ok {
		hint := n.log.LastIndex()
		if m.Index <= hint {
			// The probed entry exists but its term conflicts (e.g. we
			// led a deposed term and appended since). Nothing above our
			// commit can be trusted, and everything at or below it is
			// guaranteed present on the leader — jump straight there
			// instead of backtracking one entry per round trip.
			hint = n.log.Commit()
		}
		n.send(Message{Type: MsgAppResp, To: m.From, Success: false,
			RejectHint: hint, AppliedIndex: n.log.Applied(), Probe: m.Probe})
		return
	}
	if len(m.Entries) > 0 {
		n.cfg.Storage.AppendEntries(m.Entries)
	}
	commit := m.Commit
	if commit > last {
		commit = last
	}
	n.log.CommitTo(commit)
	n.send(Message{Type: MsgAppResp, To: m.From, Success: true,
		MatchIndex: last, AppliedIndex: n.log.Applied(), Probe: m.Probe})
}

func (n *Node) handleAppendResp(m Message) {
	if n.state != StateLeader {
		return
	}
	pr := n.prs[m.From]
	if pr == nil {
		return
	}
	pr.Applied = m.AppliedIndex
	if m.Probe > pr.ackedProbe {
		// Lease evidence even on rejection: the follower received (and
		// election-timer-reset on) an append we stamped at this tick.
		pr.ackedProbe = m.Probe
	}
	if !m.Success {
		// Back off Next using the follower's hint and retry at once.
		next := m.RejectHint + 1
		if next > pr.Next {
			next = pr.Next // hints never move us forward past Next
		}
		if next < 1 {
			next = 1
		}
		if next <= pr.Match {
			// The follower rejected below what it once acknowledged: it
			// restarted from a WAL whose tail was torn off, losing acked
			// entries. Classic Raft treats Match as a floor because acks
			// imply durability; with async persistence that assumption
			// fails, so regress Match and re-replicate. Commit never
			// regresses — committed entries are re-sent from our log.
			pr.Match = next - 1
		}
		pr.Next = next
		n.sendAppend(m.From)
		return
	}
	if m.MatchIndex > pr.Match {
		pr.Match = m.MatchIndex
	}
	if m.MatchIndex+1 > pr.Next {
		pr.Next = m.MatchIndex + 1
	}
	n.maybeCommit()
	// Push again only for bulk catch-up (the follower lags by a full
	// append batch). Steady-state replication of freshly appended
	// entries is paced by the engine (boundary or tick); pushing on
	// every ack from here would turn each in-flight append into a
	// self-perpetuating per-entry train and flood the leader's NIC.
	if target := n.replicationTarget(); pr.Next <= target &&
		target-pr.Next+1 >= uint64(n.cfg.MaxEntriesPerAppend) {
		n.sendAppendBurst(m.From)
	}
}

func (n *Node) handleSnapshot(m Message) {
	if n.state != StateFollower {
		n.becomeFollower(n.term, m.From)
	}
	n.lead = m.From
	n.resetElectionTimer()
	if m.Index <= n.log.Commit() {
		// Already have this prefix.
		n.send(Message{Type: MsgSnapResp, To: m.From,
			MatchIndex: n.log.Commit(), AppliedIndex: n.log.Applied()})
		return
	}
	n.log.Restore(m.Index, m.LogTerm, m.SnapData)
	n.cfg.Storage.SaveSnapshot(m.Index, m.LogTerm, m.SnapData)
	n.send(Message{Type: MsgSnapResp, To: m.From, Success: true,
		MatchIndex: m.Index, AppliedIndex: m.Index})
}

func (n *Node) handleSnapshotResp(m Message) {
	if n.state != StateLeader {
		return
	}
	pr := n.prs[m.From]
	if pr == nil {
		return
	}
	pr.pendingSnap = false
	if m.MatchIndex > pr.Match {
		pr.Match = m.MatchIndex
	}
	if pr.Next <= m.MatchIndex {
		pr.Next = m.MatchIndex + 1
	}
	pr.Applied = m.AppliedIndex
	n.maybeCommit()
	if pr.Next <= n.replicationTarget() {
		n.sendAppend(m.From)
	}
}

// --- applying --------------------------------------------------------

// NextCommitted returns up to max committed-but-unapplied entries
// (0 = all) for the application layer.
func (n *Node) NextCommitted(max int) []Entry { return n.log.NextCommitted(max) }

// AppliedTo records application progress (reflected to the leader in the
// next AppendEntries reply).
func (n *Node) AppliedTo(i uint64) { n.log.AppliedTo(i) }

// Compact snapshots the applied prefix up to index i.
func (n *Node) Compact(i uint64, snapData []byte) error {
	if err := n.log.Compact(i, snapData); err != nil {
		return err
	}
	n.cfg.Storage.SaveSnapshot(i, n.log.SnapTerm(), snapData)
	return nil
}
