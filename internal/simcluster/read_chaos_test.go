package simcluster

import (
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/fault"
	"hovercraft/internal/linearize"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/simnet"
)

// readLoopClient is a closed-loop client for the lease chaos suite:
// two of three ops are LIN_READ point reads sent point-to-point to a
// rotating replica (NACK → immediate retry on the next replica, the
// read-redirect contract), the rest are replicated writes through the
// service address. Every observation lands in a linearize history, so
// the checker sees the mixed read/write interleaving a lease bug would
// corrupt.
type readLoopClient struct {
	id      int
	c       *Cluster
	host    *simnet.Host
	r2      *r2p2.Client
	reasm   *r2p2.Reassembler
	history []linearize.Op

	opTimeout time.Duration
	stopAt    time.Duration
	seq       int
	curIdx    int
	curReq    uint32
	curRead   bool
	curRaw    []byte
	curPort   uint16
	attempts  int
	readTgt   int
}

// readRetryBudget bounds NACK-driven replica rotation per read: enough
// to circle a 3-node cluster twice while an election settles.
const readRetryBudget = 6

func newReadLoopClient(c *Cluster, id int, stopAt time.Duration) *readLoopClient {
	cl := &readLoopClient{
		id: id, c: c,
		host:      c.Net.NewHost(fmt.Sprintf("rclient%d", id), simnet.DefaultHostConfig()),
		reasm:     r2p2.NewReassembler(time.Second),
		opTimeout: 30 * time.Millisecond,
		stopAt:    stopAt,
		curIdx:    -1,
		readTgt:   id, // stagger the rotation start across clients
	}
	cl.r2 = r2p2.NewClient(uint32(cl.host.Addr()), uint16(3000+id))
	cl.host.SetHandler(cl.onPacket)
	return cl
}

func (cl *readLoopClient) start() { cl.next() }

func (cl *readLoopClient) next() {
	now := cl.c.Sim.Now()
	if now >= cl.stopAt {
		return
	}
	cl.seq++
	cl.curRead = cl.seq%3 != 0 // read-heavy: 2/3 lin-reads
	policy := r2p2.PolicyReplicated
	if cl.curRead {
		cl.curRaw = []byte("r")
		policy = r2p2.PolicyLinRead
	} else {
		cl.curRaw = []byte(fmt.Sprintf("wc%d-%d", cl.id, cl.seq))
	}
	id, dgs := cl.r2.NewRequest(policy, cl.curRaw)
	cl.curReq = id.ReqID
	cl.curPort = id.SrcPort
	cl.attempts = 1
	cl.history = append(cl.history, linearize.Op{
		ClientID: cl.id, Input: cl.curRaw, Call: now, Pending: true,
	})
	cl.curIdx = len(cl.history) - 1
	cl.transmit(dgs)
	idx := cl.curIdx
	cl.c.Sim.After(cl.opTimeout, func() {
		if cl.curIdx == idx && cl.history[idx].Pending {
			cl.curIdx = -1
			cl.next()
		}
	})
}

func (cl *readLoopClient) transmit(dgs [][]byte) {
	dst := cl.c.ServiceAddr
	if cl.curRead {
		addrs := cl.c.NodeAddrs()
		dst = addrs[cl.readTgt%len(addrs)]
		cl.readTgt++
	}
	for _, dg := range dgs {
		cl.host.Send(&simnet.Packet{Dst: dst, Payload: dg})
	}
}

func (cl *readLoopClient) onPacket(pkt *simnet.Packet) {
	m, err := cl.reasm.Ingest(pkt.Payload, uint32(pkt.Src), cl.c.Sim.Now())
	if err != nil || m == nil {
		return
	}
	if cl.curIdx < 0 || m.ID.ReqID != cl.curReq {
		return // stale duplicate for an op we already resolved
	}
	switch m.Type {
	case r2p2.TypeResponse:
		op := &cl.history[cl.curIdx]
		op.Pending = false
		op.Return = cl.c.Sim.Now()
		op.Output = append([]byte(nil), m.Payload...)
		cl.curIdx = -1
		cl.next()
	case r2p2.TypeNack:
		// Lin-read NACK = redirect: retry the same op against the next
		// replica immediately, reusing the request ID. Writes never see
		// NACKs here (no admission middlebox in this cluster), so only
		// reads rotate.
		if !cl.curRead || cl.attempts > readRetryBudget {
			return // leave pending; the timeout moves the loop on
		}
		cl.attempts++
		policy := r2p2.PolicyLinRead
		dgs := r2p2.MakeMsg(r2p2.TypeRequest, policy, cl.curPort, cl.curReq, cl.curRaw, cl.r2.MaxPayload)
		cl.transmit(dgs)
	}
}

// staleReads sums the read_stale_served invariant counter across the
// cluster: any nonzero value means a replica answered a read from state
// older than the read index it promised — a linearizability bug even if
// the (sampled) client history happens to pass the checker.
func staleReads(c *Cluster) uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.Engines[0].Counters().Value("read_stale_served")
	}
	return sum
}

// servedReads sums reads actually answered by the lease fast path.
func servedReads(c *Cluster) uint64 {
	var sum uint64
	for _, n := range c.Nodes {
		sum += n.Engines[0].Counters().Value("read_leader_served")
		sum += n.Engines[0].Counters().Value("read_follower_served")
	}
	return sum
}

// readChaosRun is the fault.Runner for the lease read path: a 3-node
// WAL-backed cluster with the leader lease on, read-heavy closed-loop
// clients spreading lin-reads over all replicas, and the fault schedule
// attacking it. Invariants: the mixed read/write history linearizes,
// and no replica ever serves a stale read.
func readChaosRun(seed int64, sched fault.Schedule) (uint64, error) {
	const horizon = 80 * time.Millisecond
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: seed, WAL: true,
		ReadLease:           true,
		ReadStalenessBudget: 100 * time.Microsecond,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &regService{}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	var clients []*readLoopClient
	for i := 0; i < 3; i++ {
		clients = append(clients, newReadLoopClient(c, i, horizon))
	}
	inj := fault.Attach(c.Sim, c.FaultTarget(), sched)
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	c.Run(horizon + 60*time.Millisecond)

	var history []linearize.Op
	for _, cl := range clients {
		history = append(history, cl.history...)
	}
	if !linearize.Check(regModel{}, history) {
		return 0, fmt.Errorf("mixed read/write history not linearizable (faults: %s)", inj.Log)
	}
	if n := staleReads(c); n != 0 {
		return 0, fmt.Errorf("read_stale_served=%d, want 0 (faults: %s)", n, inj.Log)
	}

	fp := fault.NewFingerprint()
	for ci, cl := range clients {
		for _, op := range cl.history {
			fp.Add("c%d %d %q %q %d %d %v", ci, op.ClientID, op.Input, op.Output, op.Call, op.Return, op.Pending)
		}
	}
	for _, n := range c.Nodes {
		cs := n.Engines[0].Counters()
		fp.Add("n%d leader=%d follower=%d nacked=%d crashed=%v", n.ID,
			cs.Value("read_leader_served"), cs.Value("read_follower_served"),
			cs.Value("read_nacked"), n.Crashed())
	}
	for _, line := range inj.Log {
		fp.Add("%s", line)
	}
	return fp.Sum(), nil
}

// TestReadChaosExplorer sweeps seeded random fault schedules (crashes —
// half aimed at the leader, so mid-lease leader death is routine —
// partitions, CPU slowdowns that skew a node's tick clock, fsync stalls
// that lag a follower's applied index) through the lease read path. No
// run may return a stale read or a non-linearizable mixed history, and
// sampled replays must be bit-for-bit deterministic.
func TestReadChaosExplorer(t *testing.T) {
	if testing.Short() {
		t.Skip("read chaos sweep is long; run without -short (CI has a dedicated job)")
	}
	rep := fault.Explore(fault.Options{
		Seeds: fault.Seeds(9000, 40),
		Spec: fault.Spec{
			Nodes: 3, Incidents: 3, WAL: true,
			Start: 8 * time.Millisecond, End: 60 * time.Millisecond,
		},
		ReplayEvery: 10,
	}, readChaosRun)
	for _, f := range rep.Failures {
		t.Errorf("read chaos failure: %s", f)
	}
	for _, seed := range rep.Mismatches {
		t.Errorf("seed %d: replay fingerprint mismatch (nondeterminism)", seed)
	}
	t.Logf("%d runs, %d failures, %d replay mismatches, coverage=%v",
		rep.Runs, len(rep.Failures), len(rep.Mismatches), rep.Coverage)
}

// TestReadChaosSmoke is the -short variant: a handful of seeds so the
// lease chaos machinery runs on every CI tier.
func TestReadChaosSmoke(t *testing.T) {
	rep := fault.Explore(fault.Options{
		Seeds: fault.Seeds(9000, 4),
		Spec: fault.Spec{
			Nodes: 3, Incidents: 3, WAL: true,
			Start: 8 * time.Millisecond, End: 60 * time.Millisecond,
		},
		ReplayEvery: 2,
	}, readChaosRun)
	for _, f := range rep.Failures {
		t.Errorf("read chaos failure: %s", f)
	}
	for _, seed := range rep.Mismatches {
		t.Errorf("seed %d: replay fingerprint mismatch", seed)
	}
}

// readDirected runs one hand-built schedule and asserts the lease-path
// invariants plus that the fast path actually served reads.
func readDirected(t *testing.T, seed int64, sched fault.Schedule) {
	t.Helper()
	fp, err := readChaosRun(seed, sched)
	if err != nil {
		t.Fatalf("directed read chaos: %v", err)
	}
	_ = fp
}

// TestReadLeaseLeaderCrashMidLease kills the leader while its lease is
// hot and restarts it later: the lease must die with the clock (a
// restarted leader starts at tick 0 with no lease), the new leader's
// reads must wait for its term noop, and no client may observe a value
// older than one it already read.
func TestReadLeaseLeaderCrashMidLease(t *testing.T) {
	for seed := int64(71); seed <= 73; seed++ {
		readDirected(t, seed, fault.Schedule{Events: []fault.Event{
			{At: 30 * time.Millisecond, Kind: fault.Crash, Node: fault.PickLeader},
			{At: 55 * time.Millisecond, Kind: fault.Restart, Node: fault.PickCrashed},
		}})
	}
}

// TestReadLeasePartitionWithDrift isolates the leader while a follower
// runs on a slowed CPU (its tick clock drifts behind real virtual
// time): the isolated leader's watermark freezes, the lease lapses
// before a rival can win, and reads redirected to the new majority stay
// linearizable.
func TestReadLeasePartitionWithDrift(t *testing.T) {
	for seed := int64(81); seed <= 83; seed++ {
		readDirected(t, seed, fault.Schedule{Events: []fault.Event{
			{At: 20 * time.Millisecond, Kind: fault.SlowCPU, Node: 1, Factor: 4},
			{At: 28 * time.Millisecond, Kind: fault.Partition, Node: fault.PickLeader, Peer: fault.AllOthers},
			{At: 50 * time.Millisecond, Kind: fault.Heal},
			{At: 60 * time.Millisecond, Kind: fault.SlowCPU, Node: 1, Factor: 1},
		}})
	}
}

// TestReadLeaseLaggingFollower stalls one follower's fsync path so its
// applied index falls behind: reads landing there must either wait out
// the lag inside the SLO or be NACK-redirected — never answered from
// the stale state.
func TestReadLeaseLaggingFollower(t *testing.T) {
	for seed := int64(91); seed <= 93; seed++ {
		readDirected(t, seed, fault.Schedule{Events: []fault.Event{
			{At: 15 * time.Millisecond, Kind: fault.FsyncDelay, Node: 1, Dur: 2 * time.Millisecond},
			{At: 50 * time.Millisecond, Kind: fault.FsyncDelay, Node: 1, Dur: 0},
		}})
	}
}

// TestReadLeaseServesReads is the liveness guard for the whole suite: a
// fault-free run must serve a healthy volume of lease-path reads (a
// regression that silently NACKs every lin-read would otherwise pass
// every safety check above).
func TestReadLeaseServesReads(t *testing.T) {
	const horizon = 80 * time.Millisecond
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: 7, WAL: true,
		ReadLease:           true,
		ReadStalenessBudget: 100 * time.Microsecond,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &regService{}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	var clients []*readLoopClient
	for i := 0; i < 3; i++ {
		clients = append(clients, newReadLoopClient(c, i, horizon))
	}
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	c.Run(horizon + 40*time.Millisecond)
	if n := servedReads(c); n < 100 {
		t.Fatalf("only %d lease-path reads served (fast path not exercised)", n)
	}
	var follower uint64
	for _, n := range c.Nodes {
		follower += n.Engines[0].Counters().Value("read_follower_served")
	}
	if follower == 0 {
		t.Fatal("no follower-served reads: scale-out path inert")
	}
	if n := staleReads(c); n != 0 {
		t.Fatalf("read_stale_served=%d, want 0", n)
	}
	var history []linearize.Op
	for _, cl := range clients {
		history = append(history, cl.history...)
	}
	if !linearize.Check(regModel{}, history) {
		t.Fatal("fault-free mixed history not linearizable")
	}
}
