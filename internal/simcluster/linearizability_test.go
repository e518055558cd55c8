package simcluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/linearize"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/simnet"
)

// regService is a deterministic register: "w<v>" writes and echoes v,
// "r" reads. The replication layer serializes Execute.
type regService struct{ v []byte }

func (s *regService) Execute(payload []byte, readOnly bool) []byte {
	if len(payload) > 0 && payload[0] == 'w' && !readOnly {
		s.v = append([]byte(nil), payload[1:]...)
	}
	return append([]byte(nil), s.v...)
}

type regModel struct{}

func (regModel) Init() interface{} { return []byte(nil) }
func (regModel) Step(state interface{}, input []byte) (interface{}, []byte) {
	cur := state.([]byte)
	if len(input) > 0 && input[0] == 'w' {
		return input[1:], input[1:]
	}
	return cur, cur
}
func (regModel) Key(state interface{}) string { return string(state.([]byte)) }
func (regModel) Match(a, b []byte) bool       { return bytes.Equal(a, b) }

// closedLoopClient issues one op at a time against the cluster, recording
// the observed history in virtual time. Timed-out ops are recorded as
// pending (they may or may not have executed — e.g. across a failover).
type closedLoopClient struct {
	id      int
	c       *Cluster
	host    *simnet.Host
	r2      *r2p2.Client
	reasm   *r2p2.Reassembler
	history []linearize.Op

	opTimeout time.Duration
	stopAt    time.Duration
	seq       int
	curIdx    int // index into history of the in-flight op
	curReq    uint32
	readOnly  bool
}

func newClosedLoopClient(c *Cluster, id int, stopAt time.Duration) *closedLoopClient {
	cl := &closedLoopClient{
		id: id, c: c,
		host:      c.Net.NewHost(fmt.Sprintf("lclient%d", id), simnet.DefaultHostConfig()),
		reasm:     r2p2.NewReassembler(time.Second),
		opTimeout: 30 * time.Millisecond,
		stopAt:    stopAt,
		curIdx:    -1,
	}
	cl.r2 = r2p2.NewClient(uint32(cl.host.Addr()), uint16(2000+id))
	cl.host.SetHandler(cl.onPacket)
	return cl
}

func (cl *closedLoopClient) start() { cl.next() }

func (cl *closedLoopClient) next() {
	now := cl.c.Sim.Now()
	if now >= cl.stopAt {
		return
	}
	cl.seq++
	var payload []byte
	cl.readOnly = cl.seq%3 == 0
	if cl.readOnly {
		payload = []byte("r")
	} else {
		payload = []byte(fmt.Sprintf("wc%d-%d", cl.id, cl.seq))
	}
	id, dgs := cl.r2.NewRequest(policyFor(cl.readOnly), payload)
	cl.curReq = id.ReqID
	cl.history = append(cl.history, linearize.Op{
		ClientID: cl.id, Input: payload, Call: now, Pending: true,
	})
	cl.curIdx = len(cl.history) - 1
	for _, dg := range dgs {
		cl.host.Send(&simnet.Packet{Dst: cl.c.ServiceAddr, Payload: dg})
	}
	// Timeout: give up on this op (leave it pending) and move on.
	idx := cl.curIdx
	cl.c.Sim.After(cl.opTimeout, func() {
		if cl.curIdx == idx && cl.history[idx].Pending {
			cl.curIdx = -1
			cl.next()
		}
	})
}

func policyFor(ro bool) r2p2.Policy {
	if ro {
		return r2p2.PolicyReplicatedRO
	}
	return r2p2.PolicyReplicated
}

func (cl *closedLoopClient) onPacket(pkt *simnet.Packet) {
	m, err := cl.reasm.Ingest(pkt.Payload, uint32(pkt.Src), cl.c.Sim.Now())
	if err != nil || m == nil {
		return
	}
	if m.Type != r2p2.TypeResponse || cl.curIdx < 0 || m.ID.ReqID != cl.curReq {
		return // NACK or stale duplicate
	}
	op := &cl.history[cl.curIdx]
	op.Pending = false
	op.Return = cl.c.Sim.Now()
	op.Output = append([]byte(nil), m.Payload...)
	cl.curIdx = -1
	cl.next()
}

func runLinearizabilityScenario(t *testing.T, seed int64, failover bool) {
	t.Helper()
	c := New(Options{
		Setup: SetupHovercraft, Nodes: 3, Seed: seed,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &regService{}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	const horizon = 150 * time.Millisecond
	var clients []*closedLoopClient
	for i := 0; i < 4; i++ {
		clients = append(clients, newClosedLoopClient(c, i, horizon))
	}
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	if failover {
		c.Sim.After(60*time.Millisecond, func() {
			if lead := c.LeaderOf(0); lead != nil {
				lead.Crash()
			}
		})
	}
	c.Run(horizon + 50*time.Millisecond)

	var history []linearize.Op
	completed := 0
	for _, cl := range clients {
		for _, op := range cl.history {
			history = append(history, op)
			if !op.Pending {
				completed++
			}
		}
	}
	if completed < 100 {
		t.Fatalf("only %d completed ops (history too thin to be meaningful)", completed)
	}
	if !linearize.Check(regModel{}, history) {
		t.Fatalf("history of %d ops (%d completed) is NOT linearizable", len(history), completed)
	}
}

func TestClusterHistoryIsLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runLinearizabilityScenario(t, seed, false)
	}
}

func TestClusterHistoryIsLinearizableAcrossFailover(t *testing.T) {
	// The paper's §5 claim under fire: reply load balancing and leader
	// failure preserve linearizability (lost replies are fine — those
	// ops are pending and may have executed or not).
	for seed := int64(4); seed <= 6; seed++ {
		runLinearizabilityScenario(t, seed, true)
	}
}
