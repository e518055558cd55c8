package simcluster

import (
	"fmt"
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/linearize"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/shard"
	"hovercraft/internal/simnet"
)

// kregService is a keyed register map: payloads are op(1) keylen(1) key
// value — 'w' writes the value under the key and echoes it, 'r' reads.
// One instance serves one group's slice of the keyspace.
type kregService struct{ m map[string][]byte }

func (s *kregService) Execute(payload []byte, readOnly bool) []byte {
	if len(payload) < 2 {
		return nil
	}
	kl := int(payload[1])
	if len(payload) < 2+kl {
		return nil
	}
	key := string(payload[2 : 2+kl])
	if payload[0] == 'w' && !readOnly {
		s.m[key] = append([]byte(nil), payload[2+kl:]...)
	}
	return append([]byte(nil), s.m[key]...)
}

func kregPayload(write bool, key string, value []byte) []byte {
	op := byte('r')
	if write {
		op = 'w'
	}
	p := append([]byte{op, byte(len(key))}, key...)
	return append(p, value...)
}

// shardLoopClient is a closed-loop client over a sharded cluster: each op
// addresses one key, routes to the owning group, and is recorded under
// that key. Timed-out ops stay pending.
type shardLoopClient struct {
	id      int
	c       *Cluster
	router  *shard.Router
	host    *simnet.Host
	r2      *r2p2.Client
	reasm   *r2p2.Reassembler
	history []linearize.Op
	keys    []string // keys[i] is the key history[i] addressed

	opTimeout time.Duration
	stopAt    time.Duration
	seq       int
	curIdx    int
	curReq    uint32
}

func newShardLoopClient(c *Cluster, router *shard.Router, id int, stopAt time.Duration) *shardLoopClient {
	cl := &shardLoopClient{
		id: id, c: c, router: router,
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

func (cl *shardLoopClient) start() { cl.next() }

func (cl *shardLoopClient) next() {
	now := cl.c.Sim.Now()
	if now >= cl.stopAt {
		return
	}
	cl.seq++
	key := fmt.Sprintf("k%d", (cl.id*7+cl.seq)%8)
	readOnly := cl.seq%3 == 0
	// The recorded input is the key-free register op (regModel's shape);
	// the wire payload carries the key for routing and service dispatch.
	var input, payload []byte
	if readOnly {
		input = []byte("r")
		payload = kregPayload(false, key, nil)
	} else {
		val := []byte(fmt.Sprintf("c%d-%d", cl.id, cl.seq))
		input = append([]byte("w"), val...)
		payload = kregPayload(true, key, val)
	}
	id, dgs := cl.r2.NewRequest(policyFor(readOnly), payload)
	r2p2.StampGroup(dgs, uint8(cl.router.Route([]byte(key))))
	cl.curReq = id.ReqID
	cl.history = append(cl.history, linearize.Op{
		ClientID: cl.id, Input: input, Call: now, Pending: true,
	})
	cl.keys = append(cl.keys, key)
	cl.curIdx = len(cl.history) - 1
	for _, dg := range dgs {
		cl.host.Send(&simnet.Packet{Dst: cl.c.ServiceAddr, Payload: dg})
	}
	idx := cl.curIdx
	cl.c.Sim.After(cl.opTimeout, func() {
		if cl.curIdx == idx && cl.history[idx].Pending {
			cl.curIdx = -1
			cl.next()
		}
	})
}

func (cl *shardLoopClient) onPacket(pkt *simnet.Packet) {
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

func runShardLinearizabilityScenario(t *testing.T, seed int64, failover bool) {
	t.Helper()
	c := New(Options{
		Setup: SetupHovercraft, Groups: 4, Nodes: 6, Replication: 3, Seed: seed,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &kregService{m: make(map[string][]byte)}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	router := shard.NewRouter(c.Map, nil)
	const horizon = 150 * time.Millisecond
	var clients []*shardLoopClient
	for i := 0; i < 4; i++ {
		clients = append(clients, newShardLoopClient(c, router, i, horizon))
	}
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	if failover {
		// Crash group 0's leader. With the overlapping 6-node placement it
		// is also a follower of another group, so one group fails over
		// while another loses a replica — both must stay linearizable.
		c.Sim.After(60*time.Millisecond, func() {
			if lead := c.LeaderOf(0); lead != nil {
				lead.Crash()
			}
		})
	}
	c.Run(horizon + 50*time.Millisecond)

	// Ops on different keys live on different groups with no cross-group
	// order, so the per-key histories are the linearizability unit (each
	// key is one register on exactly one group).
	histories := make(map[string][]linearize.Op)
	completed := 0
	for _, cl := range clients {
		for i, op := range cl.history {
			histories[cl.keys[i]] = append(histories[cl.keys[i]], op)
			if !op.Pending {
				completed++
			}
		}
	}
	if completed < 100 {
		t.Fatalf("only %d completed ops (history too thin to be meaningful)", completed)
	}
	groupsHit := make(map[shard.GroupID]bool)
	for key, h := range histories {
		groupsHit[c.Map.GroupFor([]byte(key))] = true
		if !linearize.Check(regModel{}, h) {
			t.Fatalf("seed %d: history for key %q (%d ops) is NOT linearizable", seed, key, len(h))
		}
	}
	if len(groupsHit) < 2 {
		t.Fatalf("keyspace exercised only %d groups — not a sharding test", len(groupsHit))
	}
}

func TestShardedClusterHistoryIsLinearizable(t *testing.T) {
	for seed := int64(21); seed <= 22; seed++ {
		runShardLinearizabilityScenario(t, seed, false)
	}
}

func TestShardedClusterHistoryIsLinearizableAcrossGroupFailover(t *testing.T) {
	for seed := int64(23); seed <= 24; seed++ {
		runShardLinearizabilityScenario(t, seed, true)
	}
}
