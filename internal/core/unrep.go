package core

import (
	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/stats"
	"hovercraft/internal/wire"
)

// UnreplicatedEngine is the paper's UnRep baseline: a plain R2P2 server
// with no fault tolerance. Client requests are executed in arrival order
// on the application thread and answered directly. It shares the
// Transport/AppRunner contracts with Engine so the runtimes treat both
// uniformly.
type UnreplicatedEngine struct {
	transport Transport
	runner    AppRunner
	counters  *stats.CounterSet
	obs       *obs.Obs

	queue []r2p2.Msg
	busy  bool

	// dedup gives the baseline the same exactly-once retry contract as
	// the replicated engines: a retransmitted write is answered from the
	// cache instead of re-executed.
	dedup *DedupCache

	dgScratch []*wire.Buf
}

// sendResponse builds a pooled response and hands it to the transport.
func (e *UnreplicatedEngine) sendResponse(id r2p2.RequestID, reply []byte) {
	e.dgScratch = r2p2.AppendResponseBufs(e.dgScratch[:0], id, reply, 0)
	e.transport.SendToClient(id, e.dgScratch)
}

// NewUnreplicatedEngine builds the baseline server.
func NewUnreplicatedEngine(transport Transport, runner AppRunner) *UnreplicatedEngine {
	return &UnreplicatedEngine{
		transport: transport,
		runner:    runner,
		counters:  stats.NewCounterSet(),
		dedup:     NewDedupCache(dedupWindow),
	}
}

// Counters exposes message counters.
func (e *UnreplicatedEngine) Counters() *stats.CounterSet { return e.counters }

// SetObs attaches a tracer (nil disables tracing).
func (e *UnreplicatedEngine) SetObs(o *obs.Obs) { e.obs = o }

// Tick is a no-op (kept for interface symmetry with Engine).
func (e *UnreplicatedEngine) Tick() {}

// HandleMessage serves one client request.
func (e *UnreplicatedEngine) HandleMessage(m *r2p2.Msg) {
	if m.Type != r2p2.TypeRequest {
		e.counters.Get("rx_unexpected").Inc()
		return
	}
	e.counters.Get("rx_req").Inc()
	if !m.IsReadOnly() {
		if reply, _, hasReply, ok := e.dedup.Lookup(m.ID); ok {
			// Retransmitted write: answer from the cache (or stay
			// silent while the original is still queued/executing).
			e.counters.Get("rx_req_dup").Inc()
			if hasReply {
				e.counters.Get("tx_dup_reply").Inc()
				e.sendResponse(m.ID, reply)
			}
			return
		}
		e.dedup.Record(m.ID, nil, 0)
	}
	// UnRep has no ordering or replication work: stamp those stages at
	// ingest so its decomposition shows order=replicate=0 and the
	// apply_queue segment isolates app-thread queueing.
	e.obs.Stage(m.ID, obs.StageLeaderRx)
	e.obs.Stage(m.ID, obs.StageAppend)
	e.obs.Stage(m.ID, obs.StageCommit)
	e.queue = append(e.queue, *m)
	e.pump()
}

// pump runs queued requests one at a time on the app thread.
func (e *UnreplicatedEngine) pump() {
	if e.busy || len(e.queue) == 0 {
		return
	}
	m := e.queue[0]
	e.queue = e.queue[1:]
	e.busy = true
	e.obs.Stage(m.ID, obs.StageApplyStart)
	e.runner.Run(m.Payload, m.IsReadOnly(), func(reply []byte) {
		e.busy = false
		e.obs.Stage(m.ID, obs.StageApplyDone)
		if !m.IsReadOnly() {
			r := reply
			if r == nil {
				r = []byte{}
			}
			e.dedup.Record(m.ID, r, 0)
		}
		e.counters.Get("tx_resp").Inc()
		e.sendResponse(m.ID, reply)
		e.pump()
	})
}

// QueueLen reports the number of requests waiting for the app thread.
func (e *UnreplicatedEngine) QueueLen() int { return len(e.queue) }
