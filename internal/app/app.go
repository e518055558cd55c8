// Package app defines the application-side contracts of HovercRaft and
// the synthetic microbenchmark service used throughout the paper's
// evaluation (§7): a service with configurable CPU service time, request
// size, and reply size, letting experiments exercise CPU and I/O
// bottlenecks independently.
package app

import (
	"encoding/binary"
	"time"
)

// Service is a deterministic request/response application. HovercRaft
// makes any such service fault-tolerant with no code changes: Execute is
// invoked with totally ordered requests on every replica (read-only
// requests only on the designated replier).
//
// Determinism requirement: for the same sequence of non-read-only
// payloads, every replica must produce the same state (replies may be
// consumed by different clients but must also be deterministic).
//
// Execution contract: calls are serialized per replica. On the UDP
// plane Execute runs inline on the node's owner loop (transport.Server),
// so it must be short and must not block — the loop neither ingests nor
// sends while it runs. The simulator instead charges the CostModel's
// time to a modelled application thread.
type Service interface {
	// Execute runs one request and returns the reply payload.
	Execute(payload []byte, readOnly bool) []byte
}

// CostModel optionally reports the CPU cost of a request so the
// discrete-event simulator can charge the application thread. Real
// deployments ignore it (the real CPU does the charging).
type CostModel interface {
	// Cost returns the service time of executing payload.
	Cost(payload []byte, readOnly bool) time.Duration
}

// synthHeader is the layout of a synthetic request: the client encodes
// the service time and reply size it wants; the body is padding to reach
// the experiment's request size.
const synthHeader = 12

// SynthRequest builds a synthetic request payload: execute for svcTime,
// reply with replySize bytes, total request payload exactly reqSize bytes
// (minimum synthHeader).
func SynthRequest(svcTime time.Duration, replySize, reqSize int) []byte {
	if reqSize < synthHeader {
		reqSize = synthHeader
	}
	p := make([]byte, reqSize)
	binary.BigEndian.PutUint64(p[0:8], uint64(svcTime))
	binary.BigEndian.PutUint32(p[8:12], uint32(replySize))
	return p
}

// SynthService is the paper's synthetic service: it "computes" for the
// requested service time (charged by the simulator via the CostModel)
// and produces a reply of the requested size.
type SynthService struct {
	// Executed counts operations run on this replica.
	Executed uint64
	// zero-filled reply buffer reused across calls.
	reply []byte
}

var _ Service = (*SynthService)(nil)
var _ CostModel = (*SynthService)(nil)

// Execute implements Service.
func (s *SynthService) Execute(payload []byte, readOnly bool) []byte {
	s.Executed++
	size := 8
	if len(payload) >= synthHeader {
		size = int(binary.BigEndian.Uint32(payload[8:12]))
	}
	if size < 1 {
		size = 1
	}
	if cap(s.reply) < size {
		s.reply = make([]byte, size)
	}
	return s.reply[:size]
}

// Cost implements CostModel.
func (s *SynthService) Cost(payload []byte, readOnly bool) time.Duration {
	if len(payload) < synthHeader {
		return 0
	}
	return time.Duration(binary.BigEndian.Uint64(payload[0:8]))
}

// FixedCost wraps any service with a constant service time for the
// simulator.
type FixedCost struct {
	Service
	PerOp time.Duration
}

// Cost implements CostModel.
func (f FixedCost) Cost(payload []byte, readOnly bool) time.Duration { return f.PerOp }
