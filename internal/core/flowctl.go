package core

import (
	"time"

	"hovercraft/internal/r2p2"
)

// FlowControl is the multicast flow-control middlebox of §6.3: clients
// address the service through it; it rewrites the destination to the
// cluster's multicast group while capping the number of requests in the
// system. Above the cap it NACKs new requests, preventing the throughput
// collapse that uncoordinated multicast drops would cause. Nodes send one
// FEEDBACK per client reply to decrement the counter.
//
// The paper runs this on the same Tofino switch as the aggregator; here
// it is a packet-level step machine wrapped by the simulator (and usable
// in front of a UDP deployment).
//
// A real switch tracks only a counter; to stay robust against feedback
// loss (e.g. a replier dying after the request was admitted), this
// implementation remembers admitted requests by (src_port, req_id) with a
// deadline and garbage-collects leaks — behaviorally a slow counter
// reset. Client endpoints own their (ip, port) space, and ports are
// assigned uniquely per client in both runtimes, so the key is unique
// within the in-flight window.
type FlowControl struct {
	// Limit caps requests in flight through the cluster. Fixed by
	// default; the adaptive admission controller resizes it via SetLimit
	// each control tick.
	Limit int
	// Timeout reclaims the slot of a request whose feedback never came.
	Timeout time.Duration
	// NackHint, when nonzero, rides as the retry-after payload byte on
	// every NACK this middlebox sheds (r2p2.EncodeRetryAfter units).
	// Zero keeps the classic empty NACK. Written by the admission
	// controller's tick, read by HandleDatagram — both run in the one
	// execution context that owns this FlowControl (the middlebox
	// host's goroutine in the simulator; the node's socket loop for
	// leader-side admission over UDP). Like every other field here,
	// it is single-owner state: only the controller's *outputs*
	// (window size, hint) are atomics, read by the owner each tick.
	NackHint byte

	inflight map[fcKey]time.Duration

	// Counters.
	Admitted uint64
	Nacked   uint64
	Leaked   uint64
}

type fcKey struct {
	port uint16
	req  uint32
}

// NewFlowControl creates a middlebox admitting up to limit requests.
func NewFlowControl(limit int, timeout time.Duration) *FlowControl {
	return &FlowControl{
		Limit:    limit,
		Timeout:  timeout,
		inflight: make(map[fcKey]time.Duration),
	}
}

// InFlight returns the current number of admitted requests.
func (f *FlowControl) InFlight() int { return len(f.inflight) }

// SetLimit resizes the admit window. Shrinking below the current
// occupancy does not evict admitted requests; it only stops admitting
// new ones until feedback drains the excess.
func (f *FlowControl) SetLimit(n int) {
	if n > 0 {
		f.Limit = n
	}
}

// Admit is the message-level admission entry for runtimes without a
// packet middlebox (the UDP leader admits at HandleMessage time). It
// records the request in flight if the window allows and returns false
// when it must be shed. A retransmit of an already-admitted request is
// always admitted — its slot is already charged, and shedding it would
// deadlock the client against its own window slot.
func (f *FlowControl) Admit(port uint16, req uint32, now time.Duration) bool {
	key := fcKey{port: port, req: req}
	if _, ok := f.inflight[key]; ok {
		return true
	}
	if len(f.inflight) >= f.Limit {
		f.Nacked++
		return false
	}
	f.inflight[key] = now + f.Timeout
	f.Admitted++
	return true
}

// Release frees one admitted slot — the message-level equivalent of a
// FEEDBACK datagram.
func (f *FlowControl) Release(port uint16, req uint32) {
	delete(f.inflight, fcKey{port: port, req: req})
}

// Verdict is the middlebox's decision for one datagram.
type Verdict uint8

const (
	// VerdictForward sends the datagram on to the multicast group.
	VerdictForward Verdict = iota
	// VerdictNack rejects it; the Nack datagram goes back to the client.
	VerdictNack
	// VerdictConsume absorbs the datagram (feedback).
	VerdictConsume
)

// HandleDatagram inspects one datagram arriving from srcIP at time now
// and returns the action plus, for VerdictNack, the NACK to send back.
func (f *FlowControl) HandleDatagram(dg []byte, srcIP uint32, now time.Duration) (Verdict, []byte) {
	var h r2p2.Header
	if err := h.Unmarshal(dg); err != nil {
		return VerdictConsume, nil
	}
	key := fcKey{port: h.SrcPort, req: h.ReqID}
	switch h.Type {
	case r2p2.TypeFeedback:
		// Replies completed: free their slots. The feedback carries the
		// original requests' (port, req_id) even though it is sent by
		// the replying server. Nodes coalesce: the header names one
		// request, the payload carries any further ones as records.
		delete(f.inflight, key)
		payload := dg[r2p2.HeaderSize:]
		for i := 0; i < r2p2.FeedbackRecordCount(payload); i++ {
			port, req := r2p2.FeedbackRecordAt(payload, i)
			delete(f.inflight, fcKey{port: port, req: req})
		}
		return VerdictConsume, nil
	case r2p2.TypeRequest:
		if h.Flags&r2p2.FlagFirst == 0 {
			// Continuation fragment of an admitted request.
			return VerdictForward, nil
		}
		if _, ok := f.inflight[key]; ok {
			// Retransmit of an admitted request: its slot is already
			// charged, and shedding it would deadlock the client against
			// its own window slot.
			return VerdictForward, nil
		}
		if len(f.inflight) >= f.Limit {
			f.Nacked++
			return VerdictNack, r2p2.MakeNackHint(r2p2.IDOf(&h, srcIP), f.NackHint)
		}
		f.inflight[key] = now + f.Timeout
		f.Admitted++
		return VerdictForward, nil
	default:
		// Not client traffic; pass through untouched.
		return VerdictForward, nil
	}
}

// GC reclaims slots whose feedback never arrived (lost replies after a
// replier failure — bounded by B per failed node, §3.4).
func (f *FlowControl) GC(now time.Duration) int {
	n := 0
	for id, dl := range f.inflight {
		if now >= dl {
			delete(f.inflight, id)
			n++
		}
	}
	f.Leaked += uint64(n)
	return n
}
