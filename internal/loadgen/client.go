package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/shard"
	"hovercraft/internal/simnet"
	"hovercraft/internal/stats"
)

// swarmPortsPerHost caps endpoints per simulated host: each endpoint is
// one R2P2 (ip, port) identity, so a host carries a slab of the 16-bit
// port space and a larger client population spreads across hosts.
const swarmPortsPerHost = 16384

// ClientConfig parameterizes one simulated load generator.
type ClientConfig struct {
	// Clients is the number of simulated endpoints (default 1), spread
	// over hosts of swarmPortsPerHost ports each. Each gets its own R2P2
	// identity, so the flow-control middlebox and the servers' dedup
	// caches see a realistic client population. One aggregate arrival
	// process drives them all: superposing per-client Poisson processes
	// is exact, so 10⁵ clients cost what their in-flight requests cost.
	Clients int
	// Rate is the aggregate offered load in requests/second (open loop:
	// arrivals are Poisson and do not wait for responses).
	Rate float64
	// RateFn, when non-nil, makes the offered load time-varying: sampled
	// at every arrival, a positive value overrides Rate (diurnal ramps,
	// flash crowds, retry storms).
	RateFn func(now time.Duration) float64
	// Warmup is excluded from measurement; Duration is the measurement
	// window. The client stops offering load at Warmup+Duration.
	Warmup   time.Duration
	Duration time.Duration
	// Timeout expires an unanswered request attempt (default 10ms). With
	// Retries == 0 an expired request is counted lost; with Retries > 0
	// it is retransmitted first (see below).
	Timeout time.Duration
	// Retries is the per-request retransmission budget. A retransmission
	// reuses the original R2P2 request ID — the server-side dedup cache
	// keys on it — so a retried write applies exactly once even when the
	// retry lands on a new leader after failover.
	Retries int
	// RetryBackoff delays the first retransmission; each subsequent one
	// doubles it (exponential backoff). Defaults to Timeout.
	RetryBackoff time.Duration
	// Workload generates request payloads and policies.
	Workload Workload
	// Target is where requests are sent (middlebox, leader, or server).
	Target simnet.Addr
	// Port is the first endpoint port on each host (default 1000).
	Port uint16
	// SampleEvery, if nonzero, records a throughput/latency time series
	// (for the failure experiment, Fig. 12).
	SampleEvery time.Duration
	// Obs, if non-nil, stamps the client-side lifecycle stages (send and
	// receive) so the tracer can close each request's end-to-end span.
	Obs *obs.Obs
	// OnComplete, if non-nil, is invoked once per answered request with
	// its raw payload (duplicate responses are suppressed first).
	// Failure experiments use it to audit acked operations against the
	// final replicated state: every acked op must be applied, exactly
	// once.
	OnComplete func(payload []byte)
	// ReadTargets, when non-empty, routes PolicyLinRead requests
	// point-to-point to these replica addresses round-robin instead of
	// Target — the read scale-out path: reads bypass the middlebox and
	// its request multicast and land on one replica that serves them
	// locally. A NACKed lin-read retries against the next replica
	// immediately, with no backoff sleep: a read NACK is a redirect
	// ("I can't serve this read"), not an overload signal.
	ReadTargets []simnet.Addr
	// Router, when non-nil, makes the client shard-aware: the Workload
	// must implement KeyedWorkload, requests are stamped with the group
	// owning their key, results are broken down per shard, and a
	// GroupInvalid NACK triggers a map refresh plus one re-routed retry.
	Router *shard.Router
}

type pendingReq struct {
	// id is the full request identity. Responses carry the replier's
	// address in their ID, so the original must be kept for obs lookups.
	id r2p2.RequestID
	// sentAt is the latest transmission time (see Client on latency).
	sentAt time.Duration
	inMeas bool

	// Sharded-mode state: the routed group (-1 when unsharded), the
	// routing key and raw request, kept so a stale-map redirect can
	// re-route and re-send, and whether this op already was redirected.
	group      int
	key        []byte
	raw        []byte
	policy     r2p2.Policy
	redirected bool

	// attempt counts transmissions so far (1 after the first send);
	// retransmissions reuse id and back off exponentially. Deadlines
	// carry the attempt they were armed for and fire as no-ops once the
	// request completed or moved on to a later attempt.
	attempt int

	// readTgt indexes ReadTargets (mod len) for lin-reads; each
	// retransmission rotates to the next replica.
	readTgt int
}

// clientHost is one simulated host carrying a slab of endpoints: its own
// reassembler, pending table and duplicate-response window. Request IDs
// come from a host-wide counter, so they are unique within the host
// across all its endpoint ports and key the pending table alone.
type clientHost struct {
	host    *simnet.Host
	reasm   *r2p2.Reassembler
	nextReq uint32
	pending map[uint32]pendingReq
	// done remembers recently completed/nacked request IDs so a second
	// copy of a response (reply-from-cache plus the original, or network
	// duplication) is counted as a suppressed duplicate rather than
	// silently ignored as unknown.
	done *ringSet
}

// Client is the open-loop Poisson load generator (Lancet-style) every
// simulated experiment drives: one aggregate arrival loop fanned out over
// cfg.Clients endpoints, with all measurement state shared.
//
// Each transmission arms its own deadline, so an attempt expires exactly
// Timeout (or its backoff delay, with retries) after it was sent.
// Latency is measured from a request's latest transmission to the
// response's arrival at the NIC handler (hardware-timestamp-style,
// before any client-side queueing): it is the response time of the
// attempt that was admitted and answered. Time spent backing off after a
// NACK or an expiry is reported through NackRate, LossRate and Retries,
// not folded into the admitted tail.
type Client struct {
	cfg   ClientConfig
	sim   *simnet.Sim
	rng   *rand.Rand
	hosts []*clientHost
	// arrive and fire are c.arrival and c.fireExpiries bound once, so
	// the per-request timers allocate no closure.
	arrive, fire func()
	// expiries holds every armed attempt deadline. One simulator timer
	// at the earliest deadline (armedAt) stands in for them all, which
	// keeps the simulator's event heap the size of the packet pipeline.
	expiries  expiryHeap
	expirySeq uint64
	armedAt   time.Duration

	// Measurement.
	Latency *stats.Histogram
	// ReadLatency/WriteLatency split Latency by request class (read-only
	// vs replicated write), so read-scale experiments can gate the write
	// tail separately from the read fast path.
	ReadLatency     *stats.Histogram
	WriteLatency    *stats.Histogram
	CompletedReads  uint64 // read-class completions in the window
	CompletedWrites uint64 // write-class completions in the window
	Sent            uint64 // requests sent in the measurement window
	Completed       uint64 // responses for measurement-window requests
	Nacked          uint64 // flow-control rejections (window)
	Expired         uint64 // requests abandoned after exhausting retries (window)
	Redirected      uint64 // stale-shard-map redirects retried (whole run)
	// ReadRedirects counts NACKed lin-reads retried immediately against
	// another replica (whole run).
	ReadRedirects uint64

	// Retry accounting (whole run — retries cluster around failures,
	// which rarely align with the measurement window).
	Retries        uint64 // retransmissions sent or scheduled
	DupsSuppressed uint64 // duplicate responses dropped client-side

	shards []*ShardStat // per-group breakdown (sharded mode only)

	// nextRead spreads lin-reads round-robin across ReadTargets.
	nextRead int

	// Optional time series (all samples, including warmup).
	Throughput stats.Series // completed/s per interval
	TailP99    stats.Series // p99 per interval (ms)

	intervalHist      *stats.Histogram
	intervalCompleted uint64
	stopped           bool
}

// NewClient attaches a generator of cfg.Clients endpoints to the
// network: one host named name, or ceil(Clients/16384) hosts named
// <name>-<i> for a larger population.
func NewClient(net *simnet.Network, name string, hostCfg simnet.HostConfig, cfg ClientConfig) *Client {
	cfg.Clients = max(cfg.Clients, 1)
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Millisecond
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = cfg.Timeout
	}
	if cfg.Port == 0 {
		cfg.Port = 1000
	}
	c := &Client{
		cfg:          cfg,
		sim:          net.Sim(),
		rng:          net.Sim().Rand(),
		Latency:      stats.NewHistogram(),
		ReadLatency:  stats.NewHistogram(),
		WriteLatency: stats.NewHistogram(),
		intervalHist: stats.NewHistogram(),
	}
	c.arrive, c.fire = c.arrival, c.fireExpiries
	nHosts := (cfg.Clients + swarmPortsPerHost - 1) / swarmPortsPerHost
	for i := 0; i < nHosts; i++ {
		hostName := name
		if nHosts > 1 {
			hostName = fmt.Sprintf("%s-%d", name, i)
		}
		h := &clientHost{
			host:    net.NewHost(hostName, hostCfg),
			reasm:   r2p2.NewReassembler(cfg.Timeout),
			pending: make(map[uint32]pendingReq),
			done:    newRingSet(1 << 16),
		}
		h.host.SetHandler(func(pkt *simnet.Packet) { c.onPacket(h, pkt) })
		c.hosts = append(c.hosts, h)
	}
	return c
}

// Start begins offering load.
func (c *Client) Start() {
	c.scheduleNext()
	c.sim.After(c.cfg.Timeout/2, c.gcTick)
	if c.cfg.SampleEvery > 0 {
		c.sim.After(c.cfg.SampleEvery, c.sampleTick)
	}
}

// Stop ceases load generation (in-flight retries still drain).
func (c *Client) Stop() { c.stopped = true }

func (c *Client) end() time.Duration { return c.cfg.Warmup + c.cfg.Duration }

func (c *Client) rate() float64 {
	if c.cfg.RateFn != nil {
		if r := c.cfg.RateFn(c.sim.Now()); r > 0 {
			return r
		}
	}
	return c.cfg.Rate
}

func (c *Client) scheduleNext() {
	if c.stopped {
		return
	}
	// Poisson arrivals: exponential interarrival at rate λ.
	gap := time.Duration(c.rng.ExpFloat64() / c.rate() * float64(time.Second))
	c.sim.After(gap, c.arrive)
}

func (c *Client) arrival() {
	if c.stopped || c.sim.Now() >= c.end() {
		return
	}
	c.sendOne()
	c.scheduleNext()
}

func (c *Client) sendOne() {
	h, port := c.hosts[0], c.cfg.Port
	if c.cfg.Clients > 1 {
		// Pick the originating endpoint uniformly: exact thinning of the
		// aggregate Poisson process back into per-client processes.
		n := c.rng.Intn(c.cfg.Clients)
		h, port = c.hosts[n/swarmPortsPerHost], c.cfg.Port+uint16(n%swarmPortsPerHost)
	}
	req := pendingReq{group: -1}
	req.id = r2p2.RequestID{SrcIP: uint32(h.host.Addr()), SrcPort: port}
	if c.cfg.Router != nil {
		kw, ok := c.cfg.Workload.(KeyedWorkload)
		if !ok {
			panic("loadgen: Router configured but Workload is not a KeyedWorkload")
		}
		req.key, req.raw, req.policy = kw.NextKeyed(c.rng)
		req.group = int(c.cfg.Router.Route(req.key))
	} else {
		req.raw, req.policy = c.cfg.Workload.Next(c.rng)
	}
	if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
		if c.cfg.Router != nil {
			// Shard-aware clients share the router's rotation so reads
			// from every client interleave across the replica set.
			req.readTgt = c.cfg.Router.ReadReplica(len(c.cfg.ReadTargets))
		} else {
			req.readTgt = c.nextRead
			c.nextRead++
		}
	}
	req.inMeas = c.sim.Now() >= c.cfg.Warmup
	if req.inMeas {
		c.Sent++
		if req.group >= 0 {
			c.shardStat(req.group).Sent++
		}
	}
	c.send(h, req)
}

// send transmits req (first send or redirect re-send) under a fresh
// request ID from h's counter; req.group selects the group stamp on the
// wire.
func (c *Client) send(h *clientHost, req pendingReq) {
	h.nextReq++
	req.id.ReqID = h.nextReq
	req.attempt = 1
	c.cfg.Obs.Stage(req.id, obs.StageClientSend)
	c.transmit(h, req)
}

// nextAttempt advances req to its next transmission, which reuses its
// original request ID — the 3-tuple the server-side dedup cache keys on,
// so the retried write applies exactly once even if both copies commit
// (e.g. across a failover). The bump also voids the previous attempt's
// deadline.
func (c *Client) nextAttempt(req *pendingReq) {
	req.attempt++
	c.Retries++
	if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
		req.readTgt++ // rotate: the replica that failed us is skipped
	}
}

// transmit stamps, registers, and puts req's datagrams on the wire, and
// arms the expiry timer for its current attempt.
func (c *Client) transmit(h *clientHost, req pendingReq) {
	if req.attempt > 1 && c.cfg.Obs.Active() {
		c.cfg.Obs.Emitf("client", "retransmit", "id=%v attempt=%d", req.id, req.attempt)
	}
	req.sentAt = c.sim.Now()
	dgs := r2p2.MakeMsg(r2p2.TypeRequest, req.policy, req.id.SrcPort, req.id.ReqID, req.raw, 0)
	if req.group >= 0 {
		r2p2.StampGroup(dgs, uint8(req.group))
	}
	dst := c.cfg.Target
	if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
		dst = c.cfg.ReadTargets[req.readTgt%len(c.cfg.ReadTargets)]
	}
	h.pending[req.id.ReqID] = req
	c.armExpiry(h, req.id.ReqID, req.attempt)
	for _, dg := range dgs {
		h.host.Send(&simnet.Packet{Dst: dst, Payload: dg})
	}
}

// armExpiry arms attempt att's deadline: its backoff delay from now.
func (c *Client) armExpiry(h *clientHost, reqID uint32, att int) {
	at := c.sim.Now() + c.backoff(att)
	c.expirySeq++
	c.expiries.push(expiry{at: at, seq: c.expirySeq, h: h, reqID: reqID, attempt: att})
	if c.armedAt == 0 || at < c.armedAt {
		c.armedAt = at
		c.sim.At(at, c.fire)
	}
}

// fireExpiries runs every attempt deadline that has come due, in
// (deadline, arming) order, then re-arms the simulator timer for the
// next one. A timer superseded by an earlier deadline still fires, and
// finds nothing due.
func (c *Client) fireExpiries() {
	now := c.sim.Now()
	if now == c.armedAt {
		c.armedAt = 0
	}
	for len(c.expiries) > 0 && c.expiries[0].at <= now {
		e := c.expiries.pop()
		c.expire(e.h, e.reqID, e.attempt)
	}
	if len(c.expiries) > 0 && (c.armedAt == 0 || c.expiries[0].at < c.armedAt) {
		c.armedAt = c.expiries[0].at
		c.sim.At(c.armedAt, c.fire)
	}
}

// expire fires attempt att's deadline: a no-op if the request completed or
// moved on to a later attempt, else a retransmission while the budget
// lasts, else the op is lost.
func (c *Client) expire(h *clientHost, reqID uint32, att int) {
	req, ok := h.pending[reqID]
	if !ok || req.attempt != att {
		return
	}
	if req.attempt <= c.cfg.Retries {
		c.nextAttempt(&req)
		c.transmit(h, req)
		return
	}
	// Retry budget exhausted (or retries disabled): the op is lost. An
	// obs event marks it so failure experiments can correlate losses
	// with the fault timeline.
	delete(h.pending, reqID)
	if c.cfg.Obs.Active() {
		c.cfg.Obs.Emitf("client", "expire", "id=%v attempts=%d", req.id, req.attempt)
	}
	c.cfg.Obs.Abandon(req.id)
	if req.inMeas {
		c.Expired++
		if req.group >= 0 {
			c.shardStat(req.group).Expired++
		}
	}
}

// backoffBase returns attempt's exponential backoff window (1-based):
// RetryBackoff doubling per transmission.
func (c *Client) backoffBase(attempt int) time.Duration {
	d := c.cfg.RetryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// backoff returns attempt's expiry delay: a flat Timeout when retries
// are disabled, else the exponential window with full jitter over its
// upper half — drawn uniformly from [d/2, d] by the seeded rng, so the
// retry herd a shared fault creates desynchronizes (fixed seeds stay
// deterministic under virtual time), while the d/2 floor keeps an
// attempt from expiring before the cluster could plausibly answer.
func (c *Client) backoff(attempt int) time.Duration {
	if c.cfg.Retries == 0 {
		return c.cfg.Timeout
	}
	d := c.backoffBase(attempt)
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// retryDelay is the wait before re-offering a NACKed request: at least
// the admission middlebox's retry-after hint, plus full jitter drawn
// from the attempt's backoff window ([0, d]) so the cohort one NACK
// burst shed does not storm back in lockstep.
func (c *Client) retryDelay(attempt int, hint time.Duration) time.Duration {
	d := c.backoffBase(attempt)
	return hint + time.Duration(c.rng.Int63n(int64(d)+1))
}

// shardStat returns (growing on demand) the breakdown slot for group g.
func (c *Client) shardStat(g int) *ShardStat {
	for len(c.shards) <= g {
		c.shards = append(c.shards, &ShardStat{
			Group:   len(c.shards),
			Latency: stats.NewHistogram(),
		})
	}
	return c.shards[g]
}

// ShardStats returns the per-group breakdown (nil when unsharded).
func (c *Client) ShardStats() []*ShardStat { return c.shards }

// take removes reqID's pending entry; an unknown ID that was already
// answered is a second copy of the response (the cached-reply resend
// racing the original, or network duplication). Any other unknown ID is
// a post-expiry response, already counted lost.
func (c *Client) take(h *clientHost, reqID uint32) (pendingReq, bool) {
	req, ok := h.pending[reqID]
	if !ok {
		if h.done.has(reqID) {
			c.DupsSuppressed++
		}
		return req, false
	}
	delete(h.pending, reqID)
	return req, true
}

func (c *Client) onPacket(h *clientHost, pkt *simnet.Packet) {
	m, err := h.reasm.Ingest(pkt.Payload, uint32(pkt.Src), c.sim.Now())
	if err != nil || m == nil {
		return
	}
	switch m.Type {
	case r2p2.TypeResponse:
		req, ok := c.take(h, m.ID.ReqID)
		if !ok {
			return
		}
		h.done.add(m.ID.ReqID)
		if c.cfg.OnComplete != nil {
			c.cfg.OnComplete(req.raw)
		}
		c.cfg.Obs.Stage(req.id, obs.StageClientRecv)
		lat := c.sim.Now() - req.sentAt
		c.intervalCompleted++
		c.intervalHist.RecordDuration(lat)
		if req.inMeas {
			c.Completed++
			c.Latency.RecordDuration(lat)
			if readClass(req.policy) {
				c.CompletedReads++
				c.ReadLatency.RecordDuration(lat)
			} else {
				c.CompletedWrites++
				c.WriteLatency.RecordDuration(lat)
			}
			if req.group >= 0 {
				st := c.shardStat(req.group)
				st.Completed++
				st.Latency.RecordDuration(lat)
			}
		}
	case r2p2.TypeNack:
		req, ok := c.take(h, m.ID.ReqID)
		if !ok {
			return
		}
		if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
			// A lin-read NACK is a redirect, not an overload shed: the
			// replica cannot serve this read (no lease machinery, lagging
			// applied index, mid-election). Retry against the next
			// replica immediately — no retry-after hint, no jitter sleep.
			if req.attempt <= c.cfg.Retries {
				c.ReadRedirects++
				c.nextAttempt(&req)
				c.transmit(h, req)
				return
			}
			if req.inMeas {
				c.Nacked++
			}
			h.done.add(m.ID.ReqID)
			c.cfg.Obs.Abandon(req.id)
			return
		}
		if m.Group == r2p2.GroupInvalid && c.cfg.Router != nil && !req.redirected && c.cfg.Router.OnRedirect() {
			// The receiver does not serve the group we routed to: our
			// shard map was stale and is now refreshed. Re-route the op
			// once under a fresh request ID, so the old one is terminal
			// (its trace span too). Counted for the whole run, not just
			// the window: redirects cluster at startup (first stale
			// routes), before warmup ends.
			h.done.add(m.ID.ReqID)
			c.cfg.Obs.Abandon(req.id)
			c.Redirected++
			if req.group >= 0 {
				c.shardStat(req.group).Redirected++
			}
			req.redirected = true
			req.group = int(c.cfg.Router.Route(req.key))
			c.send(h, req)
			return
		}
		// Flow-control rejection: the admission middlebox shed the request
		// before it reached the cluster. Always counted (NackRate is the
		// rejection rate, not the op-failure rate: a retried-and-answered
		// request appears in both Nacked and Completed).
		if req.inMeas {
			c.Nacked++
			if req.group >= 0 {
				c.shardStat(req.group).Nacked++
			}
		}
		if req.attempt <= c.cfg.Retries {
			// Re-offer after the NACK's retry-after hint (zero for a
			// legacy empty NACK) plus jitter, reusing the request ID so
			// the server-side dedup cache keeps the op exactly-once even
			// if an earlier copy was admitted after all.
			delay := c.retryDelay(req.attempt, r2p2.NackRetryAfter(m.Payload))
			c.nextAttempt(&req)
			c.sim.After(delay, func() { c.transmit(h, req) })
			return
		}
		// Terminal: budget exhausted (or retries disabled). Already counted
		// in Nacked above; LossRate stays post-admission loss only.
		h.done.add(m.ID.ReqID)
		c.cfg.Obs.Abandon(req.id)
	}
}

// gcTick sweeps the reassemblers' stale partial messages until the run
// has drained.
func (c *Client) gcTick() {
	inFlight := 0
	for _, h := range c.hosts {
		h.reasm.GC(c.sim.Now())
		inFlight += len(h.pending)
	}
	if c.sim.Now() < c.end()+c.cfg.Timeout || inFlight > 0 {
		c.sim.After(c.cfg.Timeout/2, c.gcTick)
	}
}

func (c *Client) sampleTick() {
	secs := c.cfg.SampleEvery.Seconds()
	c.Throughput.Add(c.sim.Now(), float64(c.intervalCompleted)/secs)
	c.TailP99.Add(c.sim.Now(), float64(c.intervalHist.P99())/1e6) // ms
	c.intervalCompleted = 0
	c.intervalHist.Reset()
	if c.sim.Now() < c.end() {
		c.sim.After(c.cfg.SampleEvery, c.sampleTick)
	}
}

// DiurnalRate returns a time-varying offered load sweeping sinusoidally
// between low and high once per period — the datacenter diurnal curve
// compressed to simulation time. The ramp starts at low.
func DiurnalRate(low, high float64, period time.Duration) func(time.Duration) float64 {
	mid := (low + high) / 2
	amp := (high - low) / 2
	return func(now time.Duration) float64 {
		phase := 2 * math.Pi * float64(now) / float64(period)
		return mid - amp*math.Cos(phase)
	}
}

// Result summarizes a finished run.
type Result struct {
	Offered  float64 // requests/s offered in the window
	Achieved float64 // responses/s achieved
	NackRate float64 // NACKs/s
	LossRate float64 // abandoned ops/s (retry budget exhausted)
	// Retry accounting, whole run (counts, not rates — retries cluster
	// around fault events rather than spreading over the window).
	Retries        uint64
	DupsSuppressed uint64
	ReadRedirects  uint64 // NACKed lin-reads retried on another replica
	Latency        stats.LatencySummary
	Throughput     *stats.Series
	TailP99        *stats.Series
}

// Result computes the run summary.
func (c *Client) Result() Result {
	d := c.cfg.Duration.Seconds()
	return Result{
		Offered:        float64(c.Sent) / d,
		Achieved:       float64(c.Completed) / d,
		NackRate:       float64(c.Nacked) / d,
		LossRate:       float64(c.Expired) / d,
		Retries:        c.Retries,
		DupsSuppressed: c.DupsSuppressed,
		ReadRedirects:  c.ReadRedirects,
		Latency:        c.Latency.Summary(),
		Throughput:     &c.Throughput,
		TailP99:        &c.TailP99,
	}
}

// Merge combines per-client results (rates add; latency merges approximately
// by summary-weighted max for the tail — callers needing exact merged
// percentiles should merge the histograms instead).
func Merge(results ...Result) Result {
	var out Result
	var worstP99 time.Duration
	var n uint64
	for _, r := range results {
		out.Offered += r.Offered
		out.Achieved += r.Achieved
		out.NackRate += r.NackRate
		out.LossRate += r.LossRate
		out.Retries += r.Retries
		out.DupsSuppressed += r.DupsSuppressed
		out.ReadRedirects += r.ReadRedirects
		if r.Latency.P99 > worstP99 {
			worstP99 = r.Latency.P99
		}
		n += r.Latency.Count
	}
	out.Latency.Count = n
	out.Latency.P99 = worstP99
	return out
}

// ringSet is a bounded remembered-ID set with FIFO eviction, sized so the
// duplicate-response window comfortably covers any realistic retry span
// without letting memory grow with run length.
type ringSet struct {
	cap  int
	m    map[uint32]bool
	fifo []uint32
}

func newRingSet(cap int) *ringSet {
	return &ringSet{cap: cap, m: make(map[uint32]bool)}
}

func (r *ringSet) add(id uint32) {
	if r.m[id] {
		return
	}
	r.m[id] = true
	r.fifo = append(r.fifo, id)
	if len(r.fifo) > r.cap {
		delete(r.m, r.fifo[0])
		r.fifo = r.fifo[1:]
	}
}

func (r *ringSet) has(id uint32) bool { return r.m[id] }

// expiry is one armed attempt deadline; seq orders equal deadlines by
// arming time.
type expiry struct {
	at      time.Duration
	seq     uint64
	h       *clientHost
	reqID   uint32
	attempt int
}

// expiryHeap is a binary min-heap of expiries by (at, seq), hand-rolled
// so pushes do not box through interface{} as container/heap would.
type expiryHeap []expiry

func (q expiryHeap) less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}

func (q *expiryHeap) push(e expiry) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *expiryHeap) pop() expiry {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = expiry{}
	h = h[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// MergeHistograms merges clients' raw latency histograms into one.
func MergeHistograms(clients []*Client) *stats.Histogram {
	h := stats.NewHistogram()
	for _, c := range clients {
		h.Merge(c.Latency)
	}
	return h
}

// readClass reports whether a policy is read-only traffic (lin-read
// fast path or replicated read-only).
func readClass(p r2p2.Policy) bool {
	return p == r2p2.PolicyLinRead || p == r2p2.PolicyReplicatedRO
}
