package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/runtime"
)

// ClientOptions tune a UDP client.
type ClientOptions struct {
	// Timeout bounds one attempt (default 500ms). Attempts are not
	// timed one by one: a sweep every Timeout/16 (at least 1ms) expires
	// the attempts whose deadline has passed, so an attempt times out
	// between Timeout and Timeout + Timeout/16 after it was sent.
	Timeout time.Duration
	// Retries caps resends after timeouts or NACK redirects (default 5).
	// Every resend reuses the original R2P2 request ID, and the servers
	// keep an RPC-ID dedup cache keyed on it: a retried write applies
	// exactly once even when the retry lands on a new leader, with the
	// cached reply resent instead of a second execution.
	Retries int
}

// Client issues R2P2 requests against a HovercRaft cluster over UDP.
// Safe for concurrent use.
type Client struct {
	opts     ClientOptions
	conn     *net.UDPConn
	peers    []*net.UDPAddr
	r2cl     *r2p2.Client
	sendPool sync.Pool // *sender: one per concurrent request fan-out

	mu      sync.Mutex
	drv     *runtime.Driver
	waiting map[uint32]*callState
	start   time.Time
	readTgt int // rotates CallRead across peers (under mu)

	states sync.Pool // *callState, reused with its channel

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup // the read loop and the sweeper
}

type clientResult struct {
	payload []byte
	nack    bool
	// retryAfter is the strongest retry-after hint carried by the NACK
	// round (zero when every NACK was the legacy empty kind).
	retryAfter time.Duration
	// timeout reports that the sweeper expired the attempt.
	timeout bool
}

// callState tracks one in-flight request. Because requests fan out to
// every node, VanillaRaft followers NACK-redirect while the leader
// answers; a call only fails on NACK once every peer rejected it.
// Point-to-point attempts (lin-reads) set expect=1: the one replica
// asked is the only one that will answer. While the state is in the
// waiting table, exactly one result is delivered on ch — a reply, a
// failing NACK round, or the sweeper's timeout — and whoever delivers
// it removes the state from the table, both under c.mu; so ch (capacity
// one) never blocks a sender.
type callState struct {
	ch       chan clientResult
	nacks    int
	expect   int // NACKs that fail the attempt (0 = every peer)
	hint     time.Duration
	deadline time.Duration // client clock; the sweeper expires the attempt after it
}

// ErrTimeout reports that all attempts of a Call expired.
var ErrTimeout = errors.New("transport: request timed out")

// Dial creates a client bound to an ephemeral UDP port.
func Dial(peerAddrs []string, opts ...ClientOptions) (*Client, error) {
	var o ClientOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Timeout <= 0 {
		o.Timeout = 500 * time.Millisecond
	}
	if o.Retries <= 0 {
		o.Retries = 5
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		// Fall back to the unspecified address for non-loopback peers.
		conn, err = net.ListenUDP("udp4", nil)
		if err != nil {
			return nil, fmt.Errorf("transport: client listen: %w", err)
		}
	}
	setSockBufs(conn, 0)
	rawConn, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: client raw conn: %w", err)
	}
	c := &Client{
		opts:    o,
		conn:    conn,
		waiting: make(map[uint32]*callState),
		start:   time.Now(),
		closed:  make(chan struct{}),
	}
	c.states.New = func() interface{} { return &callState{ch: make(chan clientResult, 1)} }
	c.sendPool.New = func() interface{} { return newSender(conn, rawConn, defaultSendBatch) }
	c.drv = runtime.New((*clientHandler)(c), runtime.Options{
		Now:          func() time.Duration { return time.Since(c.start) },
		ReasmTimeout: o.Timeout,
		// Response payloads cross a channel to the calling goroutine,
		// outliving the read buffer.
		RetainPayload: []r2p2.MessageType{r2p2.TypeResponse},
	})
	for _, pa := range peerAddrs {
		ua, err := net.ResolveUDPAddr("udp4", pa)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve %q: %w", pa, err)
		}
		c.peers = append(c.peers, ua)
	}
	if len(c.peers) == 0 {
		conn.Close()
		return nil, errors.New("transport: no peers")
	}
	local := conn.LocalAddr().(*net.UDPAddr)
	// The r2p2 port is the client's identity within its IP; derive it
	// from the UDP port plus randomness against port reuse.
	c.r2cl = r2p2.NewClient(ipKey(local), uint16(local.Port)^uint16(rand.Int()))
	c.wg.Add(2)
	go c.readLoop()
	go c.sweep()
	return c, nil
}

// Close releases the client socket and waits for the client's
// goroutines to exit.
func (c *Client) Close() error {
	c.closeMu.Do(func() {
		close(c.closed)
		c.conn.Close()
	})
	c.wg.Wait()
	return nil
}

func (c *Client) now() time.Duration { return time.Since(c.start) }

// sweep expires attempts whose deadline has passed, every Timeout/16
// (at least 1ms). One ticker per client replaces a timer per attempt:
// with many callers blocked at once, per-attempt timers churn the
// runtime's timer heap on every call.
func (c *Client) sweep() {
	defer c.wg.Done()
	every := c.opts.Timeout / 16
	if every < time.Millisecond {
		every = time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
		}
		now := c.now()
		c.mu.Lock()
		for id, st := range c.waiting {
			if now >= st.deadline {
				delete(c.waiting, id)
				st.ch <- clientResult{timeout: true}
			}
		}
		c.mu.Unlock()
	}
}

// register files st in the waiting table under id for one attempt that
// expires at deadline, resetting the attempt's NACK fan-in (a full round
// of redirects last attempt says nothing about this one). Called under
// c.mu.
func (c *Client) register(id uint32, st *callState, deadline time.Duration) {
	st.nacks, st.hint = 0, 0
	st.deadline = deadline
	c.waiting[id] = st
}

// release ends a call: it takes st out of the waiting table, drains a
// result no attempt consumed and returns st to the pool.
func (c *Client) release(id uint32, st *callState) {
	c.mu.Lock()
	if c.waiting[id] == st {
		delete(c.waiting, id)
	}
	c.mu.Unlock()
	select {
	case <-st.ch:
	default:
	}
	st.expect = 0
	c.states.Put(st)
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	r, err := newBatchReader(c.conn, defaultRecvBatch)
	if err != nil {
		return
	}
	for {
		n, err := r.read()
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
				continue
			}
		}
		c.mu.Lock()
		c.drv.IngestBorrowedBatch(r.views[:n], r.keys[:n])
		c.mu.Unlock()
	}
}

// clientHandler adapts Client to runtime.Handler: it resolves responses
// and NACK fan-in against the waiting-call table. Called under c.mu.
type clientHandler Client

func (h *clientHandler) HandleMessage(m *r2p2.Msg) {
	st, ok := h.waiting[m.ID.ReqID]
	if !ok {
		return
	}
	switch m.Type {
	case r2p2.TypeResponse:
		delete(h.waiting, m.ID.ReqID)
		st.ch <- clientResult{payload: m.Payload}
	case r2p2.TypeNack:
		if d := r2p2.NackRetryAfter(m.Payload); d > 0 {
			// Hinted NACK: an authoritative overload rejection from the
			// admission point (leader or middlebox). Nobody else will
			// answer this attempt — waiting for a full redirect round
			// would stretch every shed request to the attempt timeout.
			delete(h.waiting, m.ID.ReqID)
			st.ch <- clientResult{nack: true, retryAfter: d}
			return
		}
		// Legacy empty NACK: a follower redirect; the leader may still
		// answer, so the attempt only fails once every peer rejected it
		// — except point-to-point attempts, which asked exactly one.
		st.nacks++
		exp := st.expect
		if exp <= 0 {
			exp = len(h.peers)
		}
		if st.nacks >= exp {
			delete(h.waiting, m.ID.ReqID)
			st.ch <- clientResult{nack: true, retryAfter: st.hint}
		}
	}
}

// Call executes one command against the cluster and returns the reply.
// readOnly commands are tagged REPLICATED_REQ_R: still totally ordered,
// but executed by a single replica.
//
// The request is fanned out to every node (the client-side stand-in for
// the paper's switch multicast); whichever replica the leader designates
// answers directly. All attempts of a Call share one request ID, so the
// server-side dedup cache applies a retried write exactly once and
// answers later copies from its reply cache.
//
// The reply is a capped slice of a 64 KiB buffer that later replies on
// this client share, so receiving it allocates nothing. A caller that
// keeps a reply beyond its immediate use (a cache, a result log) should
// keep a copy: the reply pins its whole buffer while it lives.
func (c *Client) Call(cmd []byte, readOnly bool) ([]byte, error) {
	policy := r2p2.PolicyReplicated
	if readOnly {
		policy = r2p2.PolicyReplicatedRO
	}
	c.mu.Lock()
	id, dgs := c.r2cl.NewRequest(policy, cmd)
	st := c.states.Get().(*callState)
	c.register(id.ReqID, st, c.now()+c.opts.Timeout)
	c.mu.Unlock()
	defer c.release(id.ReqID, st)

	var lastErr error = ErrTimeout
	backoff := 2 * time.Millisecond
	var hinted time.Duration // retry-after carried by the last NACK round
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			// An overloaded cluster's retry-after hint overrides the
			// local schedule; either way the wait is jittered (half
			// deterministic, half random) so the cohort a NACK burst
			// rejected does not retry in lockstep.
			d := backoff
			if hinted > 0 {
				d = hinted
			}
			d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
			// The previous attempt was deregistered (NACK or timeout);
			// re-register under the same request ID before the wait, so
			// a late reply to it is still taken. The deadline starts
			// after the wait: the sweeper must not expire an attempt
			// that has not been sent.
			c.mu.Lock()
			c.register(id.ReqID, st, c.now()+d+c.opts.Timeout)
			c.mu.Unlock()
			select {
			case <-c.closed:
				return nil, errors.New("transport: client closed")
			case <-time.After(d):
			}
			backoff *= 2
		}
		hinted = 0
		// Fan the request out to every node in one vectored send: the
		// copies leave the client back to back, which is as close to the
		// paper's switch multicast as unicast gets (and keeps the window
		// in which the leader's AppendEntries can overtake a follower's
		// copy of the body small).
		sn := c.sendPool.Get().(*sender)
		for _, peer := range c.peers {
			for _, dg := range dgs {
				sn.queue(peer, dg)
			}
		}
		sn.flush()
		c.sendPool.Put(sn)
		select {
		case res := <-st.ch:
			switch {
			case res.timeout:
				lastErr = ErrTimeout
			case res.nack:
				hinted = res.retryAfter
				lastErr = errors.New("transport: request rejected (redirect/overload)")
			default:
				return res.payload, nil
			}
		case <-c.closed:
			return nil, errors.New("transport: client closed")
		}
	}
	return nil, lastErr
}

// CallRead executes a linearizable read through the leased read-index
// fast path (LIN_READ): the request goes point-to-point to ONE replica
// — successive reads rotate round-robin so read load spreads across the
// whole cluster — which serves it from local state once its applied
// index passes a leader-ratified read index, never touching the log,
// the WAL, or replication.
//
// A NACK here is a redirect ("I can't serve this read": no lease
// machinery, lagging applied index, mid-election), not an overload
// signal, so the retry goes to the next replica immediately — no
// backoff sleep, unlike Call's write path. Requires servers running
// with read leases enabled; against a cluster without them every
// replica NACKs and the call fails after exhausting the rotation.
// The reply shares a buffer with other replies, as Call's does.
func (c *Client) CallRead(cmd []byte) ([]byte, error) {
	c.mu.Lock()
	id, dgs := c.r2cl.NewRequest(r2p2.PolicyLinRead, cmd)
	st := c.states.Get().(*callState)
	st.expect = 1
	c.register(id.ReqID, st, c.now()+c.opts.Timeout)
	tgt := c.readTgt
	c.readTgt++
	c.mu.Unlock()
	defer c.release(id.ReqID, st)

	var lastErr error = ErrTimeout
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			// The previous attempt was deregistered (NACK or timeout);
			// re-register under the same request ID so a late reply
			// still matches.
			c.mu.Lock()
			c.register(id.ReqID, st, c.now()+c.opts.Timeout)
			c.mu.Unlock()
		}
		peer := c.peers[(tgt+attempt)%len(c.peers)]
		sn := c.sendPool.Get().(*sender)
		sn.sendTo(peer, dgs)
		c.sendPool.Put(sn)
		select {
		case res := <-st.ch:
			switch {
			case res.timeout:
				lastErr = ErrTimeout
			case res.nack:
				// Redirect: rotate to the next replica right away.
				lastErr = errors.New("transport: read redirected")
			default:
				return res.payload, nil
			}
		case <-c.closed:
			return nil, errors.New("transport: client closed")
		}
	}
	return nil, lastErr
}
