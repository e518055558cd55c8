// Package hovercraft makes deterministic request/response services
// fault-tolerant with no code changes, implementing the HovercRaft
// protocol (Kogias & Bugnion, EuroSys'20): Raft embedded directly in the
// R2P2 RPC layer, extended to separate request replication from ordering
// and to load-balance client replies and read-only execution across
// replicas — so adding nodes buys both resilience and performance.
//
// # Quick start
//
// Implement StateMachine (or use the bundled Redis-like store), start one
// Node per replica, and point a Client at the cluster:
//
//	sm := hovercraft.Func(func(cmd []byte, readOnly bool) []byte { ... })
//	node, _ := hovercraft.Start(hovercraft.Config{
//	    ID:    1,
//	    Peers: map[uint32]string{1: ":7001", 2: ":7002", 3: ":7003"},
//	}, sm)
//	defer node.Close()
//
//	client, _ := hovercraft.Dial([]string{"h1:7001", "h2:7002", "h3:7003"})
//	reply, _ := client.Call([]byte("INCR x"), false)
//
// Writes (readOnly=false) are totally ordered and executed on every
// replica; reads (readOnly=true) are totally ordered for linearizability
// but executed only by one replica — the designated replier — which
// answers the client directly.
//
// The deterministic discrete-event evaluation of the paper lives under
// internal/harness and is driven by cmd/hoverbench.
package hovercraft

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/shard"
	"hovercraft/internal/transport"
)

// StateMachine is the application made fault-tolerant. Apply must be
// deterministic: given the same sequence of non-read-only commands, every
// replica must reach the same state. Apply is never called concurrently.
//
// Apply runs on the node's network loop, to completion, like a Redis
// command: the loop that reads the socket and steps Raft executes each
// committed command inline and sends its reply in the same batch. Apply
// must therefore not block or run long — while it runs the node neither
// receives nor sends, and a slow Apply delays heartbeats (one longer than
// the election timeout costs the node its leadership).
type StateMachine interface {
	// Apply executes one command and returns the reply payload.
	// readOnly commands must not mutate state.
	Apply(cmd []byte, readOnly bool) []byte
}

// Func adapts a function to the StateMachine interface.
type Func func(cmd []byte, readOnly bool) []byte

// Apply implements StateMachine.
func (f Func) Apply(cmd []byte, readOnly bool) []byte { return f(cmd, readOnly) }

// Protocol selects the replication protocol variant.
type Protocol uint8

const (
	// HovercRaft (default) replicates requests by client fan-out and
	// orders them with metadata-only AppendEntries; replies and
	// read-only execution are load balanced across replicas.
	HovercRaft Protocol = iota
	// VanillaRaft is classic Raft-over-RPC: all client traffic and
	// execution burden the leader. Provided as the paper's baseline.
	VanillaRaft
	// HovercRaftPP additionally offloads AppendEntries fan-out/fan-in
	// to an aggregator process (see cmd/hovernode -aggregator).
	HovercRaftPP
)

// Config configures one replica.
type Config struct {
	// ID is this node's identity; it must be a key of Peers.
	ID uint32
	// Peers maps node IDs to UDP addresses for the whole cluster.
	Peers map[uint32]string
	// Protocol defaults to HovercRaft.
	Protocol Protocol
	// Aggregator is the aggregator's UDP address (HovercRaftPP only).
	Aggregator string

	// TickInterval is the protocol timer quantum (default 1ms).
	TickInterval time.Duration
	// ElectionTicks and HeartbeatTicks are expressed in ticks
	// (defaults 150 and 20).
	ElectionTicks  int
	HeartbeatTicks int
	// Bound is the bounded-queue depth B for reply load balancing
	// (default 128). Smaller B loses fewer replies when a replica
	// dies; larger B load balances more aggressively.
	Bound int
	// DisableReplyLB pins all replies to the leader.
	DisableReplyLB bool

	// Shards runs this many independent Raft groups on the node (default
	// 1), partitioning the keyspace by consistent hashing so aggregate
	// write throughput is no longer bound by a single leader. Shard s
	// listens on each peer's port+s; use StartSharded to supply per-shard
	// state machines and DialSharded for a key-routing client.
	Shards int

	// ReadLease enables the linearizable read fast path: Client.CallRead
	// requests are served from any replica's local state under a
	// heartbeat-ratified leader lease, without entering the log. Off by
	// default (replicas NACK lin-reads; use Call(cmd, true) for ordered
	// reads).
	ReadLease bool
	// ReadStalenessBudget throttles each follower to one read-index
	// fetch per window, amortizing the leader round across every read
	// arriving within it (0 = fetch as fast as batching allows). Bounds
	// added queueing only — reads stay strictly linearizable.
	ReadStalenessBudget time.Duration
}

// Node is a running replica: one server per shard group (a single
// server unless Config.Shards > 1).
type Node struct {
	srv    *transport.Server   // shard 0 (the only shard when unsharded)
	shards []*transport.Server // all shards, indexed by group
}

type smService struct{ sm StateMachine }

func (s smService) Execute(payload []byte, readOnly bool) []byte {
	return s.sm.Apply(payload, readOnly)
}

var _ app.Service = smService{}

// ShardFactory builds one state machine per shard group. Every node of a
// sharded deployment must build equivalent machines for the same shard.
type ShardFactory interface {
	NewShard(shard int) StateMachine
}

// FactoryFunc adapts a function to the ShardFactory interface.
type FactoryFunc func(shard int) StateMachine

// NewShard implements ShardFactory.
func (f FactoryFunc) NewShard(shard int) StateMachine { return f(shard) }

// Start launches a replica serving sm. For sharded deployments
// (Config.Shards > 1) use StartSharded, which builds one state machine
// per group.
func Start(cfg Config, sm StateMachine) (*Node, error) {
	if cfg.Shards > 1 {
		return nil, errors.New("hovercraft: Config.Shards > 1 requires StartSharded")
	}
	return StartSharded(cfg, FactoryFunc(func(int) StateMachine { return sm }))
}

// StartSharded launches a replica running Config.Shards independent Raft
// groups (default 1), each serving its own state machine from the
// factory. Shard s binds every peer's address at port+s, so groups demux
// by port; keys are assigned to groups by the consistent-hash map that
// DialSharded clients share.
func StartSharded(cfg Config, f ShardFactory) (*Node, error) {
	mode := core.ModeHovercraft
	switch cfg.Protocol {
	case VanillaRaft:
		mode = core.ModeVanilla
	case HovercRaftPP:
		mode = core.ModeHovercraftPP
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > shard.MaxGroups {
		return nil, fmt.Errorf("hovercraft: Shards %d exceeds %d", shards, shard.MaxGroups)
	}
	n := &Node{}
	for s := 0; s < shards; s++ {
		peers, err := shardPeers(cfg.Peers, s)
		if err != nil {
			n.Close()
			return nil, err
		}
		agg := cfg.Aggregator
		if agg != "" && s > 0 {
			if agg, err = offsetPort(agg, s); err != nil {
				n.Close()
				return nil, err
			}
		}
		srv, err := transport.NewServer(transport.ServerConfig{
			ID:             cfg.ID,
			Peers:          peers,
			Mode:           mode,
			Aggregator:     agg,
			TickInterval:   cfg.TickInterval,
			ElectionTicks:  cfg.ElectionTicks,
			HeartbeatTicks: cfg.HeartbeatTicks,
			Bound:          cfg.Bound,
			DisableReplyLB: cfg.DisableReplyLB,

			ReadLease:           cfg.ReadLease,
			ReadStalenessBudget: cfg.ReadStalenessBudget,
		}, smService{sm: f.NewShard(s)})
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("hovercraft: shard %d: %w", s, err)
		}
		n.shards = append(n.shards, srv)
	}
	n.srv = n.shards[0]
	return n, nil
}

// shardPeers offsets every peer port by the shard index.
func shardPeers(peers map[uint32]string, s int) (map[uint32]string, error) {
	if s == 0 {
		return peers, nil
	}
	out := make(map[uint32]string, len(peers))
	for id, addr := range peers {
		a, err := offsetPort(addr, s)
		if err != nil {
			return nil, err
		}
		out[id] = a
	}
	return out, nil
}

func offsetPort(addr string, delta int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("hovercraft: address %q: %w", addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("hovercraft: address %q: %w", addr, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+delta)), nil
}

// Shards returns the number of shard groups this node serves.
func (n *Node) Shards() int { return len(n.shards) }

// IsLeader reports whether this replica currently leads the cluster
// (shard 0 in sharded deployments).
func (n *Node) IsLeader() bool { return n.srv.IsLeader() }

// IsShardLeader reports whether this replica leads shard s.
func (n *Node) IsShardLeader(s int) bool { return n.shards[s].IsLeader() }

// Status describes the replica's consensus state.
type Status struct {
	Leader  uint32
	Term    uint64
	Commit  uint64
	Applied uint64
}

// Status returns a snapshot of the replica's consensus state
// (shard 0 in sharded deployments).
func (n *Node) Status() Status { return n.ShardStatus(0) }

// ShardStatus returns a snapshot of shard s's consensus state.
func (n *Node) ShardStatus(s int) Status {
	st := n.shards[s].Status()
	return Status{
		Leader:  uint32(st.Lead),
		Term:    st.Term,
		Commit:  st.Commit,
		Applied: st.Applied,
	}
}

// Campaign asks this replica to run for leader immediately (shard 0 in
// sharded deployments). Useful to bootstrap a fresh cluster
// deterministically; otherwise the randomized election timeout elects
// someone within a few election periods.
func (n *Node) Campaign() { n.srv.Campaign() }

// CampaignShard asks this replica to run for leader of shard s. Sharded
// bootstraps should spread campaigns across nodes (node ids[s%N]
// campaigning shard s) so leaderships — and write load — land evenly.
func (n *Node) CampaignShard(s int) { n.shards[s].Campaign() }

// Close shuts the replica down.
func (n *Node) Close() error {
	var first error
	for _, srv := range n.shards {
		if srv == nil {
			continue
		}
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Client issues requests against a HovercRaft cluster.
type Client = transport.Client

// ClientOptions tune a client; the zero value works.
type ClientOptions = transport.ClientOptions

// Dial connects a client to the cluster's node addresses.
func Dial(peers []string, opts ...ClientOptions) (*Client, error) {
	return transport.Dial(peers, opts...)
}

// ShardedClient routes requests across the shard groups of a sharded
// deployment by consistent-hashing the caller-supplied key, so every
// client agrees with every other on key placement.
type ShardedClient struct {
	m       *shard.Map
	clients []*Client // one per shard, at port-offset addresses
}

// DialSharded connects a key-routing client to a cluster started with
// Config.Shards = shards. peers holds the base (shard 0) addresses;
// shard s is reached at port+s on each peer.
func DialSharded(peers []string, shards int, opts ...ClientOptions) (*ShardedClient, error) {
	if shards < 1 || shards > shard.MaxGroups {
		return nil, fmt.Errorf("hovercraft: shard count %d outside [1, %d]", shards, shard.MaxGroups)
	}
	sc := &ShardedClient{m: shard.NewMap(shards)}
	for s := 0; s < shards; s++ {
		addrs := make([]string, len(peers))
		for i, p := range peers {
			a, err := offsetPort(p, s)
			if err != nil {
				sc.Close()
				return nil, err
			}
			addrs[i] = a
		}
		cl, err := transport.Dial(addrs, opts...)
		if err != nil {
			sc.Close()
			return nil, fmt.Errorf("hovercraft: shard %d: %w", s, err)
		}
		sc.clients = append(sc.clients, cl)
	}
	return sc, nil
}

// CallKey issues cmd against the shard group owning key and returns the
// reply. Commands touching the same key always reach the same group, so
// per-key operations stay linearizable; cross-key commands must be
// confined to one shard by the application.
func (c *ShardedClient) CallKey(key []byte, cmd []byte, readOnly bool) ([]byte, error) {
	return c.clients[c.m.GroupFor(key)].Call(cmd, readOnly)
}

// CallKeyRead issues a linearizable read against the shard group owning
// key through the leased read-index fast path: served by one rotating
// replica of that group from local state, never entering the log.
// Requires the cluster to run with Config.ReadLease.
func (c *ShardedClient) CallKeyRead(key []byte, cmd []byte) ([]byte, error) {
	return c.clients[c.m.GroupFor(key)].CallRead(cmd)
}

// ShardFor reports which shard group owns key.
func (c *ShardedClient) ShardFor(key []byte) int { return int(c.m.GroupFor(key)) }

// Shard returns the underlying client for one shard group, for commands
// that must target a specific group regardless of key.
func (c *ShardedClient) Shard(s int) *Client { return c.clients[s] }

// Shards returns the number of shard groups the client routes across.
func (c *ShardedClient) Shards() int { return len(c.clients) }

// Close releases all per-shard clients.
func (c *ShardedClient) Close() error {
	var first error
	for _, cl := range c.clients {
		if cl == nil {
			continue
		}
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
