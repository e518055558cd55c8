package transport

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/obs"
	"hovercraft/internal/raft"
	"hovercraft/internal/shard"
)

// NodeConfig configures one node of a deployment: the ServerConfig its
// shard groups share (Peers and Aggregator at their shard-0 addresses;
// Storage and Recovered unset, as StartNode opens them), how many
// groups it runs, and where their write-ahead logs live.
type NodeConfig struct {
	ServerConfig
	// Shards runs this many independent Raft groups (default 1, at most
	// shard.MaxGroups). Shard s binds each peer's port+s and reaches
	// the aggregator at its port+s, so groups demux by port.
	Shards int
	// WALDir holds the write-ahead log (empty = volatile): WALDir
	// itself for one shard, WALDir/shard<s> for shard s of several.
	// WALSync fsyncs records before they are acknowledged; FsyncBatch
	// and FsyncDelay set the group commit (raft.FileStorage.GroupCommit).
	WALDir     string
	WALSync    bool
	FsyncBatch int
	FsyncDelay time.Duration
}

// Node is one process's share of a deployment: a Server per shard
// group, each with its own socket, owner loop, service and WAL.
type Node struct {
	id      uint32
	peers   map[uint32]string
	servers []*Server
	wals    []*raft.FileStorage
}

// StartNode opens and recovers each shard's WAL and starts the shard's
// server around the service newService builds for it. Every node of a
// deployment must build equivalent services for the same shard.
func StartNode(cfg NodeConfig, newService func(shard int) app.Service) (*Node, error) {
	shards := max(cfg.Shards, 1)
	if shards > shard.MaxGroups {
		return nil, fmt.Errorf("transport: Shards %d exceeds %d", shards, shard.MaxGroups)
	}
	if cfg.Storage != nil || cfg.Recovered != nil {
		return nil, errors.New("transport: StartNode opens each shard's storage from WALDir")
	}
	n := &Node{id: cfg.ID, peers: cfg.Peers}
	for s := 0; s < shards; s++ {
		if err := n.startShard(cfg, s, shards, newService(s)); err != nil {
			n.Close()
			return nil, fmt.Errorf("transport: shard %d: %w", s, err)
		}
	}
	return n, nil
}

func (n *Node) startShard(cfg NodeConfig, s, shards int, svc app.Service) (err error) {
	sc := cfg.ServerConfig
	sc.Peers = make(map[uint32]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		if sc.Peers[id], err = ShardAddr(addr, s); err != nil {
			return err
		}
	}
	if sc.Aggregator != "" {
		if sc.Aggregator, err = ShardAddr(sc.Aggregator, s); err != nil {
			return err
		}
	}
	if cfg.WALDir != "" {
		dir := cfg.WALDir
		if shards > 1 {
			dir = filepath.Join(dir, fmt.Sprintf("shard%d", s))
		}
		fs, recovered, err := raft.OpenFileStorage(dir, cfg.WALSync)
		if err != nil {
			return err
		}
		// Group commit trades one fsync per record for one per batch;
		// the server's egress barrier keeps acks behind the sync.
		fs.GroupCommit(cfg.FsyncBatch, cfg.FsyncDelay)
		n.wals = append(n.wals, fs)
		sc.Storage, sc.Recovered = fs, recovered
	}
	srv, err := NewServer(sc, svc)
	if err != nil {
		return err
	}
	n.servers = append(n.servers, srv)
	return nil
}

// ShardAddr returns where shard s of a node listening at addr binds:
// the same host at port+s.
func ShardAddr(addr string, s int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	p, perr := strconv.Atoi(port)
	if err != nil || perr != nil {
		return "", fmt.Errorf("address %q: want host:port", addr)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+s)), nil
}

// Shards returns the number of shard groups the node runs.
func (n *Node) Shards() int { return len(n.servers) }

// Shard returns shard s's server.
func (n *Node) Shard(s int) *Server { return n.servers[s] }

// Bootstrap starts this node's elections in a fresh cluster. A single
// group campaigns outright: the node told to bootstrap leads. Across
// several groups every node is told to, and each campaigns only for
// its round-robin share of the shards, so leaderships (and write load)
// land evenly instead of piling onto one node.
func (n *Node) Bootstrap() {
	if len(n.servers) == 1 {
		n.servers[0].Campaign()
		return
	}
	ids := make([]uint32, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	for _, s := range campaignShards(ids, n.id, len(n.servers)) {
		n.servers[s].Campaign()
	}
}

// campaignShards returns the shards node id campaigns for at bootstrap:
// over the sorted ids (sorted in place), shard s goes to ids[s%len(ids)].
func campaignShards(ids []uint32, id uint32, shards int) []int {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var mine []int
	for s := 0; s < shards; s++ {
		if ids[s%len(ids)] == id {
			mine = append(mine, s)
		}
	}
	return mine
}

// DebugVars snapshots every shard's Server.DebugVars under shard<s>.
func (n *Node) DebugVars() map[string]interface{} {
	vars := make(map[string]interface{}, len(n.servers))
	for s, srv := range n.servers {
		vars[fmt.Sprintf("shard%d", s)] = srv.DebugVars()
	}
	return vars
}

// RegisterMetrics publishes the node_id and shards gauges, and every
// shard's Server.RegisterMetrics under shard<s>.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	reg.Gauge("node_id", func() float64 { return float64(n.id) })
	reg.Gauge("shards", func() float64 { return float64(len(n.servers)) })
	for s, srv := range n.servers {
		srv.RegisterMetrics(reg.Sub(fmt.Sprintf("shard%d", s)))
	}
}

// Close shuts every server down, then closes the WALs they appended to.
func (n *Node) Close() error {
	var errs []error
	for _, srv := range n.servers {
		errs = append(errs, srv.Close())
	}
	for _, fs := range n.wals {
		errs = append(errs, fs.Close())
	}
	return errors.Join(errs...)
}
