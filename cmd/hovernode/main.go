// Command hovernode runs one HovercRaft replica serving the bundled
// Redis-like key-value store over UDP.
//
// A local three-node cluster:
//
//	hovernode -id 1 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 -bootstrap &
//	hovernode -id 2 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 &
//	hovernode -id 3 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 &
//
// HovercRaft++ additionally needs the aggregator process:
//
//	hovernode -aggregator-daemon -listen 127.0.0.1:7100 -peers ...
//	hovernode -id 1 -mode hovercraft++ -aggregator 127.0.0.1:7100 -peers ... -bootstrap
//
// Sharded deployments run -shards G independent Raft groups per node
// (shard s at each peer's port+s); pass -bootstrap to every node so
// initial leaderships spread round-robin:
//
//	hovernode -id 1 -shards 4 -peers ... -bootstrap &
//	hovernode -id 2 -shards 4 -peers ... -bootstrap &
//	hovernode -id 3 -shards 4 -peers ... -bootstrap &
//
// Drive it with cmd/hoverkv (which routes keys to shards with -shards G).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/core"
	"hovercraft/internal/kvstore"
	"hovercraft/internal/obs"
	"hovercraft/internal/raft"
	"hovercraft/internal/transport"
)

func parsePeers(s string) (map[uint32]string, error) {
	peers := make(map[uint32]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		peers[uint32(id)] = kv[1]
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("no peers given")
	}
	return peers, nil
}

// offsetPeers shifts every peer's port by delta: shard s of a sharded
// deployment lives at port+s on each node.
func offsetPeers(peers map[uint32]string, delta int) (map[uint32]string, error) {
	if delta == 0 {
		return peers, nil
	}
	out := make(map[uint32]string, len(peers))
	for id, addr := range peers {
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("peer %d address %q: %v", id, addr, err)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			return nil, fmt.Errorf("peer %d address %q: %v", id, addr, err)
		}
		out[id] = net.JoinHostPort(host, strconv.Itoa(port+delta))
	}
	return out, nil
}

// bootstrapShards returns the shards this node should campaign for when
// bootstrapping: round-robin over the sorted peer ids, so leaderships
// (and write load) spread across the cluster instead of piling onto one
// node. Pass -bootstrap to every node of a fresh sharded cluster.
func bootstrapShards(peers map[uint32]string, id uint32, shards int) []int {
	ids := make([]uint32, 0, len(peers))
	for pid := range peers {
		ids = append(ids, pid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var mine []int
	for s := 0; s < shards; s++ {
		if ids[s%len(ids)] == id {
			mine = append(mine, s)
		}
	}
	return mine
}

func parseMode(s string) (core.Mode, error) {
	switch strings.ToLower(s) {
	case "vanilla":
		return core.ModeVanilla, nil
	case "hovercraft":
		return core.ModeHovercraft, nil
	case "hovercraft++", "hovercraftpp":
		return core.ModeHovercraftPP, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (vanilla, hovercraft, hovercraft++)", s)
	}
}

func main() {
	var (
		id        = flag.Uint("id", 0, "this node's ID (must appear in -peers)")
		peersFlag = flag.String("peers", "", "cluster membership: 1=host:port,2=host:port,...")
		modeFlag  = flag.String("mode", "hovercraft", "protocol: vanilla | hovercraft | hovercraft++")
		agg       = flag.String("aggregator", "", "aggregator address (hovercraft++ mode)")
		bootstrap = flag.Bool("bootstrap", false, "campaign for leadership immediately")
		bound     = flag.Int("bound", 128, "bounded-queue depth B for reply load balancing")
		shards    = flag.Int("shards", 1, "independent Raft groups on this node; shard s listens on each peer's port+s")
		tick      = flag.Duration("tick", time.Millisecond, "protocol tick interval")
		walDir    = flag.String("wal", "", "directory for the write-ahead log (empty = volatile)")
		walSync   = flag.Bool("wal-sync", false, "fsync WAL records before acknowledging")
		compact   = flag.Uint64("compact-every", 100000, "snapshot+truncate the log every N applied entries (0 = never)")

		recvBatch  = flag.Int("recv-batch", 0, "datagrams drained per recvmmsg (0 = default 32)")
		sendBatch  = flag.Int("send-batch", 0, "datagrams coalesced per sendmmsg (0 = default 32)")
		sockBuf    = flag.Int("sockbuf", 0, "SO_RCVBUF/SO_SNDBUF of each shard's socket in bytes (0 = default 2 MiB)")
		fsyncBatch = flag.Int("fsync-batch", 0, "WAL group commit: records staged per fsync (<=1 = sync every record)")
		fsyncDelay = flag.Duration("fsync-delay", 0, "WAL group commit: max time a staged record may wait for its fsync")

		readLease  = flag.Bool("read-lease", false, "linearizable read fast path: serve LIN_READ requests from any replica's local state under a heartbeat-ratified leader lease, bypassing log, WAL, and replication")
		readBudget = flag.Duration("read-staleness-budget", 0, "throttle each follower to one read-index fetch per window, amortizing the leader round across reads arriving within it (0 = fetch per batch; bounds queueing, never staleness)")

		admit       = flag.Bool("admission", false, "adaptive leader-side admission control: shed requests above an AIMD window driven by queue-delay telemetry")
		admitLimit  = flag.Int("admission-limit", 0, "admission window ceiling (0 = 4096)")
		admitTarget = flag.Duration("admission-target", 0, "queue-delay p99 the admission controller defends (0 = 500µs)")
		telEpoch    = flag.Duration("telemetry-epoch", 0, "queue-delay telemetry epoch length (0 = 1s)")

		aggDaemon = flag.Bool("aggregator-daemon", false, "run the in-network aggregator instead of a replica")
		listen    = flag.String("listen", "", "listen address for -aggregator-daemon")
		debugAddr = flag.String("debug-addr", "", "HTTP address for /debug/vars (expvar) and /debug/pprof (empty = off)")
	)
	flag.Parse()

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("hovernode: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *aggDaemon {
		if *listen == "" {
			log.Fatal("hovernode: -aggregator-daemon needs -listen")
		}
		a, err := transport.NewAggregatorServer(*listen, peers)
		if err != nil {
			log.Fatalf("hovernode: %v", err)
		}
		log.Printf("aggregator listening on %s for %d nodes", a.Addr(), len(peers))
		<-sig
		a.Close()
		return
	}

	mode, err := parseMode(*modeFlag)
	if err != nil {
		log.Fatalf("hovernode: %v", err)
	}
	if *shards < 1 {
		log.Fatalf("hovernode: -shards %d must be >= 1", *shards)
	}
	// One server (own store, own WAL subdirectory, own consensus group)
	// per shard. Shard s binds each peer's port+s so groups demux by
	// port and clients route keys with hovercraft.DialSharded.
	servers := make([]*transport.Server, *shards)
	for s := 0; s < *shards; s++ {
		shardPeers, err := offsetPeers(peers, s)
		if err != nil {
			log.Fatalf("hovernode: %v", err)
		}
		aggAddr := *agg
		if aggAddr != "" && s > 0 {
			one := map[uint32]string{0: aggAddr}
			shifted, err := offsetPeers(one, s)
			if err != nil {
				log.Fatalf("hovernode: %v", err)
			}
			aggAddr = shifted[0]
		}
		cfg := transport.ServerConfig{
			ID:           uint32(*id),
			Peers:        shardPeers,
			Mode:         mode,
			Aggregator:   aggAddr,
			Bound:        *bound,
			TickInterval: *tick,
			CompactEvery: *compact,
			RecvBatch:    *recvBatch,
			SendBatch:    *sendBatch,
			SockBufBytes: *sockBuf,

			TelemetryEpoch:    *telEpoch,
			AdaptiveAdmission: *admit,
			AdmissionLimit:    *admitLimit,
			Admission:         admission.Config{Target: *admitTarget},

			ReadLease:           *readLease,
			ReadStalenessBudget: *readBudget,
		}
		if *walDir != "" {
			dir := *walDir
			if *shards > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard%d", s))
			}
			fs, recovered, err := raft.OpenFileStorage(dir, *walSync)
			if err != nil {
				log.Fatalf("hovernode: shard %d: %v", s, err)
			}
			// Group commit trades one fsync per record for one per batch;
			// the transport's egress barrier keeps acks behind the sync.
			fs.GroupCommit(*fsyncBatch, *fsyncDelay)
			defer fs.Close()
			cfg.Storage = fs
			cfg.Recovered = recovered
			log.Printf("shard %d: recovered term=%d snap=%d entries=%d from %s",
				s, recovered.Term, recovered.SnapIdx, len(recovered.Entries), dir)
		}
		srv, err := transport.NewServer(cfg, kvstore.New())
		if err != nil {
			log.Fatalf("hovernode: shard %d: %v", s, err)
		}
		servers[s] = srv
	}
	if *shards == 1 {
		log.Printf("node %d (%s) serving kvstore on %s", *id, mode, servers[0].Addr())
	} else {
		log.Printf("node %d (%s) serving kvstore across %d shards on %s..%s",
			*id, mode, *shards, servers[0].Addr(), servers[*shards-1].Addr())
	}
	if *debugAddr != "" {
		expvar.Publish("hovernode", expvar.Func(func() interface{} {
			vars := make(map[string]interface{}, len(servers))
			for s, srv := range servers {
				vars[fmt.Sprintf("shard%d", s)] = srv.DebugVars()
			}
			return vars
		}))
		// Prometheus exposition of the same state, from the unified obs
		// registry: per-shard role gauges, data-plane counters, and the
		// always-on per-stage queue-delay windows.
		reg := obs.NewRegistry()
		reg.Gauge("node_id", func() float64 { return float64(*id) })
		reg.Gauge("shards", func() float64 { return float64(len(servers)) })
		for s, srv := range servers {
			srv.RegisterMetrics(reg.Sub(fmt.Sprintf("shard%d", s)))
		}
		http.Handle("/metrics", obs.PromHandler(reg))
		go func() {
			// DefaultServeMux carries expvar's /debug/vars and pprof's
			// /debug/pprof from their package inits, plus /metrics above.
			log.Printf("debug endpoint on http://%s/debug/vars and /metrics", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug endpoint: %v", err)
			}
		}()
	}
	if *bootstrap {
		if *shards == 1 {
			servers[0].Campaign()
		} else {
			// Spread initial leaderships round-robin so no node carries
			// every shard's write load; -bootstrap goes to every node.
			for _, s := range bootstrapShards(peers, uint32(*id), *shards) {
				log.Printf("campaigning for shard %d", s)
				servers[s].Campaign()
			}
		}
	}

	status := time.NewTicker(5 * time.Second)
	defer status.Stop()
	for {
		select {
		case <-sig:
			log.Printf("shutting down")
			for _, srv := range servers {
				srv.Close()
			}
			return
		case <-status.C:
			for s, srv := range servers {
				if *shards == 1 {
					log.Printf("status: %v", srv.Status())
				} else {
					log.Printf("status shard %d: %v", s, srv.Status())
				}
			}
		}
	}
}
