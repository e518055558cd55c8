package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/kvstore"
	"hovercraft/internal/raft"
	"hovercraft/internal/transport"
)

// cluster is an in-process HovercRaft group on loopback UDP, every knob
// at the hovernode default (1ms tick, 150/20 election/heartbeat ticks,
// one core, bound 128, compaction every 100k entries, telemetry on).
type cluster struct {
	servers []*transport.Server
	stores  []*kvstore.Store
	files   []*raft.FileStorage // durable workloads only
	wals    []*tracedStorage    // traced durable runs only
	addrs   []string
	walRoot string
}

// freeAddrs reserves n loopback UDP ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[i] = c.LocalAddr().String()
		c.Close()
	}
	return addrs, nil
}

// startCluster binds n nodes, elects node 1 and returns once a leader
// is published. tr, when non-nil, installs the tracing decorators
// around the service and the storage.
func startCluster(w *workload, n int, tr *tracer) (*cluster, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	peers := make(map[uint32]string, n)
	for i, a := range addrs {
		peers[uint32(i+1)] = a
	}
	c := &cluster{addrs: addrs}
	// A lone HovercRaft node commits an entry only when the next one is
	// proposed (commit advances on follower acks it never gets), so the
	// single-node floor runs the vanilla path: no replication either way.
	mode := core.ModeHovercraft
	if n == 1 {
		mode = core.ModeVanilla
	}
	if w.durable {
		if c.walRoot, err = os.MkdirTemp("", "hoverbench-wal-"); err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
	}
	for i := 0; i < n; i++ {
		cfg := transport.ServerConfig{
			ID: uint32(i + 1), Peers: peers, Mode: mode,
			Bound: 128, TickInterval: time.Millisecond, CompactEvery: 0,
			Sockets: 1, ReadLease: w.readMix,
		}
		if w.durable {
			fs, rec, err := raft.OpenFileStorage(fmt.Sprintf("%s/n%d", c.walRoot, i+1), true)
			if err != nil {
				c.close()
				return nil, err
			}
			fs.GroupCommit(256, 0)
			c.files = append(c.files, fs)
			cfg.Storage, cfg.Recovered = fs, rec
			if tr != nil {
				ts := &tracedStorage{inner: fs, tr: tr}
				c.wals = append(c.wals, ts)
				cfg.Storage = ts
			}
		}
		store := kvstore.New()
		var svc app.Service = store
		if tr != nil {
			svc = &tracedService{inner: store, node: i, tr: tr}
		}
		srv, err := transport.NewServer(cfg, svc)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
		c.servers = append(c.servers, srv)
		c.stores = append(c.stores, store)
	}
	c.servers[0].Campaign()
	deadline := time.Now().Add(5 * time.Second)
	for c.leader() < 0 {
		if time.Now().After(deadline) {
			c.close()
			return nil, errors.New("no leader elected within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

func (c *cluster) leader() int {
	for i, s := range c.servers {
		if s.IsLeader() {
			return i
		}
	}
	return -1
}

// quiesce waits until every replica has applied the same, fully
// committed log prefix.
func (c *cluster) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last uint64
	for {
		st := c.servers[0].Status()
		same := st.Applied == st.Commit && st.Commit == st.Last
		for _, s := range c.servers[1:] {
			o := s.Status()
			same = same && o.Applied == st.Applied && o.Commit == st.Commit && o.Last == st.Last
		}
		if same && st.Applied == last {
			if stable++; stable >= 3 {
				return nil
			}
		} else {
			stable, last = 0, st.Applied
		}
		if time.Now().After(deadline) {
			var all []string
			for _, s := range c.servers {
				all = append(all, s.Status().String())
			}
			return fmt.Errorf("replicas did not converge: %v", all)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop closes every server (waiting for its goroutines, which orders
// their last store writes before the reads below) and compares the
// replicas' state byte for byte.
func (c *cluster) stop() error {
	for _, s := range c.servers {
		s.Close()
	}
	var err error
	if len(c.stores) > 0 {
		ref := c.stores[0].Snapshot()
		for i, st := range c.stores[1:] {
			if !bytes.Equal(ref, st.Snapshot()) {
				err = fmt.Errorf("replica %d state differs from replica 1", i+2)
			}
		}
	}
	c.servers = nil
	c.close()
	return err
}

// close releases everything without verifying (error paths, throwaway
// set-up clusters).
func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.servers = nil
	for _, f := range c.files {
		f.Close()
	}
	c.files = nil
	if c.walRoot != "" {
		os.RemoveAll(c.walRoot)
		c.walRoot = ""
	}
}
