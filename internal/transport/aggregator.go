package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"hovercraft/internal/core"
	"hovercraft/internal/raft"
	"hovercraft/internal/runtime"
	"hovercraft/internal/wire"
)

// AggregatorServer runs the HovercRaft++ in-network aggregator as a UDP
// process. The paper implements it on a Tofino ASIC but notes it is "an
// IP connected device that can be placed anywhere inside the datacenter";
// this is that software placement. Fan-out happens by unicast loop (a
// real deployment would use switch multicast).
type AggregatorServer struct {
	conn  *net.UDPConn
	agg   *core.Aggregator
	peers map[raft.NodeID]*net.UDPAddr

	mu    sync.Mutex
	drv   *runtime.Driver
	start time.Time

	closed  chan struct{}
	closeMu sync.Once
	done    chan struct{}
}

// NewAggregatorServer binds the aggregator to listenAddr for the given
// cluster membership.
func NewAggregatorServer(listenAddr string, peers map[uint32]string) (*AggregatorServer, error) {
	addr, err := net.ResolveUDPAddr("udp4", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: aggregator resolve: %w", err)
	}
	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: aggregator listen: %w", err)
	}
	// The aggregator absorbs the whole cluster's AE fan-in; default
	// socket buffers drop under that burst load.
	setSockBufs(conn, 0)
	a := &AggregatorServer{
		conn:   conn,
		peers:  make(map[raft.NodeID]*net.UDPAddr),
		start:  time.Now(),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	ids := make([]raft.NodeID, 0, len(peers))
	for id, pa := range peers {
		ua, err := net.ResolveUDPAddr("udp4", pa)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: aggregator peer %d: %w", id, err)
		}
		a.peers[raft.NodeID(id)] = ua
		ids = append(ids, raft.NodeID(id))
	}
	a.agg = core.NewAggregator(ids, (*aggUDPTransport)(a))
	// The aggregator retains no payloads: leader appends are decoded
	// (and copied) inside HandleMessage, so the read buffer is safe to
	// reuse without per-type copies.
	a.drv = runtime.New(a.agg, runtime.Options{
		Now:          func() time.Duration { return time.Since(a.start) },
		ReasmTimeout: 2 * time.Second,
	})
	go a.readLoop()
	return a, nil
}

// Addr returns the bound UDP address.
func (a *AggregatorServer) Addr() *net.UDPAddr { return a.conn.LocalAddr().(*net.UDPAddr) }

// Close shuts the aggregator down.
func (a *AggregatorServer) Close() error {
	a.closeMu.Do(func() {
		close(a.closed)
		a.conn.Close()
	})
	<-a.done
	return nil
}

func (a *AggregatorServer) readLoop() {
	defer close(a.done)
	r, err := newBatchReader(a.conn, defaultRecvBatch)
	if err != nil {
		return
	}
	for {
		n, err := r.read()
		if err != nil {
			select {
			case <-a.closed:
				return
			default:
				continue
			}
		}
		a.mu.Lock()
		a.drv.IngestBorrowedBatch(r.views[:n], r.keys[:n])
		a.mu.Unlock()
	}
}

type aggUDPTransport AggregatorServer

// sendRelease writes each datagram to every selected peer, then drops the
// transferred buffer references (one per buffer regardless of fan-out).
func (t *aggUDPTransport) sendRelease(dgs []*wire.Buf, sel func(id raft.NodeID) bool) {
	for _, b := range dgs {
		for id, addr := range t.peers {
			if sel(id) {
				_, _ = t.conn.WriteToUDP(b.B, addr)
			}
		}
		b.Release()
	}
}

func (t *aggUDPTransport) ForwardToFollowers(leader raft.NodeID, dgs []*wire.Buf) {
	t.sendRelease(dgs, func(id raft.NodeID) bool { return id != leader })
}

func (t *aggUDPTransport) Broadcast(dgs []*wire.Buf) {
	t.sendRelease(dgs, func(raft.NodeID) bool { return true })
}

func (t *aggUDPTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	t.sendRelease(dgs, func(n raft.NodeID) bool { return n == id })
}
