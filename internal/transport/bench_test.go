package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hovercraft/internal/core"
	"hovercraft/internal/raft"
)

// BenchmarkLoopbackUDPThroughput drives a 3-node HovercRaft cluster over
// real loopback UDP sockets, one closed-loop client. Unlike the simnet
// benchmarks this exercises the actual read loops (reused read buffers,
// borrowed ingest) and socket sends, so allocs/op here covers the whole
// deployable stack; absolute latency is dominated by the kernel UDP
// stack, not the protocol.
func BenchmarkLoopbackUDPThroughput(b *testing.B) {
	probe, err := newEphemeral()
	if err != nil {
		b.Skipf("loopback UDP unavailable: %v", err)
	}
	probe.Close()

	servers, peers, cleanup := startCluster(b, core.ModeHovercraft, 3)
	defer cleanup()
	cl := dialCluster(b, peers)
	defer cl.Close()

	payload := []byte("incr")
	// Warm the path (leader commit, client tables) outside the timer.
	if _, err := cl.Call(payload, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Call(payload, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	_ = servers
}

// BenchmarkDataplane measures the raw UDP data plane in isolation — no
// consensus, just datagrams through the batch I/O layer — across the
// deployment matrix of send/recv batch sizes and ingress socket counts.
// The interesting outputs are dg/s (throughput) and dg/sendmmsg (how
// many datagrams each send syscall amortizes; 1.0 on the portable
// fallback, approaching the batch size on Linux).
func BenchmarkDataplane(b *testing.B) {
	for _, sockets := range []int{1, 2, 4} {
		for _, batch := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("batch=%d/sockets=%d", batch, sockets), func(b *testing.B) {
				benchDataplane(b, batch, sockets)
			})
		}
	}
}

func benchDataplane(b *testing.B, batch, sockets int) {
	probe, err := newEphemeral()
	if err != nil {
		b.Skipf("loopback UDP unavailable: %v", err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()
	conns, err := listenBatch(addr, sockets)
	if err != nil {
		b.Fatal(err)
	}
	setSockBufs(conns, 8<<20)

	var received, stopped atomic.Uint64
	var readerWG sync.WaitGroup
	readers := make([]*batchReader, len(conns))
	for i, c := range conns {
		r, err := newBatchReader(c, batch)
		if err != nil {
			b.Fatal(err)
		}
		readers[i] = r
		readerWG.Add(1)
		go func(r *batchReader) {
			defer readerWG.Done()
			for {
				n, err := r.read()
				if err != nil {
					if stopped.Load() != 0 {
						return
					}
					continue
				}
				received.Add(uint64(n))
			}
		}(r)
	}

	// One source socket per ingress socket: distinct 4-tuples give the
	// kernel's reuseport hash a chance to spread load.
	nsend := len(conns)
	payload := make([]byte, 512)
	pkts := make([][]byte, batch)
	for i := range pkts {
		pkts[i] = payload
	}
	total := b.N
	quota := make([]int, nsend)
	for i := 0; i < nsend; i++ {
		quota[i] = total / nsend
	}
	quota[0] += total % nsend
	// In-flight window per sender, small enough that the receive buffers
	// absorb every burst (loopback loss would skew the timing): 8 MiB of
	// buffer holds several thousand 512 B datagrams even with kernel
	// skb overhead.
	const window = 1024

	b.ReportAllocs()
	b.ResetTimer()
	var sent atomic.Uint64
	var sendWG sync.WaitGroup
	senders := make([]*sender, nsend)
	for i := 0; i < nsend; i++ {
		src, err := newEphemeral()
		if err != nil {
			b.Fatal(err)
		}
		defer src.Close()
		rawSrc, err := src.SyscallConn()
		if err != nil {
			b.Fatal(err)
		}
		sn := newSender(src, rawSrc, batch)
		senders[i] = sn
		sendWG.Add(1)
		go func(q int) {
			defer sendWG.Done()
			for done := 0; done < q; {
				if sent.Load()-received.Load() > window*uint64(nsend) {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				n := q - done
				if n > batch {
					n = batch
				}
				sn.sendTo(addr, pkts[:n])
				done += n
				sent.Add(uint64(n))
			}
		}(quota[i])
	}
	sendWG.Wait()
	// Drain the tail: wait until the receivers have caught up (or
	// stalled, if the kernel dropped anything despite the window).
	stallAt := time.Now()
	for last := received.Load(); received.Load() < uint64(total); {
		if r := received.Load(); r != last {
			last, stallAt = r, time.Now()
		}
		if time.Since(stallAt) > 500*time.Millisecond {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()

	got := received.Load()
	b.ReportMetric(float64(got)/b.Elapsed().Seconds(), "dg/s")
	var sendSys, sendDg uint64
	for _, sn := range senders {
		sendSys += sn.syscalls
		sendDg += sn.datagrams
	}
	if sendSys > 0 {
		b.ReportMetric(float64(sendDg)/float64(sendSys), "dg/sendmmsg")
	}
	stopped.Store(1)
	for _, c := range conns {
		c.Close()
	}
	readerWG.Wait()
	if got < uint64(total)*9/10 {
		b.Fatalf("received %d of %d datagrams; loopback dropped past the window", got, total)
	}
}

// BenchmarkLoopbackDurableThroughput runs a 3-node cluster whose WALs
// fsync (FileStorage with sync on), group-committed, under closed-loop
// concurrent clients. fsyncs/req is the gated output: group commit must
// amortize one fsync over many committed requests (the per-record
// baseline is >= 1 fsync per request on the leader alone).
func BenchmarkLoopbackDurableThroughput(b *testing.B) {
	probe, err := newEphemeral()
	if err != nil {
		b.Skipf("loopback UDP unavailable: %v", err)
	}
	probe.Close()

	ports := freePorts(b, 3)
	peers := make(map[uint32]string, 3)
	for i := 0; i < 3; i++ {
		peers[uint32(i+1)] = ports[i]
	}
	var servers []*Server
	var stores []*raft.FileStorage
	for id := uint32(1); id <= 3; id++ {
		fs, _, err := raft.OpenFileStorage(b.TempDir(), true)
		if err != nil {
			b.Fatal(err)
		}
		fs.GroupCommit(256, 0)
		stores = append(stores, fs)
		s, err := NewServer(ServerConfig{
			ID: id, Peers: peers, Mode: core.ModeHovercraft,
			Storage:       fs,
			Sockets:       2,
			RecvBatch:     128,
			TickInterval:  2 * time.Millisecond,
			ElectionTicks: 20, HeartbeatTicks: 4,
		}, &counterService{})
		if err != nil {
			b.Fatal(err)
		}
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	servers[0].Campaign()
	waitForLeader(b, servers)

	const workers = 128
	clients := make([]*Client, workers)
	for i := range clients {
		clients[i] = dialCluster(b, peers)
		defer clients[i].Close()
	}
	if _, err := clients[0].Call([]byte("incr"), false); err != nil {
		b.Fatal(err)
	}

	syncsBefore := uint64(0)
	for _, fs := range stores {
		syncsBefore += fs.SyncCount()
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := cl.Call([]byte("incr"), false); err != nil {
					b.Error(err)
					return
				}
			}
		}(clients[i])
	}
	wg.Wait()
	b.StopTimer()
	syncsAfter := uint64(0)
	for _, fs := range stores {
		syncsAfter += fs.SyncCount()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(syncsAfter-syncsBefore)/float64(b.N), "fsyncs/req")
}
