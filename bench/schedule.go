package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"time"

	"hovercraft/internal/kvstore"
	"hovercraft/internal/ycsb"
)

const (
	numKeys = 1000
	// maxOutstanding bounds the open-loop generator: a request due while
	// this many are already in flight is refused and counted as failed,
	// so an overloaded cluster shows up as fail_share, not as unbounded
	// goroutine growth.
	maxOutstanding = 4096
	// preloadFlag marks the op id of a preload write (low bits = key).
	preloadFlag = uint64(1) << 63
)

// workload describes one traffic shape. Every field is fixed here, not
// on the command line: a workload name means the same thing in every
// run anyone cites. README.md and BENCHMARK.json say why each exists.
type workload struct {
	name        string
	open        bool    // open-loop Poisson vs closed loop
	rate        float64 // offered req/s (open loop)
	outstanding int     // concurrent writers (closed loop)
	clients     int     // client sockets
	valueSize   int     // SET value bytes (first 8 are the op id)
	readMix     bool    // YCSB-B shape: 95% GET via CallRead, 5% SET
	durable     bool    // FileStorage(sync) + GroupCommit(256, 0)
}

var workloads = []workload{
	// Mostly idle: latency is tick pacing plus kernel hops.
	{name: "write_open_2k", open: true, rate: 2000, clients: 1, valueSize: 16},
	// CPU-bound: per-request CPU sets the rate.
	{name: "write_sat_128", outstanding: 128, clients: 2, valueSize: 16},
	// Reads bypass log, replication and WAL; 5% writes move the read index.
	{name: "readmix_open_12k", open: true, rate: 12000, clients: 1, valueSize: 16, readMix: true},
	// The only one with WAL append and fsync on the commit path.
	{name: "durable_open_2k", open: true, rate: 2000, clients: 1, valueSize: 1024, durable: true},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// SLO limits for client.slo_miss_share. The paper's 500µs is out of
// reach of this plane at a 1ms tick, so the limits are ms-scale.
const (
	sloWrite = 5 * time.Millisecond
	sloRead  = 2 * time.Millisecond
)

// schedule is the complete input of one run, built from the seed before
// the clock starts: payload bytes, class, key and due offset of every
// request. The cluster sees only these bytes.
type schedule struct {
	n       int
	arena   []byte   // all payloads back to back (no pointers for the GC to scan)
	off     []uint32 // n+1 offsets into arena
	read    []bool   // class: GET via CallRead vs SET via Call
	key     []uint16
	due     []int64 // ns from run start; open loop only
	keys    []string
	preload [][]byte
	valSize int
}

func (s *schedule) payload(i int) []byte { return s.arena[s.off[i]:s.off[i+1]] }

func workloadSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed*1000003 + int64(h.Sum64()>>1)
}

// closedLoopOpsPerSec sizes a closed-loop schedule: comfortably above
// what this plane saturates at, so the run never exhausts its inputs.
const closedLoopOpsPerSec = 80000

// buildSchedule generates the run's inputs. span covers warm-up plus
// the measured window.
func buildSchedule(w *workload, seed int64, span time.Duration) *schedule {
	rng := rand.New(rand.NewSource(workloadSeed(seed, w.name)))
	s := &schedule{valSize: w.valueSize, keys: make([]string, numKeys)}
	keyIdx := make(map[string]uint16, numKeys)
	for k := range s.keys {
		s.keys[k] = ycsb.Key(uint64(k))
		keyIdx[s.keys[k]] = uint16(k)
	}
	val := make([]byte, w.valueSize)
	fill := func(id uint64) []byte {
		binary.BigEndian.PutUint64(val, id)
		rng.Read(val[8:])
		return val
	}
	s.preload = make([][]byte, numKeys)
	for k := range s.preload {
		s.preload[k] = kvstore.EncodeSet(s.keys[k], fill(preloadFlag|uint64(k)))
	}

	var n int
	if w.open {
		n = int(w.rate*span.Seconds()*1.02) + 64
	} else {
		n = int(closedLoopOpsPerSec * span.Seconds())
	}
	s.off = make([]uint32, 1, n+1)
	s.read = make([]bool, 0, n)
	s.key = make([]uint16, 0, n)
	perOp := 1 + 2 + len(s.keys[0]) + 4 + w.valueSize
	s.arena = make([]byte, 0, n*perOp)
	var mix *ycsb.Mix
	if w.readMix {
		mix = ycsb.NewWorkloadB(numKeys)
	}
	var at float64 // seconds
	for i := 0; ; i++ {
		if w.open {
			at += rng.ExpFloat64() / w.rate
			if at >= span.Seconds() {
				break
			}
			s.due = append(s.due, int64(at*1e9))
		} else if i >= n {
			break
		}
		id := uint64(i + 1)
		var k uint16
		read := false
		if mix != nil {
			op := mix.Next(rng)
			k, read = keyIdx[op.Key], op.ReadOnly
		} else {
			k = uint16(rng.Intn(numKeys))
		}
		if read {
			// GET ignores bytes after the key, which is where the op id rides.
			s.arena = append(s.arena, kvstore.EncodeGet(s.keys[k])...)
			s.arena = binary.BigEndian.AppendUint64(s.arena, id)
		} else {
			s.arena = append(s.arena, kvstore.EncodeSet(s.keys[k], fill(id))...)
		}
		s.off = append(s.off, uint32(len(s.arena)))
		s.read = append(s.read, read)
		s.key = append(s.key, k)
	}
	s.n = len(s.read)
	return s
}

// opIDOf extracts the op id a payload carries (0 when it carries none).
func opIDOf(p []byte) uint64 {
	if len(p) < 3 {
		return 0
	}
	klen := int(binary.BigEndian.Uint16(p[1:3]))
	at := 3 + klen
	if kvstore.OpCode(p[0]) == kvstore.OpSet {
		at += 4
	}
	if len(p) < at+8 {
		return 0
	}
	return binary.BigEndian.Uint64(p[at:])
}
