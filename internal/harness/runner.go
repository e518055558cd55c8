// Package harness defines one reproducible experiment per table and
// figure of the HovercRaft paper's evaluation (§7) and the machinery to
// run them: cluster assembly, multi-client open-loop load, rate sweeps,
// and throughput-under-SLO extraction.
//
// Calibration follows the paper's testbed: 10GbE NICs, ≤10µs one-way
// hardware latency, 500µs p99 SLO, open-loop Poisson clients (Lancet).
// Absolute numbers depend on the simulator's constants; the experiment
// *shapes* (who wins, by what factor, where crossovers fall) are the
// reproduction targets recorded in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"math"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/kvstore"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/shard"
	"hovercraft/internal/simcluster"
	"hovercraft/internal/simnet"
	"hovercraft/internal/stats"
	"hovercraft/internal/ycsb"
)

// SLO is the paper's service-level objective: 500µs at the 99th
// percentile.
const SLO = 500 * time.Microsecond

// SystemSpec names one of the four evaluated systems plus its knobs.
type SystemSpec struct {
	Label          string
	Setup          simcluster.Setup
	Nodes          int
	DisableReplyLB bool
	Policy         core.SelectPolicy
	Bound          int
	FlowLimit      int
	// ReadLease enables the leader-lease/read-index lin-read fast path
	// and points every client's LIN_READ traffic round-robin across the
	// cluster (followers serve reads locally once their applied index
	// passes a leader-confirmed read index).
	ReadLease bool
	// ReadStalenessBudget lets followers reuse a fetched read index for
	// this long before another leader round (amortizes one round across
	// many reads). Zero means every follower read fetches.
	ReadStalenessBudget time.Duration
	// Groups shards the keyspace over this many HovercRaft groups of
	// Replication replicas placed over the Nodes pool, with shard-aware
	// clients routing every request by key (the workload must be
	// keyed). Zero is one unsharded group with no routing.
	Groups      int
	Replication int
}

// Unrep returns the unreplicated baseline spec.
func Unrep() SystemSpec {
	return SystemSpec{Label: "UnRep", Setup: simcluster.SetupUnreplicated, Nodes: 1}
}

// Vanilla returns the VanillaRaft spec on n nodes.
func Vanilla(n int) SystemSpec {
	return SystemSpec{Label: "VanillaRaft", Setup: simcluster.SetupVanilla, Nodes: n}
}

// Hovercraft returns the HovercRaft spec on n nodes. Reply load balancing
// is disabled to isolate protocol overheads, matching §7.1; enable it via
// the field for the load-balancing experiments.
func Hovercraft(n int) SystemSpec {
	return SystemSpec{Label: "HovercRaft", Setup: simcluster.SetupHovercraft,
		Nodes: n, DisableReplyLB: true}
}

// HovercraftPP returns the HovercRaft++ spec on n nodes (reply LB
// disabled as in §7.1; enable for §7.3+).
func HovercraftPP(n int) SystemSpec {
	return SystemSpec{Label: "HovercRaft++", Setup: simcluster.SetupHovercraftPP,
		Nodes: n, DisableReplyLB: true}
}

// WorkloadSpec builds per-run workload state: the client-side generator,
// the per-replica service (one per node and group), and any preload
// dataset.
type WorkloadSpec interface {
	NewWorkload(unreplicated bool) loadgen.Workload
	NewService(group int) (app.Service, app.CostModel)
	Preload() [][]byte
	Describe() string
}

// SyntheticSpec is the microbenchmark workload (§7.1–§7.4).
type SyntheticSpec struct {
	Service   loadgen.Dist
	ReqSize   int
	ReplySize int
	ReadFrac  float64
}

// NewWorkload implements WorkloadSpec.
func (s SyntheticSpec) NewWorkload(unrep bool) loadgen.Workload {
	return &loadgen.Synthetic{
		ServiceTime: s.Service, ReqSize: s.ReqSize, ReplySize: s.ReplySize,
		ReadFraction: s.ReadFrac, Unreplicated: unrep,
	}
}

// NewService implements WorkloadSpec.
func (s SyntheticSpec) NewService(int) (app.Service, app.CostModel) {
	svc := &app.SynthService{}
	return svc, svc
}

// Preload implements WorkloadSpec.
func (s SyntheticSpec) Preload() [][]byte { return nil }

// Describe implements WorkloadSpec.
func (s SyntheticSpec) Describe() string {
	return fmt.Sprintf("synthetic S=%v req=%dB reply=%dB ro=%.0f%%",
		s.Service.Mean(), s.ReqSize, s.ReplySize, 100*s.ReadFrac)
}

// YCSBESpec is the Redis/YCSB-E workload (§7.5).
type YCSBESpec struct {
	Records uint64
}

// NewWorkload implements WorkloadSpec. All clients share the generator
// (single-threaded simulation keeps it deterministic), so INSERT keys
// stay unique across clients.
func (y *YCSBESpec) NewWorkload(unrep bool) loadgen.Workload {
	return &loadgen.YCSBE{Gen: ycsb.NewWorkloadE(y.Records), Unreplicated: unrep}
}

// NewService implements WorkloadSpec.
func (y *YCSBESpec) NewService(int) (app.Service, app.CostModel) {
	s := kvstore.New()
	return s, s
}

// Preload implements WorkloadSpec.
func (y *YCSBESpec) Preload() [][]byte {
	ops := ycsb.NewWorkloadE(y.Records).LoadOps()
	payloads := make([][]byte, len(ops))
	for i, op := range ops {
		payloads[i] = op.Payload
	}
	return payloads
}

// Describe implements WorkloadSpec.
func (y *YCSBESpec) Describe() string {
	return fmt.Sprintf("YCSB-E 95%%SCAN/5%%INSERT %d records", y.Records)
}

// YCSBMixSpec is one of the YCSB read-heavy core mixes (§ readscale):
// B (95% read / 5% update), C (100% read), D (95% read / 5% insert,
// latest-skewed).
type YCSBMixSpec struct {
	Mix     string // "B", "C", or "D"
	Records uint64
	// LinReads tags reads LIN_READ so they take the leader-lease fast
	// path; otherwise reads are REPLICATED_REQ_R and order through the
	// log like every other request.
	LinReads bool
}

func (y *YCSBMixSpec) gen() *ycsb.Mix {
	switch y.Mix {
	case "B":
		return ycsb.NewWorkloadB(y.Records)
	case "D":
		return ycsb.NewWorkloadD(y.Records)
	default:
		return ycsb.NewWorkloadC(y.Records)
	}
}

// NewWorkload implements WorkloadSpec. As with YCSB-E, all clients
// share one generator so INSERT keys stay unique across clients.
func (y *YCSBMixSpec) NewWorkload(unrep bool) loadgen.Workload {
	return &loadgen.YCSBMix{Gen: y.gen(), LinReads: y.LinReads && !unrep}
}

// NewService implements WorkloadSpec.
func (y *YCSBMixSpec) NewService(int) (app.Service, app.CostModel) {
	s := kvstore.New()
	return s, s
}

// Preload implements WorkloadSpec.
func (y *YCSBMixSpec) Preload() [][]byte {
	ops := y.gen().LoadOps()
	payloads := make([][]byte, len(ops))
	for i, op := range ops {
		payloads[i] = op.Payload
	}
	return payloads
}

// Describe implements WorkloadSpec.
func (y *YCSBMixSpec) Describe() string {
	return fmt.Sprintf("YCSB-%s %d records (lin-reads=%v)", y.Mix, y.Records, y.LinReads)
}

// RunConfig sets measurement parameters.
type RunConfig struct {
	Seed     int64
	Warmup   time.Duration
	Duration time.Duration
	// Clients spreads offered load over several generator hosts so the
	// client side never bottlenecks.
	Clients int
	// ClientLinkBps upgrades client NICs for reply-heavy workloads.
	ClientLinkBps int64
	// SampleEvery enables time-series capture (Fig. 12).
	SampleEvery time.Duration
	// Retries/RetryBackoff configure client retransmission: a timed-out
	// request is re-sent under its original R2P2 ID up to Retries times
	// with exponential backoff, and the server-side dedup cache makes the
	// retried write apply exactly once. Zero Retries disables the path.
	Retries      int
	RetryBackoff time.Duration
	// OnComplete is installed on every client: called once per answered
	// request with its payload (failure experiments audit acked ops
	// against the replicas' final state).
	OnComplete func(payload []byte)
	// OnCluster runs right after Start (failure injection etc).
	OnCluster func(c *simcluster.Cluster)
	// Obs, if non-nil, traces the run: request lifecycle stamps across
	// cluster and clients, plus the structured cluster event log.
	Obs *obs.Obs
}

func (rc *RunConfig) defaults() {
	if rc.Warmup <= 0 {
		rc.Warmup = 20 * time.Millisecond
	}
	if rc.Duration <= 0 {
		rc.Duration = 80 * time.Millisecond
	}
	if rc.Clients <= 0 {
		rc.Clients = 4
	}
}

// Point is one measurement of a system at one offered load.
type Point struct {
	OfferedKRPS  float64
	AchievedKRPS float64
	P99          time.Duration
	P50          time.Duration
	NackKRPS     float64
	LossKRPS     float64
}

func (p Point) String() string {
	return fmt.Sprintf("offered=%.0fk achieved=%.0fk p50=%v p99=%v",
		p.OfferedKRPS, p.AchievedKRPS, p.P50, p.P99)
}

// Curve is a labeled latency-vs-throughput curve.
type Curve struct {
	Label  string
	Points []Point
}

// MaxUnderSLO returns the highest achieved kRPS whose p99 met the SLO
// while the system kept up with offered load (≥95%, saturation guard).
func (c Curve) MaxUnderSLO(slo time.Duration) float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.P99 <= slo && p.AchievedKRPS >= 0.95*p.OfferedKRPS && p.AchievedKRPS > best {
			best = p.AchievedKRPS
		}
	}
	return best
}

// RunResult bundles a point with the cluster it came from (counters etc).
type RunResult struct {
	Point   Point
	Cluster *simcluster.Cluster
	Clients []*loadgen.Client
	Hist    *stats.Histogram
}

// RunPoint builds a cluster, offers rate RPS for the configured window,
// and reports the merged measurement.
func RunPoint(sys SystemSpec, wl WorkloadSpec, rate float64, rc RunConfig) RunResult {
	rc.defaults()
	serverHost := simnet.DefaultHostConfig()
	// Consensus-message construction copies and encodes every entry
	// byte (~1.7 GB/s single-core); client replies are transmitted
	// zero-copy from application buffers. This is what makes
	// body-carrying replication expensive at the leader (Fig. 8/9)
	// while 6kB replies stay NIC-bound, not CPU-bound (Fig. 10).
	serverHost.ProcBytesPerSec = 1_670_000_000
	serverHost.ProcFilter = consensusPayload
	cl := simcluster.New(simcluster.Options{
		Setup: sys.Setup, Groups: sys.Groups, Nodes: sys.Nodes, Replication: sys.Replication,
		Seed: rc.Seed, Host: serverHost,
		Bound: sys.Bound, Policy: sys.Policy,
		DisableReplyLB:      sys.DisableReplyLB,
		FlowLimit:           sys.FlowLimit,
		ReadLease:           sys.ReadLease,
		ReadStalenessBudget: sys.ReadStalenessBudget,
		NewService:          wl.NewService,
		Preload:             wl.Preload(),
		Obs:                 rc.Obs,
	})
	unrep := sys.Setup == simcluster.SetupUnreplicated
	workload := wl.NewWorkload(unrep)
	clientCfg := simnet.DefaultHostConfig()
	if rc.ClientLinkBps > 0 {
		clientCfg.LinkBps = rc.ClientLinkBps
		clientCfg.EgressQueue *= 4
		clientCfg.IngressQueue *= 4
	}
	var readTargets []simnet.Addr
	if sys.ReadLease {
		readTargets = cl.NodeAddrs()
	}
	var router *shard.Router
	if sys.Groups > 0 {
		router = shard.NewRouter(cl.Map, nil)
	}
	var clients []*loadgen.Client
	for i := 0; i < rc.Clients; i++ {
		c := loadgen.NewClient(cl.Net, fmt.Sprintf("client%d", i), clientCfg, loadgen.ClientConfig{
			Rate:   rate / float64(rc.Clients),
			Warmup: rc.Warmup, Duration: rc.Duration,
			Timeout:      20 * time.Millisecond,
			Retries:      rc.Retries,
			RetryBackoff: rc.RetryBackoff,
			OnComplete:   rc.OnComplete,
			Workload:     workload,
			Target:       cl.ServiceAddr,
			ReadTargets:  readTargets,
			Router:       router,
			Port:         uint16(1000 + i),
			SampleEvery: func() time.Duration {
				return rc.SampleEvery
			}(),
			Obs: rc.Obs,
		})
		clients = append(clients, c)
	}
	cl.Start()
	for _, c := range clients {
		c.Start()
	}
	if rc.OnCluster != nil {
		rc.OnCluster(cl)
	}
	cl.Run(rc.Warmup + rc.Duration + 40*time.Millisecond)

	hist := loadgen.MergeHistograms(clients)
	var offered, achieved, nacked, lost float64
	for _, c := range clients {
		r := c.Result()
		offered += r.Offered
		achieved += r.Achieved
		nacked += r.NackRate
		lost += r.LossRate
	}
	sum := hist.Summary()
	return RunResult{
		Point: Point{
			OfferedKRPS:  offered / 1000,
			AchievedKRPS: achieved / 1000,
			P99:          sum.P99,
			P50:          sum.P50,
			NackKRPS:     nacked / 1000,
			LossKRPS:     lost / 1000,
		},
		Cluster: cl,
		Clients: clients,
		Hist:    hist,
	}
}

// RunCurve sweeps offered rates and returns the resulting curve.
func RunCurve(sys SystemSpec, wl WorkloadSpec, rates []float64, rc RunConfig) Curve {
	c := Curve{Label: label(sys)}
	for _, r := range rates {
		res := RunPoint(sys, wl, r, rc)
		c.Points = append(c.Points, res.Point)
	}
	return c
}

// consensusPayload reports whether an encoded R2P2 datagram carries a
// consensus message (byte 2 of the header is the message type).
func consensusPayload(p []byte) bool {
	if len(p) < r2p2.HeaderSize {
		return false
	}
	t := r2p2.MessageType(p[2])
	return t == r2p2.TypeRaftReq || t == r2p2.TypeRaftResp
}

func label(sys SystemSpec) string {
	if sys.Nodes > 1 {
		return fmt.Sprintf("%s N=%d", sys.Label, sys.Nodes)
	}
	return sys.Label
}

// Linspace returns n evenly spaced rates in [lo, hi].
func Linspace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{hi}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// SweepRates spaces n rates from 30% of cap to cap, denser near cap —
// the interesting region of an open-loop latency/throughput curve is
// just below saturation, and a lone point exactly at ρ=1 would make
// max-under-SLO estimates collapse to the previous sparse point.
func SweepRates(cap float64, n int) []float64 {
	if n == 1 {
		return []float64{cap}
	}
	out := make([]float64, n)
	for i := range out {
		x := float64(i) / float64(n-1)
		out[i] = cap * (0.3 + 0.7*math.Pow(x, 0.6))
	}
	return out
}
