package harness

import (
	"fmt"
	"time"

	"hovercraft/internal/simcluster"
	"hovercraft/internal/stats"
)

// ReadStalenessBudget is the follower read-index refresh throttle the
// readscale experiment runs with: at most one leader round per budget
// window, shared by every read arriving within it. Reads stay strictly
// linearizable (each is served against an index captured after its
// arrival); the budget only bounds the extra queueing a read absorbs
// waiting for the next refresh.
const ReadStalenessBudget = 50 * time.Microsecond

// readscaleRecords keeps the kvstore small enough that point reads stay
// microsecond-scale but large enough that the Zipf head doesn't
// degenerate to one key.
const readscaleRecords = 2000

// HovercraftLease is the read scale-out system: HovercRaft with the
// leader-lease/read-index fast path on, clients spreading LIN_READs
// round-robin across all n replicas.
func HovercraftLease(n int) SystemSpec {
	s := Hovercraft(n)
	s.Label = "HovercRaft+lease"
	s.ReadLease = true
	s.ReadStalenessBudget = ReadStalenessBudget
	return s
}

// readCounter sums one read-path counter across every cluster node.
func readCounter(cl *simcluster.Cluster, name string) uint64 {
	var sum uint64
	for _, n := range cl.Nodes {
		sum += n.Engines[0].Counters().Value(name)
	}
	return sum
}

// ReadscalePoint is one readscale measurement: the usual point plus the
// read/write class split and the cluster-side read-path counters.
type ReadscalePoint struct {
	Point          Point
	ReadKRPS       float64 // read-class goodput
	WriteP99       time.Duration
	ReadP99        time.Duration
	LeaderServed   uint64
	FollowerServed uint64
	Amortized      uint64 // follower reads that shared a leader round
	Nacked         uint64
	StaleServed    uint64 // invariant: must be 0
	Redirects      uint64 // client-side NACK→next-replica retries
}

// RunReadscalePoint measures one system at one offered load and breaks
// the result down by request class.
func RunReadscalePoint(sys SystemSpec, wl WorkloadSpec, rate float64, rc RunConfig) ReadscalePoint {
	res := RunPoint(sys, wl, rate, rc)
	var reads, redirects uint64
	for _, c := range res.Clients {
		reads += c.CompletedReads
		redirects += c.ReadRedirects
	}
	d := rc.Duration
	if d <= 0 {
		d = 80 * time.Millisecond // RunConfig default
	}
	return ReadscalePoint{
		Point:          res.Point,
		ReadKRPS:       float64(reads) / d.Seconds() / 1000,
		WriteP99:       loadgenWriteP99(res),
		ReadP99:        loadgenReadP99(res),
		LeaderServed:   readCounter(res.Cluster, "read_leader_served"),
		FollowerServed: readCounter(res.Cluster, "read_follower_served"),
		Amortized:      readCounter(res.Cluster, "read_amortized"),
		Nacked:         readCounter(res.Cluster, "read_nacked"),
		StaleServed:    readCounter(res.Cluster, "read_stale_served"),
		Redirects:      redirects,
	}
}

func loadgenWriteP99(res RunResult) time.Duration {
	h := stats.NewHistogram()
	for _, c := range res.Clients {
		h.Merge(c.WriteLatency)
	}
	return h.Summary().P99
}

func loadgenReadP99(res RunResult) time.Duration {
	h := stats.NewHistogram()
	for _, c := range res.Clients {
		h.Merge(c.ReadLatency)
	}
	return h.Summary().P99
}

// readscaleCurve sweeps one system over rates on YCSB-C and returns the
// curve (read goodput == achieved goodput: the mix is 100% reads).
func readscaleCurve(sys SystemSpec, rates []float64, rc RunConfig, linReads bool) Curve {
	wl := &YCSBMixSpec{Mix: "C", Records: readscaleRecords, LinReads: linReads}
	c := Curve{Label: label(sys)}
	for _, r := range rates {
		res := RunPoint(sys, wl, r, rc)
		c.Points = append(c.Points, res.Point)
	}
	return c
}

// Readscale is the linearizable read scale-out experiment: YCSB-C
// (100% point reads) against N=4 HovercRaft, leader-only log-ordered
// reads vs the leader-lease/read-index fast path with follower-served
// reads. The lease path should scale read goodput toward (N-1)x the
// log path — every replica serves reads from local state after one
// (amortized) read-index round — while YCSB-B shows replicated writes
// keeping their 500µs p99 SLO alongside the read traffic, and the
// stale-read counter stays zero.
func Readscale(sc Scale) *Report {
	const n = 4
	cfg := sc.runCfg()

	rep := &Report{
		ID:    "readscale",
		Title: fmt.Sprintf("Linearizable read scale-out: leased read-index, YCSB-C, N=%d", n),
		PaperClaim: "log-ordered reads bottleneck on the leader's replication path; " +
			"a leader-leased read index lets every replica serve linearizable reads " +
			"locally, scaling read goodput with cluster size while writes keep the " +
			"500µs p99 SLO and no stale read is ever served",
	}

	// Baseline: reads ordered through the log (REPLICATED_REQ_R), leader
	// executes and replies. Sweep to find its capacity under SLO.
	base := readscaleCurve(Hovercraft(n), SweepRates(400_000, sc.Points), cfg, false)
	baseCap := base.MaxUnderSLO(SLO)

	// Treatment: leased read index, reads spread over all N replicas.
	leaseRates := SweepRates(4.5*baseCap*1000, sc.Points)
	if baseCap == 0 {
		leaseRates = SweepRates(1_200_000, sc.Points)
	}
	lease := readscaleCurve(HovercraftLease(n), leaseRates, cfg, true)
	leaseCap := lease.MaxUnderSLO(SLO)

	rep.Curves = append(rep.Curves, base, lease)
	rep.Tables = append(rep.Tables,
		CurveTable("YCSB-C read goodput sweep", []Curve{base, lease}),
		SLOTable("Readscale", []Curve{base, lease}, SLO))
	ratio := 0.0
	if baseCap > 0 {
		ratio = leaseCap / baseCap
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"read goodput under SLO: log-ordered %.0f kRPS, leased read-index %.0f kRPS — %.2fx (target ≥2.5x at N=%d)",
		baseCap, leaseCap, ratio, n))

	// Read-path anatomy at ~80%% of lease capacity: who served the reads,
	// how often the staleness cache absorbed the leader round, and the
	// stale-read invariant.
	probeRate := 0.8 * leaseCap * 1000
	if probeRate <= 0 {
		probeRate = 200_000
	}
	anatomy := RunReadscalePoint(HovercraftLease(n),
		&YCSBMixSpec{Mix: "C", Records: readscaleRecords, LinReads: true}, probeRate, cfg)
	served := anatomy.LeaderServed + anatomy.FollowerServed
	frac := 0.0
	if served > 0 {
		frac = float64(anatomy.FollowerServed) / float64(served)
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Read-path anatomy at %.0f kRPS (YCSB-C, leased)", probeRate/1000),
		Headers: []string{"read k/s", "read p99", "leader", "follower", "follower frac",
			"amortized", "nacked", "redirects", "stale"},
	}
	t.AddRow(fmt.Sprintf("%.0f", anatomy.ReadKRPS), anatomy.ReadP99.String(),
		fmt.Sprintf("%d", anatomy.LeaderServed), fmt.Sprintf("%d", anatomy.FollowerServed),
		fmt.Sprintf("%.0f%%", 100*frac),
		fmt.Sprintf("%d", anatomy.Amortized), fmt.Sprintf("%d", anatomy.Nacked),
		fmt.Sprintf("%d", anatomy.Redirects), fmt.Sprintf("%d", anatomy.StaleServed))
	rep.Tables = append(rep.Tables, t)
	if anatomy.StaleServed != 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"INVARIANT VIOLATION: read_stale_served=%d (must be 0)", anatomy.StaleServed))
	}

	// Mixed mixes: B (5%% writes) and D (5%% inserts, latest-skewed reads)
	// at a moderate rate — the write tail must stay inside the SLO while
	// lin-reads flow around the log.
	mixT := &stats.Table{
		Title: "Read-heavy mixes with leased reads (write tail must hold the SLO)",
		Headers: []string{"mix", "offered k", "goodput k", "read k/s", "read p99",
			"write p99", "follower frac", "stale"},
	}
	mixRate := 0.5 * leaseCap * 1000
	if mixRate <= 0 {
		mixRate = 150_000
	}
	for _, mix := range []string{"B", "D"} {
		p := RunReadscalePoint(HovercraftLease(n),
			&YCSBMixSpec{Mix: mix, Records: readscaleRecords, LinReads: true}, mixRate, cfg)
		served := p.LeaderServed + p.FollowerServed
		frac := 0.0
		if served > 0 {
			frac = float64(p.FollowerServed) / float64(served)
		}
		mixT.AddRow("YCSB-"+mix,
			fmt.Sprintf("%.0f", p.Point.OfferedKRPS),
			fmt.Sprintf("%.0f", p.Point.AchievedKRPS),
			fmt.Sprintf("%.0f", p.ReadKRPS), p.ReadP99.String(), p.WriteP99.String(),
			fmt.Sprintf("%.0f%%", 100*frac), fmt.Sprintf("%d", p.StaleServed))
		if p.StaleServed != 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"INVARIANT VIOLATION: YCSB-%s read_stale_served=%d (must be 0)", mix, p.StaleServed))
		}
	}
	rep.Tables = append(rep.Tables, mixT)
	return rep
}
