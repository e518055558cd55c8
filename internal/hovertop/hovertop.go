package hovertop

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric families hovertop understands, as emitted by obs.WritePrometheus
// from transport.(*Server).RegisterMetrics. Everything else in a scrape
// is ignored, so nodes may expose more than the scraper consumes.
const (
	famNodeID    = "hovercraft_node_id"
	famShards    = "hovercraft_shards"
	famIsLeader  = "hovercraft_raft_is_leader"
	famTerm      = "hovercraft_raft_term"
	famCommit    = "hovercraft_raft_commit_index"
	famApplied   = "hovercraft_raft_applied_index"
	famFsyncs    = "hovercraft_wal_fsyncs_total"
	famRxReq     = "hovercraft_engine_rx_req_total"
	famAEBound   = "hovercraft_engine_tx_ae_boundary_total"
	famAETick    = "hovercraft_engine_tx_ae_tick_total"
	famWinCount  = "hovercraft_qdelay_window_count"
	famWinP50    = "hovercraft_qdelay_window_p50_ns"
	famWinP99    = "hovercraft_qdelay_window_p99_ns"
	famWinP999   = "hovercraft_qdelay_window_p999_ns"
	famWinMax    = "hovercraft_qdelay_window_max_ns"
	famSLOBurn   = "hovercraft_qdelay_slo_burn"
	famSLOThresh = "hovercraft_qdelay_slo_threshold_ns"

	// Admission-control families (leader-side admission on hovernode,
	// middlebox admission in the simulated clusters).
	famAdmWindow   = "hovercraft_admission_window"
	famAdmInflight = "hovercraft_admission_inflight"
	famAdmHint     = "hovercraft_admission_retry_after_ns"
	famAdmP99      = "hovercraft_admission_signal_p99_ns"
	famAdmBurn     = "hovercraft_admission_signal_burn"
	famAdmAdmitted = "hovercraft_admission_admitted_total"
	famAdmNacked   = "hovercraft_admission_nacked_total"
)

// StageView is one pipeline stage of one raft group, merged across
// every replica that reported it: counts sum, tails and burn take the
// worst node (the fleet question is "where is the slowest hand-off",
// not the average).
type StageView struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50Ns  int64   `json:"p50_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MaxNs  int64   `json:"max_ns"`
	Burn   float64 `json:"slo_burn"`
}

// AdmissionView is one group's admission-control state merged across
// nodes: counters sum (total shed across the fleet), gauges take the
// worst/most-loaded node — only the admitting node (leader or
// middlebox) reports nonzero gauges anyway.
type AdmissionView struct {
	Window       int     `json:"window"`
	Inflight     int     `json:"inflight"`
	RetryAfterNs int64   `json:"retry_after_ns"`
	SignalP99Ns  int64   `json:"signal_p99_ns"`
	SignalBurn   float64 `json:"signal_burn"`
	Admitted     uint64  `json:"admitted"`
	Nacked       uint64  `json:"nacked"`
}

// GroupView is one raft group (shard) merged across nodes. AEBoundary
// and AETick split the group's AppendEntries by the clock that emitted
// them: a tick count growing faster than the heartbeat rate means the
// group has fallen back to tick-paced replication.
type GroupView struct {
	Shard       int            `json:"shard"`
	Leader      string         `json:"leader"`         // scrape target of the leader, "" if none seen
	LeaderNode  int            `json:"leader_node_id"` // -1 if unknown
	Term        uint64         `json:"term"`
	Commit      uint64         `json:"commit_index"`
	Applied     uint64         `json:"applied_index"`
	FsyncPerReq float64        `json:"fsync_per_req"` // cluster fsyncs / requests, 0 without a WAL
	Drops       uint64         `json:"drops"`         // every *_drop*_total counter, summed
	AEBoundary  uint64         `json:"ae_boundary"`   // AppendEntries sent at loop boundaries (event-driven)
	AETick      uint64         `json:"ae_tick"`       // AppendEntries sent from ticks (heartbeats, fallback)
	Admission   *AdmissionView `json:"admission,omitempty"`
	Stages      []StageView    `json:"stages"`
}

// NodeView is one scrape target's health.
type NodeView struct {
	Target string `json:"target"`
	Up     bool   `json:"up"`
	Err    string `json:"error,omitempty"`
	NodeID int    `json:"node_id"` // -1 when not exposed
	Shards int    `json:"shards"`
}

// ClusterView is the merged fleet state of one scrape round.
type ClusterView struct {
	Nodes  []NodeView  `json:"nodes"`
	Groups []GroupView `json:"groups"`
}

// JSON renders the view as a deterministic indented snapshot: slices
// are pre-sorted and float fields pre-rounded, so identical cluster
// state marshals to identical bytes.
func (v *ClusterView) JSON() ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// qdelayStage extracts the stage label of a qdelay series.
func qdelayStage(s *Sample) string { return s.Label("stage") }

// shardOf returns the shard label as an int, or -1 when absent.
func shardOf(s *Sample) int {
	lbl := s.Label("shard")
	if lbl == "" {
		return -1
	}
	n, err := strconv.Atoi(lbl)
	if err != nil {
		return -1
	}
	return n
}

// Scrape is one target's fetch outcome.
type Scrape struct {
	Target  string
	Err     error
	Samples []Sample
}

// Scraper polls a fixed fleet of /metrics endpoints.
type Scraper struct {
	Targets []string
	Client  *http.Client
}

// NewScraper builds a scraper for the given targets. A target is a
// host:port (scraped at http://host:port/metrics) or a full URL.
func NewScraper(targets []string, timeout time.Duration) *Scraper {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Scraper{Targets: targets, Client: &http.Client{Timeout: timeout}}
}

// targetURL normalizes a target into a scrape URL.
func targetURL(target string) string {
	if !strings.Contains(target, "://") {
		return "http://" + target + "/metrics"
	}
	if strings.Count(target, "/") <= 2 { // scheme://host[:port], no path
		return target + "/metrics"
	}
	return target
}

// ScrapeAll fetches every target concurrently and returns the scrapes
// in target order, so downstream merging is order-stable no matter
// which response arrived first.
func (sc *Scraper) ScrapeAll() []Scrape {
	out := make([]Scrape, len(sc.Targets))
	var wg sync.WaitGroup
	for i, t := range sc.Targets {
		wg.Add(1)
		go func(i int, t string) {
			defer wg.Done()
			out[i] = Scrape{Target: t}
			resp, err := sc.Client.Get(targetURL(t))
			if err != nil {
				out[i].Err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out[i].Err = fmt.Errorf("status %s", resp.Status)
				return
			}
			samples, err := ParseMetrics(resp.Body)
			if err != nil {
				out[i].Err = err
				return
			}
			out[i].Samples = samples
		}(i, t)
	}
	wg.Wait()
	return out
}

// View runs one scrape round and merges it.
func (sc *Scraper) View() *ClusterView { return Merge(sc.ScrapeAll()) }

// groupAcc accumulates one shard's series across nodes during a merge.
type groupAcc struct {
	leader     string
	leaderNode int
	leaderTerm uint64
	term       uint64
	commit     uint64
	applied    uint64
	fsyncs     float64
	reqs       float64
	drops      float64
	aeBound    float64
	aeTick     float64
	adm        *AdmissionView
	stages     map[string]*StageView
}

func (g *groupAcc) admission() *AdmissionView {
	if g.adm == nil {
		g.adm = &AdmissionView{}
	}
	return g.adm
}

// Merge folds per-node scrapes into the cluster view. The fold is
// deterministic: nodes are visited in target order, shards and stages
// in sorted order, and derived ratios are rounded to 4 decimals.
func Merge(scrapes []Scrape) *ClusterView {
	v := &ClusterView{}
	groups := make(map[int]*groupAcc)
	grp := func(shard int) *groupAcc {
		g := groups[shard]
		if g == nil {
			g = &groupAcc{leaderNode: -1, stages: make(map[string]*StageView)}
			groups[shard] = g
		}
		return g
	}
	for _, s := range scrapes {
		nv := NodeView{Target: s.Target, NodeID: -1}
		if s.Err != nil {
			nv.Err = s.Err.Error()
			v.Nodes = append(v.Nodes, nv)
			continue
		}
		nv.Up = true
		nodeID := -1
		shardSet := make(map[int]bool)
		for i := range s.Samples {
			sm := &s.Samples[i]
			shard := shardOf(sm)
			if shard >= 0 {
				shardSet[shard] = true
			}
			switch sm.Name {
			case famNodeID:
				nodeID = int(sm.Value)
			case famShards:
				nv.Shards = int(sm.Value)
			}
		}
		nv.NodeID = nodeID
		if nv.Shards == 0 {
			nv.Shards = len(shardSet)
		}
		for i := range s.Samples {
			sm := &s.Samples[i]
			shard := shardOf(sm)
			if shard < 0 {
				continue
			}
			g := grp(shard)
			switch sm.Name {
			case famIsLeader:
				// A stale leader can linger one scrape after an
				// election; the node at the highest term wins.
				if sm.Value >= 1 {
					term := nodeTerm(s.Samples, shard)
					if g.leader == "" || term > g.leaderTerm {
						g.leader, g.leaderNode, g.leaderTerm = s.Target, nodeID, term
					}
				}
			case famTerm:
				g.term = maxU64(g.term, uint64(sm.Value))
			case famCommit:
				g.commit = maxU64(g.commit, uint64(sm.Value))
			case famApplied:
				g.applied = maxU64(g.applied, uint64(sm.Value))
			case famFsyncs:
				g.fsyncs += sm.Value
			case famRxReq:
				g.reqs += sm.Value
			case famAEBound:
				g.aeBound += sm.Value
			case famAETick:
				g.aeTick += sm.Value
			case famAdmWindow:
				a := g.admission()
				a.Window = int(math.Max(float64(a.Window), sm.Value))
			case famAdmInflight:
				a := g.admission()
				a.Inflight = int(math.Max(float64(a.Inflight), sm.Value))
			case famAdmHint:
				a := g.admission()
				a.RetryAfterNs = maxI64(a.RetryAfterNs, int64(sm.Value))
			case famAdmP99:
				a := g.admission()
				a.SignalP99Ns = maxI64(a.SignalP99Ns, int64(sm.Value))
			case famAdmBurn:
				a := g.admission()
				a.SignalBurn = math.Max(a.SignalBurn, sm.Value)
			case famAdmAdmitted:
				g.admission().Admitted += uint64(sm.Value)
			case famAdmNacked:
				g.admission().Nacked += uint64(sm.Value)
			case famWinCount, famWinP50, famWinP99, famWinP999, famWinMax, famSLOBurn:
				stage := qdelayStage(sm)
				if stage == "" {
					continue
				}
				st := g.stages[stage]
				if st == nil {
					st = &StageView{Stage: stage}
					g.stages[stage] = st
				}
				switch sm.Name {
				case famWinCount:
					st.Count += uint64(sm.Value)
				case famWinP50:
					st.P50Ns = maxI64(st.P50Ns, int64(sm.Value))
				case famWinP99:
					st.P99Ns = maxI64(st.P99Ns, int64(sm.Value))
				case famWinP999:
					st.P999Ns = maxI64(st.P999Ns, int64(sm.Value))
				case famWinMax:
					st.MaxNs = maxI64(st.MaxNs, int64(sm.Value))
				case famSLOBurn:
					st.Burn = math.Max(st.Burn, sm.Value)
				}
			default:
				if strings.HasSuffix(sm.Name, "_total") && strings.Contains(sm.Name, "_drop") {
					g.drops += sm.Value
				}
			}
		}
		v.Nodes = append(v.Nodes, nv)
	}
	for _, shard := range sortedKeys(groups) {
		g := groups[shard]
		gv := GroupView{
			Shard: shard, Leader: g.leader, LeaderNode: g.leaderNode,
			Term: g.term, Commit: g.commit, Applied: g.applied,
			Drops: uint64(g.drops), AEBoundary: uint64(g.aeBound), AETick: uint64(g.aeTick),
		}
		if g.reqs > 0 && g.fsyncs > 0 {
			gv.FsyncPerReq = math.Round(g.fsyncs/g.reqs*1e4) / 1e4
		}
		if g.adm != nil {
			g.adm.SignalBurn = math.Round(g.adm.SignalBurn*1e4) / 1e4
			gv.Admission = g.adm
		}
		for _, stage := range sortedKeys(g.stages) {
			st := g.stages[stage]
			st.Burn = math.Round(st.Burn*1e4) / 1e4
			gv.Stages = append(gv.Stages, *st)
		}
		// Present stages in pipeline order, not alphabetically: the
		// dashboard reads top-to-bottom as a request reads left-to-right.
		sort.SliceStable(gv.Stages, func(i, j int) bool {
			return stageRank(gv.Stages[i].Stage) < stageRank(gv.Stages[j].Stage)
		})
		v.Groups = append(v.Groups, gv)
	}
	return v
}

// nodeTerm finds a node's raft term gauge for a shard (leader tie-break).
func nodeTerm(samples []Sample, shard int) uint64 {
	want := strconv.Itoa(shard)
	for i := range samples {
		if samples[i].Name == famTerm && samples[i].Label("shard") == want {
			return uint64(samples[i].Value)
		}
	}
	return 0
}

// stageOrder mirrors obs.QStageNames: the data-plane hand-off sequence.
var stageOrder = []string{"ingress", "engine", "raft_step", "wal_sync", "apply_queue", "service", "egress"}

func stageRank(stage string) int {
	for i, s := range stageOrder {
		if s == stage {
			return i
		}
	}
	return len(stageOrder) // unknown stages sort last, alphabetically (pre-sorted)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Render writes the live-dashboard form of the view: a node health
// table followed by one block per raft group.
func (v *ClusterView) Render(w io.Writer) {
	up := 0
	for _, n := range v.Nodes {
		if n.Up {
			up++
		}
	}
	fmt.Fprintf(w, "hovertop — %d/%d nodes up, %d raft groups\n\n", up, len(v.Nodes), len(v.Groups))
	fmt.Fprintf(w, "%-28s %6s %7s  %s\n", "TARGET", "NODE", "STATUS", "")
	for _, n := range v.Nodes {
		id := "-"
		if n.NodeID >= 0 {
			id = strconv.Itoa(n.NodeID)
		}
		status, note := "up", ""
		if !n.Up {
			status, note = "DOWN", n.Err
		}
		fmt.Fprintf(w, "%-28s %6s %7s  %s\n", n.Target, id, status, note)
	}
	for i := range v.Groups {
		g := &v.Groups[i]
		leader := g.Leader
		if leader == "" {
			leader = "(no leader)"
		}
		fmt.Fprintf(w, "\ngroup %d  leader=%s  term=%d  commit=%d  applied=%d  fsync/req=%.4f  drops=%d  ae boundary/tick=%d/%d\n",
			g.Shard, leader, g.Term, g.Commit, g.Applied, g.FsyncPerReq, g.Drops, g.AEBoundary, g.AETick)
		if a := g.Admission; a != nil {
			fmt.Fprintf(w, "  admission  window=%d inflight=%d admitted=%d nacked=%d hint=%s signal_p99=%s burn=%.2f\n",
				a.Window, a.Inflight, a.Admitted, a.Nacked,
				fmtNs(a.RetryAfterNs), fmtNs(a.SignalP99Ns), a.SignalBurn)
		}
		if len(g.Stages) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %12s %10s %10s %10s %10s %8s\n",
			"STAGE", "COUNT", "P50", "P99", "P99.9", "MAX", "BURN")
		for _, st := range g.Stages {
			fmt.Fprintf(w, "  %-12s %12d %10s %10s %10s %10s %8.2f\n",
				st.Stage, st.Count,
				fmtNs(st.P50Ns), fmtNs(st.P99Ns), fmtNs(st.P999Ns), fmtNs(st.MaxNs), st.Burn)
		}
	}
}

// fmtNs renders a nanosecond quantity at microsecond-scale readability.
func fmtNs(ns int64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}
