package harness

import (
	"strings"
	"testing"
	"time"

	"hovercraft/internal/loadgen"
)

func TestRunPointShardedMeasuresSanely(t *testing.T) {
	wl := shardWorkload{SyntheticSpec{Service: loadgen.Fixed(time.Microsecond), ReqSize: 24, ReplySize: 8}}
	res := RunPoint(shardSystem(2, 6, 3), wl, 120_000, RunConfig{
		Seed: 7, Warmup: 5 * time.Millisecond, Duration: 20 * time.Millisecond, Clients: 2,
	})
	p := res.Point
	if p.OfferedKRPS < 95 || p.OfferedKRPS > 145 {
		t.Fatalf("offered = %v", p)
	}
	if p.AchievedKRPS < 0.95*p.OfferedKRPS {
		t.Fatalf("achieved = %v", p)
	}
	if p.P99 < p.P50 || p.P50 <= 0 {
		t.Fatalf("latency summary inconsistent: %v", p)
	}
	shards := loadgen.MergeShardStats(res.Clients)
	if len(shards) != 2 {
		t.Fatalf("breakdown covers %d groups, want 2", len(shards))
	}
	total := shards[0].Completed + shards[1].Completed
	for _, st := range shards {
		if st.Completed < total/8 {
			t.Fatalf("group %d served only %d of %d ops — partition unbalanced",
				st.Group, st.Completed, total)
		}
	}
	for g := range res.Cluster.Groups {
		if res.Cluster.LeaderOf(g) == nil {
			t.Fatalf("group %d has no leader after run", g)
		}
	}
}

func TestShardscaleSmoke(t *testing.T) {
	// A G ∈ {1, 2} sweep at tiny scale: the report must render, and two
	// disjoint groups must outscale one under the SLO. The full G ∈
	// {1,2,4,8} sweep (and the ≥3x-at-G=4 check) runs via
	// `hoverbench -experiment shardscale`.
	sc := tinyScale()
	sc.ShardGroups = []int{1, 2}
	rep := Shardscale(sc)
	out := rep.Render()
	if !strings.Contains(out, "SHARDSCALE") {
		t.Fatalf("render missing header:\n%.200s", out)
	}
	if !strings.Contains(out, "per-shard breakdown") {
		t.Fatal("render missing per-shard breakdown")
	}
	if len(rep.Curves) != 2 {
		t.Fatalf("got %d curves", len(rep.Curves))
	}
	g1 := rep.Curves[0].MaxUnderSLO(SLO)
	g2 := rep.Curves[1].MaxUnderSLO(SLO)
	if g1 <= 0 || g2 <= 0 {
		t.Fatalf("no throughput under SLO: g1=%.0f g2=%.0f", g1, g2)
	}
	if g2 < 1.5*g1 {
		t.Fatalf("G=2 (%.0f kRPS) did not outscale G=1 (%.0f kRPS)", g2, g1)
	}
}
