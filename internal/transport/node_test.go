package transport

import (
	"testing"

	"hovercraft/internal/app"
	"hovercraft/internal/raft"
)

// TestCampaignShardsSpread checks the bootstrap spread: over the sorted
// ids, shard s gets exactly one campaigner, ids[s%N], whatever order
// the ids arrive in.
func TestCampaignShardsSpread(t *testing.T) {
	sorted := []uint32{2, 5, 9}
	for _, shards := range []int{1, 3, 4, 7} {
		campaigners := make([][]uint32, shards)
		for _, id := range sorted {
			for _, s := range campaignShards([]uint32{9, 2, 5}, id, shards) {
				if s < 0 || s >= shards {
					t.Fatalf("G=%d: node %d campaigns for shard %d", shards, id, s)
				}
				campaigners[s] = append(campaigners[s], id)
			}
		}
		for s, got := range campaigners {
			if want := sorted[s%len(sorted)]; len(got) != 1 || got[0] != want {
				t.Errorf("G=%d shard %d: campaigners %v, want [%d]", shards, s, got, want)
			}
		}
	}
}

func TestShardAddr(t *testing.T) {
	for _, c := range []struct {
		addr string
		s    int
		want string
	}{
		{"127.0.0.1:7000", 0, "127.0.0.1:7000"},
		{"127.0.0.1:7000", 3, "127.0.0.1:7003"},
		{"[::1]:7000", 1, "[::1]:7001"},
	} {
		if got, err := ShardAddr(c.addr, c.s); err != nil || got != c.want {
			t.Errorf("ShardAddr(%q, %d) = %q, %v; want %q", c.addr, c.s, got, err, c.want)
		}
	}
	if _, err := ShardAddr("no-port", 1); err == nil {
		t.Error("ShardAddr accepted an address without a port")
	}
}

func TestStartNodeConfigErrors(t *testing.T) {
	svc := func(int) app.Service { return &counterService{} }
	peers := map[uint32]string{1: "127.0.0.1:0"}
	if _, err := StartNode(NodeConfig{ServerConfig: ServerConfig{ID: 1, Peers: peers}, Shards: 256}, svc); err == nil {
		t.Error("StartNode accepted more shards than shard.MaxGroups")
	}
	mem := raft.NewMemoryStorage()
	if _, err := StartNode(NodeConfig{ServerConfig: ServerConfig{ID: 1, Peers: peers, Storage: mem}}, svc); err == nil {
		t.Error("StartNode accepted a caller-supplied Storage, which its shards would share")
	}
}
