package core

import (
	"math/rand"

	"hovercraft/internal/raft"
)

// SelectPolicy chooses the designated replier among eligible nodes.
type SelectPolicy uint8

const (
	// PolicyJBSQ picks the eligible node with the shortest bounded
	// queue (Join-Bounded-Shortest-Queue, paper §3.6) — better tail
	// latency under service-time variability.
	PolicyJBSQ SelectPolicy = iota
	// PolicyRandom picks uniformly among eligible nodes (the paper's
	// RANDOM baseline in Fig. 11).
	PolicyRandom
)

func (p SelectPolicy) String() string {
	if p == PolicyJBSQ {
		return "JBSQ"
	}
	return "RANDOM"
}

// BoundedQueues is the leader-side bookkeeping for reply load balancing
// (paper §3.4, Fig. 4): for every node it tracks the log indices of
// entries assigned to that node as replier that the node has not yet
// applied. The queue bound B caps assigned-but-unapplied work, which (a)
// bounds lost replies if the node dies, and (b) implements JBSQ.
type BoundedQueues struct {
	bound int
	q     map[raft.NodeID][]uint64 // FIFO of assigned log indices
	nodes []raft.NodeID
	pick  []raft.NodeID // Select's candidate scratch, reused per call
}

// NewBoundedQueues creates queues for the given nodes with bound B.
func NewBoundedQueues(nodes []raft.NodeID, bound int) *BoundedQueues {
	b := &BoundedQueues{
		bound: bound,
		q:     make(map[raft.NodeID][]uint64, len(nodes)),
		nodes: append([]raft.NodeID(nil), nodes...),
	}
	for _, n := range nodes {
		b.q[n] = nil
	}
	return b
}

// Bound returns B.
func (b *BoundedQueues) Bound() int { return b.bound }

// Depth returns the queue depth of node n.
func (b *BoundedQueues) Depth(n raft.NodeID) int { return len(b.q[n]) }

// Eligible reports whether node n can accept another assignment.
func (b *BoundedQueues) Eligible(n raft.NodeID) bool { return len(b.q[n]) < b.bound }

// Assign records that entry idx was assigned to node n. It panics if the
// bound would be violated — callers must check Eligible first (the
// announce loop enforces the invariant at selection time, §3.4).
func (b *BoundedQueues) Assign(n raft.NodeID, idx uint64) {
	if len(b.q[n]) >= b.bound {
		panic("core: bounded queue overflow")
	}
	b.q[n] = append(b.q[n], idx)
}

// Applied informs the queues that node n has applied through index
// applied; all of n's assignments at or below it are completed.
func (b *BoundedQueues) Applied(n raft.NodeID, applied uint64) {
	q := b.q[n]
	i := 0
	for i < len(q) && q[i] <= applied {
		i++
	}
	if i > 0 {
		b.q[n] = append(q[:0], q[i:]...)
	}
}

// Reset clears all queues (leader change).
func (b *BoundedQueues) Reset() {
	for n := range b.q {
		b.q[n] = nil
	}
}

// Rebuild reconstructs queues from a log scan: assignments is a list of
// (node, index) pairs for announced-but-unapplied entries. Used by a new
// leader taking over an inherited log.
func (b *BoundedQueues) Rebuild(assign func(emit func(n raft.NodeID, idx uint64))) {
	b.Reset()
	assign(func(n raft.NodeID, idx uint64) {
		if _, ok := b.q[n]; ok && len(b.q[n]) < b.bound {
			b.q[n] = append(b.q[n], idx)
		}
	})
}

// Select picks a replier among live nodes according to policy, or (None,
// false) when no node is eligible — in which case the leader simply
// waits, which never hurts liveness (§3.4).
func (b *BoundedQueues) Select(policy SelectPolicy, rng *rand.Rand, alive func(raft.NodeID) bool) (raft.NodeID, bool) {
	switch policy {
	case PolicyJBSQ:
		// Collect all minimum-depth eligible nodes and break ties
		// randomly — a deterministic tie-break would pin all work to
		// one node whenever queues drain faster than they fill.
		mins := b.pick[:0]
		bestDepth := 0
		for _, n := range b.nodes {
			if !alive(n) || !b.Eligible(n) {
				continue
			}
			d := len(b.q[n])
			switch {
			case len(mins) == 0 || d < bestDepth:
				mins = append(mins[:0], n)
				bestDepth = d
			case d == bestDepth:
				mins = append(mins, n)
			}
		}
		b.pick = mins
		if len(mins) == 0 {
			return raft.None, false
		}
		return mins[rng.Intn(len(mins))], true
	default: // PolicyRandom
		eligible := b.pick[:0]
		for _, n := range b.nodes {
			if alive(n) && b.Eligible(n) {
				eligible = append(eligible, n)
			}
		}
		b.pick = eligible
		if len(eligible) == 0 {
			return raft.None, false
		}
		return eligible[rng.Intn(len(eligible))], true
	}
}
