package fault

import (
	"fmt"
	"time"

	"hovercraft/internal/simnet"
)

// Target is the cluster surface the injector drives.
// simcluster.Cluster.FaultTarget adapts the simulated cluster, one Raft
// group or sharded; anything else built on simnet can implement it too.
type Target interface {
	// NumNodes is the pool size; node indexes below are 0-based.
	NumNodes() int
	// LeaderIndex resolves the current leader (-1 when none). Sharded
	// targets return the leader of group 0, the group chaos schedules
	// conventionally aim at.
	LeaderIndex() int
	// Crashed reports whether node i is down.
	Crashed(i int) bool
	// Crash power-fails node i.
	Crash(i int)
	// Restart revives crashed node i, shearing torn bytes off its WAL
	// tail first when the target persists one.
	Restart(i int, torn int) error
	// Addr is node i's network address (partitions, link delays).
	Addr(i int) simnet.Addr
	// Network is the shared fabric.
	Network() *simnet.Network
	// SetCPUSlowdown stretches node i's processing by factor (1 heals).
	SetCPUSlowdown(i int, factor float64)
	// SetFsyncDelay stalls node i's app thread per WAL append (0 heals).
	SetFsyncDelay(i int, d time.Duration)
}

// Injector applies a Schedule to a Target over simulated time.
type Injector struct {
	sim *simnet.Sim
	t   Target

	// Log records every applied event (with selectors resolved) in fire
	// order — the deterministic trace tests fingerprint.
	Log []string
	// Skipped counts events that could not be applied (no leader to
	// resolve, restart of a live node, ...); schedules drawn at random
	// legitimately contain some.
	Skipped int
}

// Attach schedules every event of sched against t. Events whose At is
// already in the past fire immediately. Call before or during a run;
// the returned Injector exposes the applied-event log.
func Attach(sim *simnet.Sim, t Target, sched Schedule) *Injector {
	inj := &Injector{sim: sim, t: t}
	s := sched
	s.Sort()
	for _, ev := range s.Events {
		ev := ev
		delay := ev.At - sim.Now()
		if delay < 0 {
			delay = 0
		}
		sim.After(delay, func() { inj.apply(ev) })
	}
	return inj
}

// resolve maps an Event.Node selector to a concrete index, or -1.
func (inj *Injector) resolve(sel int) int {
	switch sel {
	case PickLeader:
		return inj.t.LeaderIndex()
	case PickCrashed:
		for i := 0; i < inj.t.NumNodes(); i++ {
			if inj.t.Crashed(i) {
				return i
			}
		}
		return -1
	default:
		if sel < 0 || sel >= inj.t.NumNodes() {
			return -1
		}
		return sel
	}
}

// peers returns the concrete peer indexes for ev (excluding node).
func (inj *Injector) peers(ev Event, node int) []int {
	if ev.Peer == AllOthers {
		var out []int
		for i := 0; i < inj.t.NumNodes(); i++ {
			if i != node {
				out = append(out, i)
			}
		}
		return out
	}
	if p := inj.resolve(ev.Peer); p >= 0 && p != node {
		return []int{p}
	}
	return nil
}

func (inj *Injector) skip(ev Event, why string) {
	inj.Skipped++
	inj.Log = append(inj.Log, fmt.Sprintf("%v skip %s: %s", inj.sim.Now(), ev.Kind, why))
}

func (inj *Injector) note(format string, args ...interface{}) {
	inj.Log = append(inj.Log, fmt.Sprintf("%v ", inj.sim.Now())+fmt.Sprintf(format, args...))
}

func (inj *Injector) apply(ev Event) {
	net := inj.t.Network()
	node := -1
	// Heal/Loss/Dup/Reorder are global; everything else needs a node.
	switch ev.Kind {
	case Heal, Loss, Dup, Reorder:
	default:
		if node = inj.resolve(ev.Node); node < 0 {
			inj.skip(ev, "no node resolves selector")
			return
		}
	}
	switch ev.Kind {
	case Crash:
		if inj.t.Crashed(node) {
			inj.skip(ev, "already crashed")
			return
		}
		inj.t.Crash(node)
		inj.note("crash node=%d", node)
	case Restart:
		if !inj.t.Crashed(node) {
			inj.skip(ev, "not crashed")
			return
		}
		if err := inj.t.Restart(node, ev.Torn); err != nil {
			inj.skip(ev, err.Error())
			return
		}
		inj.note("restart node=%d torn=%d", node, ev.Torn)
	case Partition:
		ps := inj.peers(ev, node)
		if len(ps) == 0 {
			inj.skip(ev, "no peer")
			return
		}
		for _, p := range ps {
			net.Partition(inj.t.Addr(node), inj.t.Addr(p))
		}
		inj.note("partition node=%d peers=%v", node, ps)
	case PartitionOneWay:
		ps := inj.peers(ev, node)
		if len(ps) == 0 {
			inj.skip(ev, "no peer")
			return
		}
		for _, p := range ps {
			net.PartitionOneWay(inj.t.Addr(node), inj.t.Addr(p))
		}
		inj.note("partition1w node=%d peers=%v", node, ps)
	case Heal:
		net.HealAll()
		net.HealAllOneWay()
		inj.note("heal all")
	case Loss:
		net.SetDropRate(ev.Rate)
		inj.note("loss rate=%g", ev.Rate)
	case Dup:
		net.SetDupRate(ev.Rate)
		inj.note("dup rate=%g", ev.Rate)
	case Reorder:
		net.SetJitter(ev.Dur)
		inj.note("reorder jitter=%v", ev.Dur)
	case LinkDelay:
		ps := inj.peers(ev, node)
		if len(ps) == 0 {
			inj.skip(ev, "no peer")
			return
		}
		for _, p := range ps {
			net.SetLinkDelay(inj.t.Addr(node), inj.t.Addr(p), ev.Dur)
		}
		inj.note("linkdelay node=%d peers=%v dur=%v", node, ps, ev.Dur)
	case SlowCPU:
		f := ev.Factor
		if f < 1 {
			f = 1
		}
		inj.t.SetCPUSlowdown(node, f)
		inj.note("slowcpu node=%d factor=%g", node, f)
	case FsyncDelay:
		inj.t.SetFsyncDelay(node, ev.Dur)
		inj.note("fsyncdelay node=%d dur=%v", node, ev.Dur)
	default:
		inj.skip(ev, "unknown kind")
	}
}
