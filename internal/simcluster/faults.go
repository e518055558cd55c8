package simcluster

import (
	"time"

	"hovercraft/internal/fault"
	"hovercraft/internal/simnet"
)

// clusterTarget adapts a Cluster to fault.Target.
type clusterTarget struct{ c *Cluster }

// FaultTarget exposes the cluster to the fault injector:
//
//	inj := fault.Attach(c.Sim, c.FaultTarget(), schedule)
//
// LeaderIndex resolves group 0's leader; schedules wanting another
// group's leader can target concrete node indexes via the placement.
func (c *Cluster) FaultTarget() fault.Target { return clusterTarget{c} }

func (t clusterTarget) NumNodes() int { return len(t.c.Nodes) }

func (t clusterTarget) LeaderIndex() int {
	if lead := t.c.LeaderOf(0); lead != nil {
		return int(lead.ID) - 1
	}
	return -1
}

func (t clusterTarget) Crashed(i int) bool { return t.c.Nodes[i].Crashed() }
func (t clusterTarget) Crash(i int)        { t.c.Nodes[i].Crash() }

// Restart recovers through the WAL when the cluster persists one (the
// realistic volatile-state-lost path, honoring torn), else resumes the
// in-memory engines.
func (t clusterTarget) Restart(i int, torn int) error {
	n := t.c.Nodes[i]
	if n.storage != nil {
		return n.RestartFromWAL(torn)
	}
	n.Restart()
	return nil
}

func (t clusterTarget) Addr(i int) simnet.Addr   { return t.c.Nodes[i].Host.Addr() }
func (t clusterTarget) Network() *simnet.Network { return t.c.Net }

func (t clusterTarget) SetCPUSlowdown(i int, factor float64) {
	t.c.Nodes[i].Host.SetCPUSlowdown(factor)
}

func (t clusterTarget) SetFsyncDelay(i int, d time.Duration) {
	t.c.Nodes[i].SetFsyncDelay(d)
}
