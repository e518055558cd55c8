package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hovercraft/internal/obs"
)

// TracedPoint is RunPoint with a fresh observability session attached:
// every request's lifecycle is stamped across the cluster and clients,
// cluster events are logged, and the leader's counters plus the
// flow-control state are registered into the session's metrics registry.
func TracedPoint(sys SystemSpec, wl WorkloadSpec, rate float64, rc RunConfig) (RunResult, *obs.Obs) {
	o := obs.New()
	rc.Obs = o
	res := RunPoint(sys, wl, rate, rc)
	registerClusterMetrics(o, res)
	return res, o
}

// registerClusterMetrics folds the finished run's cluster-side sources
// into the observability registry so one snapshot covers the whole run.
func registerClusterMetrics(o *obs.Obs, res RunResult) {
	reg := o.Metrics()
	for _, n := range res.Cluster.Nodes {
		prefix := fmt.Sprintf("node%d", n.ID)
		if n.Unrep != nil {
			reg.CounterSet(prefix, n.Unrep.Counters())
		} else if n.Engines[0] != nil {
			reg.CounterSet(prefix, n.Engines[0].Counters())
		}
	}
	if flow := res.Cluster.Groups[0].Flow; flow != nil {
		reg.Counter("flow.nacked", func() uint64 { return flow.Nacked })
		reg.Gauge("flow.inflight", func() float64 { return float64(flow.InFlight()) })
	}
}

// writeTraceArtifacts exports the session as <dir>/<name>.trace.json
// (Chrome trace-event format, Perfetto-loadable) and
// <dir>/<name>.metrics.json (registry snapshot). Failures become report
// notes rather than errors: tracing must never sink an experiment.
func writeTraceArtifacts(rep *Report, o *obs.Obs, dir, name string) {
	write := func(path string, fn func(f *os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("trace export failed: %v", err))
			return
		}
		rep.Notes = append(rep.Notes, "wrote "+path)
	}
	write(filepath.Join(dir, name+".trace.json"), func(f *os.File) error {
		return o.WriteTrace(f)
	})
	write(filepath.Join(dir, name+".metrics.json"), func(f *os.File) error {
		return o.Metrics().WriteJSON(f)
	})
}

// slug converts an experiment label into a filesystem-safe name
// ("HovercRaft++ N=3" → "hovercraft_pp_n_3").
func slug(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "++", "_pp")
	var b strings.Builder
	lastUnder := true
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnder = false
		default:
			if !lastUnder {
				b.WriteByte('_')
				lastUnder = true
			}
		}
	}
	return strings.TrimRight(b.String(), "_")
}
