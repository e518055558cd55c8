// Command bench is the repository's real-plane performance ledger: in
// one process it starts a 3-node transport.Server cluster on loopback
// UDP with kvstore as the service, drives it through transport.Client
// from a seeded, pre-generated schedule, verifies every output, and
// prints every metric by name with its unit. See README.md.
//
//	bench                       full suite: untraced, traced, layer timings
//	bench -quick                the same at 2s per workload
//	bench -repeat 2             untraced set twice, compared against the bounds
//	bench --workload W --seed N --seconds S --trace 0|1
//	                            one run, one JSON object on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics with the share by which each
// may worsen before a change counts as a regression. It must match
// BENCHMARK.json (bench_test.go checks that).
var endToEnd = []struct {
	name   string
	unit   string
	higher bool // better when higher
	bound  float64
}{
	{"throughput_rps", "1/s", true, 0.15},
	{"p50_us", "us", false, 0.25},
	{"p95_us", "us", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// stdout is where results go; the test swaps it to read them back.
var stdout io.Writer = os.Stdout

type config struct {
	seed   int64
	warm   time.Duration
	dur    time.Duration
	trWarm time.Duration
	trDur  time.Duration
	layer  time.Duration // wall time per isolated layer timing
}

// segmentsFor splits a measured window into an odd number of ~3s
// segments, so that the median segment is a segment.
func segmentsFor(dur time.Duration) int { return int(dur/(3*time.Second)) | 1 }

func main() {
	var (
		wlName  = flag.String("workload", "", "run only this workload and print one JSON result line (driver mode)")
		seed    = flag.Int64("seed", 1, "seed for keys, op mix and arrival times")
		seconds = flag.Float64("seconds", 0, "measured seconds per workload (alias: -duration; default 30, driver mode 21)")
		dur     = flag.Duration("duration", 0, "measured window per workload")
		trace   = flag.Int("trace", 0, "driver mode: 1 = traced run, per-layer metrics")
		quick   = flag.Bool("quick", false, "2s per workload, short layer timings")
		repeat  = flag.Int("repeat", 0, "run the untraced set this many times and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	cfg := config{seed: *seed, warm: 500 * time.Millisecond,
		trWarm: 2 * time.Second, trDur: 10 * time.Second, layer: 250 * time.Millisecond}
	if *quick {
		cfg = quickConfig(*seed)
	}
	if *seconds > 0 {
		cfg.dur = time.Duration(*seconds * float64(time.Second))
	}
	if *dur > 0 {
		cfg.dur = *dur
	}
	if cfg.dur == 0 {
		cfg.dur = 30 * time.Second
		if *wlName != "" {
			cfg.dur = 21 * time.Second // BENCHMARK.json's run_seconds
		}
	}

	start := time.Now()
	printHost()
	var err error
	var jsonLine []byte
	switch {
	case *wlName != "":
		jsonLine, err = driverRun(cfg, *wlName, *trace != 0)
	case *repeat > 0:
		err = repeatRuns(cfg, *repeat)
	default:
		err = suite(cfg)
	}
	fmt.Fprintf(stdout, "total wall-clock %.1fs\n", time.Since(start).Seconds())
	if err != nil {
		fatalf("%v", err)
	}
	stdout.Write(jsonLine)
}

// quickConfig is -quick: 2s measured per workload (1s untraced, 1s
// traced), enough to exercise every code path and print every metric.
func quickConfig(seed int64) config {
	return config{seed: seed, warm: 500 * time.Millisecond, dur: time.Second,
		trWarm: 500 * time.Millisecond, trDur: time.Second, layer: 10 * time.Millisecond}
}

func fatalf(format string, a ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(1)
}

func printHost() {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Fprintf(stdout, "host: nproc=%d kernel=%s go=%s GOMAXPROCS=%d GOGC=%s\n",
		runtime.NumCPU(), kernel, runtime.Version(), runtime.GOMAXPROCS(0), gogc)
	fmt.Fprintln(stdout, "plane: 3 replicas + clients in one process over loopback UDP, no injected delay; 1ms tick, hovernode defaults")
}

// printResult prints one run: counts, verdicts, then every metric.
func printResult(res *result, sets ...*metricSet) {
	mode := "untraced"
	if res.traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "run %s %s attempted=%d ok=%d failed=%d latency_samples=%d correct=%v valid=%v\n",
		res.workload, mode, res.attempted, res.ok, res.failed, res.samples, res.correct(), len(res.invalid) == 0)
	for _, v := range res.violations {
		fmt.Fprintf(stdout, "  VIOLATION %s: %s\n", res.workload, v)
	}
	for _, v := range res.invalid {
		fmt.Fprintf(stdout, "  INVALID %s: %s\n", res.workload, v)
	}
	for _, set := range sets {
		for _, m := range set.list {
			fmt.Fprintf(stdout, "metric %s %s %.6g %s\n", res.workload, m.name, m.value, m.unit)
		}
	}
}

// closure adds the per-request budget lines that need both a traced
// run and the layer timings: how much of the mean latency the leader's
// stage windows plus two bare UDP round trips account for, and how
// much of the user CPU per request the isolated layers account for.
func closure(w *workload, traced *result, untracedP50 float64, layers *metricSet) {
	l := &traced.layer
	for _, m := range layers.list {
		l.add(m.name, m.unit, m.value)
	}
	stages := []string{"ingress", "engine", "wal_sync", "apply_queue", "service", "egress"}
	if w.readMix {
		stages = []string{"ingress", "engine", "read_index", "service", "egress"}
	}
	accounted := 2 * l.get("floor.udp_echo_p50_us")
	for _, s := range stages {
		accounted += l.get("tel." + s + "_mean_us")
	}
	meanLat := l.get("client.mean_us")
	l.add("closure.accounted_us", "us", accounted)
	l.add("closure.unaccounted_us", "us", meanLat-accounted)
	l.add("closure.unaccounted_share", "share", ratio(meanLat-accounted, meanLat))

	sum := (l.get("core.engine_ns_per_req") + l.get("r2p2.encode_ns") + l.get("runtime.ingest_ns")) / 1e3
	user := l.get("process.cpu_us_per_req") * (1 - l.get("process.cpu_sys_share"))
	l.add("budget.layers_sum_us", "us", sum)
	l.add("budget.gap_us", "us", user-sum)
	l.add("trace.overhead_p50_pct", "%", 100*ratio(traced.e2e.get("p50_us")-untracedP50, untracedP50))
}

func printClosure(res *result) {
	l := &res.layer
	fmt.Fprintf(stdout, "closure %s: mean %.0fus = accounted %.0fus (leader stage means + 2 UDP round trips) + unaccounted %.0fus (%.0f%% of the mean)\n",
		res.workload, l.get("client.mean_us"), l.get("closure.accounted_us"),
		l.get("closure.unaccounted_us"), 100*l.get("closure.unaccounted_share"))
	fmt.Fprintf(stdout, "budget %s: user CPU/req %.1fus = isolated layers %.1fus + gap %.1fus\n",
		res.workload, l.get("budget.layers_sum_us")+l.get("budget.gap_us"),
		l.get("budget.layers_sum_us"), l.get("budget.gap_us"))
}

// verdict turns wrong outputs and broken generator rules into an error.
func verdict(results ...*result) error {
	var bad []string
	for _, r := range results {
		if !r.correct() {
			bad = append(bad, r.workload+" incorrect")
		}
		if len(r.invalid) > 0 {
			bad = append(bad, r.workload+" invalid")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, ", "))
	}
	return nil
}

// suite is `go run .`: every workload untraced, then traced, then the
// isolated layer timings, every metric printed once per workload.
func suite(cfg config) error {
	var all []*result
	for i := range workloads {
		w := &workloads[i]
		un, err := execute(w, cfg.seed, cfg.warm, cfg.dur, false, segmentsFor(cfg.dur))
		if err != nil {
			return err
		}
		printResult(un, &un.e2e)
		tr, err := execute(w, cfg.seed, cfg.trWarm, cfg.trDur, true, 1)
		if err != nil {
			return err
		}
		layers, err := layerTimings(w, cfg.seed, cfg.layer)
		if err != nil {
			return err
		}
		closure(w, tr, un.e2e.get("p50_us"), layers)
		printResult(tr, &tr.layer)
		printClosure(tr)
		all = append(all, un, tr)
	}
	return verdict(all...)
}

// repeatRuns runs the untraced set n times and compares every
// end-to-end metric of every later set with the first.
func repeatRuns(cfg config, n int) error {
	sets := make([][]*result, n)
	var all []*result
	for k := range sets {
		for i := range workloads {
			res, err := execute(&workloads[i], cfg.seed, cfg.warm, cfg.dur, false, segmentsFor(cfg.dur))
			if err != nil {
				return err
			}
			printResult(res, &res.e2e)
			sets[k] = append(sets[k], res)
			all = append(all, res)
		}
	}
	past := 0
	fmt.Fprintf(stdout, "\n%-16s %-15s %12s %12s %8s %6s\n", "workload", "metric", "run 1", "run k", "worse", "bound")
	for k := 1; k < n; k++ {
		for i := range workloads {
			for _, m := range endToEnd {
				a, b := sets[0][i].e2e.get(m.name), sets[k][i].e2e.get(m.name)
				worse := ratio(b-a, a)
				if m.higher {
					worse = -worse
				}
				flag := ""
				if worse > m.bound {
					flag = "  PAST BOUND"
					past++
				}
				fmt.Fprintf(stdout, "%-16s %-15s %12.4g %12.4g %+7.1f%% %5.0f%%%s\n",
					workloads[i].name, m.name, a, b, 100*worse, 100*m.bound, flag)
			}
		}
	}
	if err := verdict(all...); err != nil {
		return err
	}
	if past > 0 {
		return fmt.Errorf("%d metric × workload pairs moved past their bound between identical runs", past)
	}
	return nil
}

// driverRun is one run for the benchmark driver: human-readable lines
// now, and the JSON object main prints as the last line of standard
// output.
func driverRun(cfg config, name string, traced bool) ([]byte, error) {
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var res *result
	var set *metricSet
	if !traced {
		un, err := execute(w, cfg.seed, cfg.warm, cfg.dur, false, segmentsFor(cfg.dur))
		if err != nil {
			return nil, err
		}
		res, set = un, &un.e2e
	} else {
		// Half the window untraced, half traced, so the tracing overhead
		// is measured inside the same run.
		un, err := execute(w, cfg.seed, cfg.trWarm, cfg.dur/2, false, 1)
		if err != nil {
			return nil, err
		}
		tr, err := execute(w, cfg.seed, cfg.trWarm, cfg.dur/2, true, 1)
		if err != nil {
			return nil, err
		}
		layers, err := layerTimings(w, cfg.seed, cfg.layer/2)
		if err != nil {
			return nil, err
		}
		closure(w, tr, un.e2e.get("p50_us"), layers)
		tr.violations = append(tr.violations, un.violations...)
		res, set = tr, &tr.layer
	}
	printResult(res, set)
	if traced {
		printClosure(res)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]jsonMetric{}}
	for _, m := range set.list {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	return append(line, '\n'), err
}
