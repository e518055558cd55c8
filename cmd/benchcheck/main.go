// benchcheck compares `go test -bench -benchmem` output against a
// committed JSON baseline, failing on regressions. It is the CI
// tripwire behind the zero-allocation hot path and the batched data
// plane: timing metrics are machine-dependent and ignored; allocation
// counts, syscall-amortization ratios (dg/sendmmsg), and fsync
// amortization (fsyncs/req) are deterministic enough to gate on.
//
// Gating is direction-aware: for most units higher is worse
// (allocations, fsyncs per request), but for dg/sendmmsg lower is
// worse — a drop means sends stopped batching.
//
//	go test -run '^$' -bench Hotpath -benchmem ./... | tee bench.out
//	benchcheck -in bench.out -baseline BENCH_hotpath.json          # gate
//	benchcheck -in bench.out -baseline BENCH_hotpath.json -update  # reset
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark snapshot. Metrics holds, per
// benchmark, the unit→value pairs parsed from the bench output (e.g.
// "allocs/op", "B/op", "allocs/req"). Only allocation units are gated.
type Baseline struct {
	Note       string                        `json:"note"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// maxUnits are metrics where exceeding the baseline fails (higher is
// worse); minUnits are metrics where falling below it fails (lower is
// worse — dg/sendmmsg collapsing to 1 means sends stopped batching,
// goodput/cap collapsing means the admission controller lost its
// graceful degradation under overload). ns/op and req/s vary with the
// machine and are never gated.
var (
	maxUnits = []string{"allocs/op", "allocs/req", "fsyncs/req", "syscalls/op",
		"admitted_p99_us", "nacked/req", "stale_reads", "write_p99_us"}
	minUnits = []string{"dg/sendmmsg", "goodput/cap", "goodput_krps",
		"read_goodput_krps", "readscale_x"}
)

// unitSlack overrides the -slack flag for units whose natural scale is
// nowhere near one allocation: a whole extra fsync per request would
// sail under the default slack of 1.0, so fsyncs/req gets a headroom
// sized to catch group commit degrading toward per-record syncing
// while tolerating scheduler-dependent batch-size noise. The overload
// units come from deterministic virtual-time runs, so their slack only
// leaves room for intentional retunes: goodput/cap must never slip
// under the 0.70-of-capacity acceptance floor, admitted_p99_us must
// stay inside the 500µs SLO, and nacked/req at half load must stay
// near zero.
// The readscale units are deterministic virtual-time runs too:
// stale_reads gates the linearizability invariant with zero slack (one
// stale read is a safety bug, not noise), write_p99_us gets the same
// headroom as admitted_p99_us, read_goodput_krps the same floor slack
// as goodput_krps, and readscale_x — a pure capacity ratio, which the
// default absolute slack of 1.0 would let collapse unnoticed — 0.3.
var unitSlack = map[string]float64{
	"fsyncs/req":        0.25,
	"goodput/cap":       0.05,
	"goodput_krps":      2,
	"admitted_p99_us":   25,
	"nacked/req":        0.02,
	"stale_reads":       0,
	"write_p99_us":      25,
	"read_goodput_krps": 2,
	"readscale_x":       0.3,
}

// parseBench extracts benchmark result lines. A result line looks like:
//
//	BenchmarkName-8   30   4473308 ns/op   29.16 allocs/req   5806 allocs/op
//
// i.e. name, iteration count, then value/unit pairs.
//
// The -N GOMAXPROCS suffix is normalized so baselines transfer across
// machines: when a benchmark appears with a single suffix (the common
// case — one run at the machine's core count) the suffix is stripped.
// When the same benchmark appears with several distinct suffixes (a
// `go test -cpu 1,2,4` run, where the suffix is the -cpu value and IS
// the experiment), each line keeps its identity as "Name/cpu=N" —
// silently collapsing them would let the last line shadow the rest.
func parseBench(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type line struct {
		base, suffix string
		metrics      map[string]float64
	}
	var lines []line
	suffixes := make(map[string]map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		base, suffix := fields[0], ""
		if i := strings.LastIndex(base, "-"); i > 0 {
			if _, err := strconv.Atoi(base[i+1:]); err == nil {
				base, suffix = base[:i], base[i+1:]
			}
		}
		metrics := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) == 0 {
			continue
		}
		lines = append(lines, line{base: base, suffix: suffix, metrics: metrics})
		if suffixes[base] == nil {
			suffixes[base] = make(map[string]bool)
		}
		suffixes[base][suffix] = true
	}
	out := make(map[string]map[string]float64, len(lines))
	for _, l := range lines {
		name := l.base
		if l.suffix != "" && len(suffixes[l.base]) > 1 {
			name = l.base + "/cpu=" + l.suffix
		}
		out[name] = l.metrics
	}
	return out, sc.Err()
}

func main() {
	var (
		in       = flag.String("in", "", "benchmark output file (from go test -bench -benchmem)")
		baseline = flag.String("baseline", "BENCH_hotpath.json", "committed baseline JSON")
		update   = flag.Bool("update", false, "rewrite the baseline from -in instead of gating")
		tol      = flag.Float64("tol", 0.10, "relative headroom before a regression fails")
		slack    = flag.Float64("slack", 1.0, "absolute headroom (covers one-off init amortization)")
		note     = flag.String("note", "", "baseline note written by -update (default describes the allocation gate)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -in is required")
		os.Exit(2)
	}
	got, err := parseBench(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: parse %s: %v\n", *in, err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no benchmark results in %s\n", *in)
		os.Exit(2)
	}

	if *update {
		if *note == "" {
			*note = "Allocation baseline for the message hot path; regenerate with `make bench`. " +
				"CI gates allocs/op and allocs/req against this file (cmd/benchcheck)."
		}
		b := Baseline{Note: *note, Benchmarks: got}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: marshal: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: write %s: %v\n", *baseline, err)
			os.Exit(2)
		}
		fmt.Printf("benchcheck: wrote %s (%d benchmarks)\n", *baseline, len(got))
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: read %s: %v (run with -update to create)\n", *baseline, err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: bad baseline %s: %v\n", *baseline, err)
		os.Exit(2)
	}

	failed := false
	for name, baseMetrics := range base.Benchmarks {
		gotMetrics, ok := got[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL %s: in baseline but missing from %s (renamed? re-run -update)\n", name, *in)
			failed = true
			continue
		}
		check := func(unit string, lowerIsWorse bool) {
			want, tracked := baseMetrics[unit]
			if !tracked {
				return
			}
			have, ok := gotMetrics[unit]
			if !ok {
				fmt.Fprintf(os.Stderr, "FAIL %s: baseline tracks %s but the run did not report it\n", name, unit)
				failed = true
				return
			}
			sl := *slack
			if s, ok := unitSlack[unit]; ok {
				sl = s
			}
			if lowerIsWorse {
				floor := want*(1-*tol) - sl
				if have < floor {
					fmt.Fprintf(os.Stderr, "FAIL %s: %s regressed %.2f -> %.2f (floor %.2f)\n",
						name, unit, want, have, floor)
					failed = true
				} else {
					fmt.Printf("ok   %s: %s %.2f (baseline %.2f, floor %.2f)\n", name, unit, have, want, floor)
				}
				return
			}
			limit := want*(1+*tol) + sl
			if have > limit {
				fmt.Fprintf(os.Stderr, "FAIL %s: %s regressed %.2f -> %.2f (limit %.2f)\n",
					name, unit, want, have, limit)
				failed = true
			} else {
				fmt.Printf("ok   %s: %s %.2f (baseline %.2f, limit %.2f)\n", name, unit, have, want, limit)
			}
		}
		for _, unit := range maxUnits {
			check(unit, false)
		}
		for _, unit := range minUnits {
			check(unit, true)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d benchmarks within baseline\n", len(base.Benchmarks))
}
