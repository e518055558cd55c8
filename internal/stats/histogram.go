// Package stats provides the measurement primitives used throughout the
// HovercRaft evaluation harness: log-bucketed latency histograms with
// percentile extraction, windowed time series, and monotonic counters.
//
// The histogram design follows the needs of µs-scale tail-latency
// measurement (cf. Lancet, ATC'19): values spanning 1µs..10s are recorded
// with bounded relative error and constant memory, and the 99th percentile
// can be extracted cheaply at any time.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// subBits sets the linear sub-bucket count per power-of-two bucket:
// 2^5 = 32 sub-buckets bound the relative quantile error at ~3%.
const (
	subBits    = 5
	subBuckets = 1 << subBits
)

// Histogram is a log-linear histogram of int64 values (typically
// nanoseconds). The zero value is not usable; call NewHistogram.
//
// Values are bucketed into power-of-two ranges, each split into
// subBuckets linear sub-buckets, mirroring HDR-histogram layout.
// Histogram is not safe for concurrent use.
type Histogram struct {
	counts []uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram able to record values in
// [0, 2^62).
func NewHistogram() *Histogram {
	return &Histogram{
		// 63 powers of two, subBuckets each. ~16KiB of counters.
		counts: make([]uint64, 63*subBuckets),
		min:    math.MaxInt64,
	}
}

// bucketIndex maps a value to its slot in a log-linear layout with 2^b
// linear sub-buckets per power of two, the layout of both Histogram
// (b = subBits) and AtomicHist (b = wSubBits). Values below 2^b have
// exact slots (negative values clamp to slot 0); above, a value whose
// highest set bit is exp lands in slot (exp−b+1)·2^b + sub, where sub
// is the b bits below that highest bit.
func bucketIndex(v int64, b int) int {
	if v < 1<<b {
		return int(max(v, 0))
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(v>>(exp-b)) & (1<<b - 1)
	return (exp-b+1)<<b + sub
}

// bucketLow returns the smallest value mapping to slot i (the inverse
// of bucketIndex, rounded down).
func bucketLow(i, b int) int64 {
	if i < 1<<b {
		return int64(i)
	}
	exp := i>>b + b - 1
	sub := int64(i & (1<<b - 1))
	return 1<<exp | sub<<(exp-b)
}

// Record adds a single observation.
func (h *Histogram) Record(v int64) {
	idx := bucketIndex(v, subBits)
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration adds a time.Duration observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1).
// Quantile(0.99) is the 99th percentile. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank of the target observation (1-based).
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketLow(i, subBits)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P99 returns the 99th-percentile value.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// FractionAbove returns the fraction of observations above v (bucket
// resolution: values sharing v's bucket count as not-above). Dividing
// by an SLO's error budget turns it into a burn rate — e.g. for a p99
// objective, FractionAbove(slo)/0.01.
func (h *Histogram) FractionAbove(v int64) float64 {
	if h.count == 0 {
		return 0
	}
	idx := bucketIndex(v, subBits)
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	var above uint64
	for i := idx + 1; i < len(h.counts); i++ {
		above += h.counts[i]
	}
	return float64(above) / float64(h.count)
}

// P50 returns the median value.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p99=%d max=%d mean=%.1f",
		h.count, h.Min(), h.P50(), h.P99(), h.Max(), h.Mean())
}

// LatencySummary is a point-in-time snapshot of a latency distribution,
// in nanoseconds, convenient for tabular experiment output.
type LatencySummary struct {
	Count uint64
	Min   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// Summary extracts a LatencySummary, interpreting values as nanoseconds.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count: h.count,
		Min:   time.Duration(h.Min()),
		P50:   time.Duration(h.P50()),
		P90:   time.Duration(h.Quantile(0.90)),
		P99:   time.Duration(h.P99()),
		P999:  time.Duration(h.Quantile(0.999)),
		Max:   time.Duration(h.Max()),
		Mean:  time.Duration(h.Mean()),
	}
}

func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p99.9=%v max=%v",
		s.Count, s.P50, s.P99, s.P999, s.Max)
}

// Series is an append-only time series of (time, value) samples used for
// the throughput/latency-over-time plots (paper Fig. 12).
type Series struct {
	Name    string
	Times   []time.Duration
	Values  []float64
	YLegend string
}

// Add appends one sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// At returns sample i.
func (s *Series) At(i int) (time.Duration, float64) { return s.Times[i], s.Values[i] }

// MaxValue returns the maximum sample value, or 0 if empty.
func (s *Series) MaxValue() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Table is a simple fixed-column table used for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the table formatted with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		widths[i] = len(hd)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Percentile computes the p-quantile of a raw sample slice (exact, for
// tests and small samples). The input is not modified.
func Percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	cp := make([]time.Duration, len(samples))
	copy(cp, samples)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
