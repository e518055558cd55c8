package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zero: %v", h)
	}
	if h.P99() != 0 {
		t.Fatalf("empty P99 = %d, want 0", h.P99())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(1234)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1234 || h.Max() != 1234 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.P99(); got != 1234 {
		t.Fatalf("p99 = %d, want 1234", got)
	}
	if got := h.Quantile(0); got != 1234 {
		t.Fatalf("q0 = %d, want 1234", got)
	}
	if got := h.Quantile(1); got != 1234 {
		t.Fatalf("q1 = %d, want 1234", got)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below subBuckets are recorded exactly.
	h := NewHistogram()
	for v := int64(0); v < subBuckets; v++ {
		h.Record(v)
	}
	// With the ceil(q*n) rank convention the 0.5-quantile of 0..31 is
	// the 16th smallest value, i.e. 15.
	if got := h.Quantile(0.5); got != subBuckets/2-1 {
		t.Fatalf("median = %d, want %d", got, subBuckets/2-1)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Compare against exact percentile on a pseudo-random sample:
	// relative error must be under 5%.
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var raw []time.Duration
	for i := 0; i < 100000; i++ {
		// Log-uniformish mix covering 1µs..10ms.
		v := int64(1000 + rng.Intn(10_000_000))
		h.Record(v)
		raw = append(raw, time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(Percentile(raw, q))
		est := float64(h.Quantile(q))
		relerr := (est - exact) / exact
		if relerr < -0.05 || relerr > 0.05 {
			t.Errorf("q=%g exact=%g est=%g relerr=%g", q, exact, est, relerr)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	// Negative values clamp to bucket 0 but min tracks the raw value.
	if h.Quantile(0.5) > 0 {
		t.Fatalf("median of clamped negative = %d", h.Quantile(0.5))
	}
}

func TestHistogramEmptyQuantileSweep(t *testing.T) {
	// Every quantile of an empty histogram is 0, including the extremes
	// and out-of-range q values.
	h := NewHistogram()
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %d, want 0", q, got)
		}
	}
	s := h.Summary()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestHistogramQuantileOutOfRange(t *testing.T) {
	// q<0 and q>1 clamp to min/max rather than panicking or extrapolating.
	h := NewHistogram()
	h.Record(100)
	h.Record(200)
	if got := h.Quantile(-0.5); got != 100 {
		t.Fatalf("Quantile(-0.5) = %d, want min 100", got)
	}
	if got := h.Quantile(1.5); got != 200 {
		t.Fatalf("Quantile(1.5) = %d, want max 200", got)
	}
}

func TestHistogramHugeValueClamped(t *testing.T) {
	// Values beyond the last bucket clamp to it; count, max, and quantiles
	// stay sane.
	h := NewHistogram()
	huge := int64(1) << 62
	h.Record(huge)
	h.Record(huge + 12345)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != huge+12345 {
		t.Fatalf("max = %d", h.Max())
	}
	if got := h.Quantile(0.99); got > h.Max() || got < h.Min() {
		t.Fatalf("q99 = %d outside [min,max]", got)
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	// Merging an empty histogram (either direction) must not disturb
	// min/max bookkeeping.
	a, empty := NewHistogram(), NewHistogram()
	a.Record(500)
	a.Merge(empty)
	if a.Count() != 1 || a.Min() != 500 || a.Max() != 500 {
		t.Fatalf("merge(empty) disturbed: %v", a)
	}
	empty.Merge(a)
	if empty.Count() != 1 || empty.Min() != 500 || empty.Max() != 500 {
		t.Fatalf("empty.Merge(a) wrong: %v", empty)
	}
}

func TestHistogramMergeDisjointQuantiles(t *testing.T) {
	// After merging two disjoint populations the median must fall between
	// them and the extreme quantiles must come from the right population.
	lo, hi := NewHistogram(), NewHistogram()
	for i := 0; i < 1000; i++ {
		lo.Record(int64(1000 + i))      // ~1µs
		hi.Record(int64(1_000_000 + i)) // ~1ms
	}
	lo.Merge(hi)
	if q := lo.Quantile(0.25); q > 2000 {
		t.Fatalf("q25 = %d, want in the low population", q)
	}
	if q := lo.Quantile(0.75); q < 900_000 {
		t.Fatalf("q75 = %d, want in the high population", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(int64(1000 + i))
		b.Record(int64(100000 + i))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 1000 {
		t.Fatalf("merged min = %d", a.Min())
	}
	if a.Max() != 100099 {
		t.Fatalf("merged max = %d", a.Max())
	}
	a.Merge(nil) // must not panic
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("reset did not clear: %v", h)
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("post-reset record broken: %v", h)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	// bucketIndex must be monotone non-decreasing in v.
	prev := -1
	for v := int64(0); v < 1_000_000; v += 37 {
		idx := bucketIndex(v, subBits)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestBucketLowInvertsIndex(t *testing.T) {
	// Property: bucketLow(bucketIndex(v)) <= v and re-indexing the low
	// bound lands in the same bucket.
	f := func(raw uint32) bool {
		v := int64(raw)
		idx := bucketIndex(v, subBits)
		low := bucketLow(idx, subBits)
		return low <= v && bucketIndex(low, subBits) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	// Property: for any recorded sample set, quantile is monotone in q
	// and bounded by min/max.
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev || cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.RecordDuration(time.Duration(i) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P99 < 900*time.Microsecond || s.P99 > time.Millisecond {
		t.Fatalf("p99 = %v", s.P99)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(time.Second, 100)
	s.Add(2*time.Second, 300)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	tm, v := s.At(1)
	if tm != 2*time.Second || v != 300 {
		t.Fatalf("At(1) = %v, %v", tm, v)
	}
	if s.MaxValue() != 300 {
		t.Fatalf("max = %v", s.MaxValue())
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "demo", Headers: []string{"a", "bee"}}
	tb.AddRow("1", "2")
	tb.AddRow("longer", "x")
	out := tb.Render()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"demo", "longer", "bee"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestPercentileExact(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3}
	if got := Percentile(samples, 0.5); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(samples, 1.0); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	// Input must not be reordered.
	if samples[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("load = %d", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatalf("reset = %d", c.Load())
	}
}

func TestCounterSet(t *testing.T) {
	cs := NewCounterSet()
	cs.Get("tx").Add(3)
	cs.Get("rx").Inc()
	cs.Get("tx").Inc()
	if cs.Value("tx") != 4 || cs.Value("rx") != 1 {
		t.Fatalf("values: %s", cs)
	}
	if cs.Value("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	names := cs.Names()
	if len(names) != 2 || names[0] != "rx" || names[1] != "tx" {
		t.Fatalf("names = %v", names)
	}
	snap := cs.Snapshot()
	if snap["tx"] != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
	cs.ResetAll()
	if cs.Value("tx") != 0 {
		t.Fatal("reset all failed")
	}
	if cs.String() != "rx=0 tx=0" {
		t.Fatalf("string = %q", cs.String())
	}
}

// TestBucketLayoutMatchesReference sweeps values across every exponent
// at both resolutions (Histogram's 5 sub-bucket bits, AtomicHist's 4)
// and checks the shared bucketIndex/bucketLow against the two formulas
// they replaced, written out here with a shift-loop leading-zero count.
func TestBucketLayoutMatchesReference(t *testing.T) {
	clz := func(x uint64) int {
		n := 0
		for x&(1<<63) == 0 {
			x <<= 1
			n++
		}
		return n
	}
	refIndex32 := func(v int64) int {
		if v < 0 {
			v = 0
		}
		if v < 32 {
			return int(v)
		}
		exp := 63 - clz(uint64(v))
		return (exp-4)*32 + int(v>>uint(exp-5))&31
	}
	refLow32 := func(i int) int64 {
		if i < 32 {
			return int64(i)
		}
		exp := i/32 + 4
		return 1<<uint(exp) | int64(i%32)<<uint(exp-5)
	}
	refIndex16 := func(v int64) int {
		if v < 16 {
			return int(v)
		}
		exp := 63 - clz(uint64(v))
		return (exp-3)*16 + int(v>>uint(exp-4))&15
	}
	refLow16 := func(i int) int64 {
		if i < 16 {
			return int64(i)
		}
		exp := i/16 + 3
		return 1<<uint(exp) | int64(i%16)<<uint(exp-4)
	}
	rng := rand.New(rand.NewSource(3))
	var vals []int64
	for exp := 0; exp < 63; exp++ {
		lo := int64(1) << exp
		vals = append(vals, lo, lo-1, lo+1, 2*lo-1, lo+rng.Int63n(lo))
	}
	vals = append(vals, 0, -1, -1000)
	for _, v := range vals {
		if got, want := bucketIndex(v, subBits), refIndex32(v); got != want {
			t.Fatalf("bucketIndex(%d, 5) = %d, want %d", v, got, want)
		}
		if v >= 0 {
			if got, want := bucketIndex(v, wSubBits), refIndex16(v); got != want {
				t.Fatalf("bucketIndex(%d, 4) = %d, want %d", v, got, want)
			}
		}
	}
	for i := 0; i < 63*subBuckets; i++ {
		if got, want := bucketLow(i, subBits), refLow32(i); got != want {
			t.Fatalf("bucketLow(%d, 5) = %d, want %d", i, got, want)
		}
	}
	for i := 0; i < wBuckets; i++ {
		if got, want := bucketLow(i, wSubBits), refLow16(i); got != want {
			t.Fatalf("bucketLow(%d, 4) = %d, want %d", i, got, want)
		}
	}
}
