package stats

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestWBucketRoundTrip pins the bucket layout: every slot's lower bound
// must map back to that slot, and indexes must be monotone in value.
func TestWBucketRoundTrip(t *testing.T) {
	for i := 0; i < wBuckets; i++ {
		if got := bucketIndex(bucketLow(i, wSubBits), wSubBits); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", i, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, 1 << 30, wClamp} {
		idx := bucketIndex(v, wSubBits)
		if idx < prev {
			t.Fatalf("bucket index not monotone at %d", v)
		}
		if idx >= wBuckets {
			t.Fatalf("bucket index %d out of range for %d", idx, v)
		}
		prev = idx
	}
}

// TestWindowedQuantileAccuracy records a deterministic heavy-tailed
// sample set and checks windowed quantiles against the exact reference
// (stats.Percentile) within the layout's ~6% relative error plus one
// sub-bucket of absolute slack.
func TestWindowedQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWindowedHist(4)
	var ref []time.Duration
	for i := 0; i < 50000; i++ {
		// Log-uniform over ~1µs..10ms with a heavy tail.
		v := int64(1000 * (1 << uint(rng.Intn(14))))
		v += rng.Int63n(v)
		w.Record(v)
		ref = append(ref, time.Duration(v))
	}
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
		want := float64(Percentile(ref, q))
		var got float64
		switch q {
		case 0.50:
			got = float64(w.Window().P50)
		case 0.90:
			got = float64(time.Duration(func() int64 {
				var m histMerge
				for i := range w.epochs {
					w.epochs[i].addTo(&m)
				}
				return m.quantile(0.90)
			}()))
		case 0.99:
			got = float64(w.Window().P99)
		case 0.999:
			got = float64(w.Window().P999)
		}
		tol := want*0.07 + float64(wSub)
		if got < want-tol || got > want+tol {
			t.Errorf("q=%v: windowed %v, reference %v (tol %v)", q, got, want, tol)
		}
	}
	// Total and Window see identical data before any rotation.
	if w.Total().P99 != w.Window().P99 {
		t.Errorf("pre-rotation total p99 %v != window p99 %v", w.Total().P99, w.Window().P99)
	}
}

// TestWindowedRotation checks the sliding-window boundary behavior: old
// epochs age out of the window while the cumulative total keeps
// everything.
func TestWindowedRotation(t *testing.T) {
	w := NewWindowedHist(3)
	// Epoch A: slow observations.
	for i := 0; i < 1000; i++ {
		w.Record(int64(2 * time.Millisecond))
	}
	if got := w.Window().Count; got != 1000 {
		t.Fatalf("window count = %d, want 1000", got)
	}
	w.Rotate() // A becomes history; epoch B current
	for i := 0; i < 1000; i++ {
		w.Record(int64(10 * time.Microsecond))
	}
	// Both epochs inside the window: p99 still dominated by A.
	if got := w.Window().P99; got < time.Millisecond {
		t.Fatalf("p99 %v forgot epoch A too early", got)
	}
	w.Rotate() // epoch C current; ring is [A, B, C]
	w.Rotate() // A's slot cleared and reused: window is now [B, C-old, D]=[B,_,_]
	s := w.Window()
	if s.Count != 1000 {
		t.Fatalf("window count after aging = %d, want 1000 (epoch B only)", s.Count)
	}
	if s.P99 > time.Millisecond {
		t.Errorf("p99 %v still sees aged-out epoch A", s.P99)
	}
	if got := w.Total().Count; got != 2000 {
		t.Errorf("total count = %d, want 2000 (cumulative never resets)", got)
	}
	if got := w.Rotations(); got != 3 {
		t.Errorf("rotations = %d, want 3", got)
	}
}

// TestWindowedSLOBurn checks the burn-rate arithmetic: 5% of
// observations over a 500µs threshold against a 99% target burns the
// budget at 5x.
func TestWindowedSLOBurn(t *testing.T) {
	w := NewWindowedHist(2)
	for i := 0; i < 950; i++ {
		w.Record(int64(100 * time.Microsecond))
	}
	for i := 0; i < 50; i++ {
		w.Record(int64(2 * time.Millisecond))
	}
	s := w.Window()
	if s.Above != 50 {
		t.Fatalf("above = %d, want 50", s.Above)
	}
	if s.Burn < 4.9 || s.Burn > 5.1 {
		t.Errorf("burn = %v, want 5.0", s.Burn)
	}
	if s.Threshold != DefaultSLOThreshold {
		t.Errorf("threshold = %v", s.Threshold)
	}
	// A healthy window burns below 1.
	w2 := NewWindowedHist(2)
	for i := 0; i < 10000; i++ {
		w2.Record(int64(10 * time.Microsecond))
	}
	w2.Record(int64(time.Millisecond))
	if b := w2.Window().Burn; b >= 1 {
		t.Errorf("healthy burn = %v, want < 1", b)
	}
}

// TestWindowedRecordN checks batch recording: N identical observations
// must be indistinguishable from N singles.
func TestWindowedRecordN(t *testing.T) {
	a, b := NewWindowedHist(2), NewWindowedHist(2)
	a.RecordN(int64(750*time.Microsecond), 64)
	for i := 0; i < 64; i++ {
		b.Record(int64(750 * time.Microsecond))
	}
	sa, sb := a.Window(), b.Window()
	if sa != sb {
		t.Errorf("RecordN summary %+v != singles %+v", sa, sb)
	}
}

// TestWindowedMerge checks per-shard shard merging: the union of two
// shards' windows, merged bucket-wise, matches recording everything
// into one histogram.
func TestWindowedMerge(t *testing.T) {
	s1, s2, all := NewWindowedHist(2), NewWindowedHist(2), NewWindowedHist(2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		v := rng.Int63n(int64(time.Millisecond))
		if i%2 == 0 {
			s1.Record(v)
		} else {
			s2.Record(v)
		}
		all.Record(v)
	}
	var m histMerge
	for i := range s1.epochs {
		s1.epochs[i].addTo(&m)
	}
	for i := range s2.epochs {
		s2.epochs[i].addTo(&m)
	}
	merged := s1.summarize(&m)
	want := all.Window()
	if merged.Count != want.Count || merged.P99 != want.P99 || merged.Above != want.Above {
		t.Errorf("merged %+v != single %+v", merged, want)
	}
}

// TestWindowedConcurrent hammers one histogram from many goroutines
// with a rotator running; run under -race this is the lock-freedom
// check, and the total count must be exact regardless of interleaving.
func TestWindowedConcurrent(t *testing.T) {
	w := NewWindowedHist(4)
	const goroutines, per = 8, 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				w.Rotate()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var rec sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		rec.Add(1)
		go func(seed int64) {
			defer rec.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				w.Record(rng.Int63n(int64(time.Millisecond)))
			}
		}(int64(g))
	}
	rec.Wait()
	close(stop)
	wg.Wait()
	if got := w.Total().Count; got != goroutines*per {
		t.Errorf("total count = %d, want %d", got, goroutines*per)
	}
}

// TestWindowedRecordAllocs is the hot-path contract: Record and RecordN
// allocate nothing.
func TestWindowedRecordAllocs(t *testing.T) {
	w := NewWindowedHist(8)
	if n := testing.AllocsPerRun(1000, func() {
		w.Record(int64(123 * time.Microsecond))
		w.RecordN(int64(45*time.Microsecond), 32)
	}); n != 0 {
		t.Errorf("Record allocates %v per run, want 0", n)
	}
}
