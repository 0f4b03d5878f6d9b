package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hermes/internal/stats"
)

// TestBucketRoundTrip checks the index↔bound mapping is consistent over
// the whole 64-bit range: every value lands in a bucket whose [low, high]
// range contains it, and bucket bounds tile the range without gaps.
func TestBucketRoundTrip(t *testing.T) {
	probe := func(v uint64) {
		i := bucketIndex(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if lo, hi := bucketLow(i), bucketHigh(i); v < lo || v > hi {
			t.Fatalf("value %d maps to bucket %d [%d,%d]", v, i, lo, hi)
		}
	}
	for v := uint64(0); v < 4096; v++ {
		probe(v)
	}
	for shift := 0; shift < 64; shift++ {
		v := uint64(1) << shift
		probe(v)
		probe(v - 1)
		probe(v + 1)
	}
	probe(math.MaxUint64)

	// Buckets tile: each bucket starts where the previous one ended.
	for i := 1; i < histNumBuckets; i++ {
		if bucketLow(i) != bucketHigh(i-1)+1 {
			t.Fatalf("gap between buckets %d and %d: high=%d low=%d",
				i-1, i, bucketHigh(i-1), bucketLow(i))
		}
	}

	// Relative bucket width stays within the design bound of 1/32.
	for i := histSubBuckets; i < histNumBuckets; i++ {
		lo, hi := bucketLow(i), bucketHigh(i)
		if width := float64(hi-lo) / float64(lo); width > 1.0/histSubBuckets+1e-12 {
			t.Fatalf("bucket %d width %g exceeds design bound", i, width)
		}
	}
}

// quantileOracleCheck records samples into a histogram and into a
// stats.Summary, then compares quantiles under a relative-error bound of
// 5% (design error is ~3.1% from bucket width; headroom covers the
// differing intra-bucket interpolation conventions).
func quantileOracleCheck(t *testing.T, name string, samples []uint64) {
	t.Helper()
	h := NewHistogram()
	fs := make([]float64, len(samples))
	for i, v := range samples {
		h.Record(v)
		fs[i] = float64(v)
	}
	sum := stats.Summarize(fs)
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		want := sum.Quantile(q)
		got := h.Quantile(q)
		tol := 0.05*math.Abs(want) + 1.5 // absolute slack for tiny values
		if math.Abs(got-want) > tol {
			t.Errorf("%s: q=%v: hist=%g oracle=%g (tol %g)", name, q, got, want, tol)
		}
	}
	if h.Count() != uint64(len(samples)) {
		t.Errorf("%s: count = %d, want %d", name, h.Count(), len(samples))
	}
	if got, want := h.Min(), uint64(sum.Min()); got != want {
		t.Errorf("%s: min = %d, want %d", name, got, want)
	}
	if got, want := h.Max(), uint64(sum.Max()); got != want {
		t.Errorf("%s: max = %d, want %d", name, got, want)
	}
}

func TestQuantileVsOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	t.Run("uniform", func(t *testing.T) {
		s := make([]uint64, 10000)
		for i := range s {
			s[i] = uint64(rng.Int63n(1_000_000))
		}
		quantileOracleCheck(t, "uniform", s)
	})
	t.Run("lognormal", func(t *testing.T) {
		// Latency-shaped: heavy right tail like the paper's Fig. 1.
		s := make([]uint64, 10000)
		for i := range s {
			s[i] = uint64(math.Exp(rng.NormFloat64()*2 + 10))
		}
		quantileOracleCheck(t, "lognormal", s)
	})
	t.Run("exponential", func(t *testing.T) {
		s := make([]uint64, 10000)
		for i := range s {
			s[i] = uint64(rng.ExpFloat64() * 50_000)
		}
		quantileOracleCheck(t, "exponential", s)
	})
}

func TestQuantileVsOracleAdversarial(t *testing.T) {
	t.Run("constant", func(t *testing.T) {
		s := make([]uint64, 1000)
		for i := range s {
			s[i] = 77777
		}
		quantileOracleCheck(t, "constant", s)
	})
	t.Run("two-point-bimodal", func(t *testing.T) {
		// All mass at two distant points: quantiles must snap to one of
		// them, not smear across the empty region (except exactly at the
		// jump quantile, where both conventions interpolate).
		s := make([]uint64, 0, 1000)
		for i := 0; i < 900; i++ {
			s = append(s, 100)
		}
		for i := 0; i < 100; i++ {
			s = append(s, 1_000_000)
		}
		h := NewHistogram()
		for _, v := range s {
			h.Record(v)
		}
		if got := h.Quantile(0.5); math.Abs(got-100) > 5 {
			t.Errorf("bimodal p50 = %g, want ≈100", got)
		}
		if got := h.Quantile(0.95); math.Abs(got-1_000_000) > 0.05*1_000_000 {
			t.Errorf("bimodal p95 = %g, want ≈1e6", got)
		}
	})
	t.Run("single-sample", func(t *testing.T) {
		quantileOracleCheck(t, "single", []uint64{123456})
	})
	t.Run("powers-of-two", func(t *testing.T) {
		// Every value on a bucket boundary.
		var s []uint64
		for i := 0; i < 40; i++ {
			s = append(s, uint64(1)<<i)
		}
		quantileOracleCheck(t, "pow2", s)
	})
	t.Run("small-exact-region", func(t *testing.T) {
		// Values < 32 are exact; oracle and histogram must agree tightly.
		s := make([]uint64, 0, 320)
		for v := uint64(0); v < 32; v++ {
			for k := 0; k < 10; k++ {
				s = append(s, v)
			}
		}
		quantileOracleCheck(t, "exact", s)
	})
	t.Run("zipf-tail", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		z := rand.NewZipf(rng, 1.2, 1, 1<<40)
		s := make([]uint64, 5000)
		for i := range s {
			s[i] = z.Uint64()
		}
		quantileOracleCheck(t, "zipf", s)
	})
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram scalar accessors must all be zero")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram statistics must be zero")
	}
	if bs := h.SnapshotBuckets(); len(bs) != 0 {
		t.Fatalf("empty histogram has %d snapshot buckets", len(bs))
	}
}

func TestHistogramMergeClone(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for v := uint64(1); v <= 100; v++ {
		a.Record(v * 10)
		b.Record(v * 1000)
	}
	m := a.Clone()
	m.Merge(b)
	if m.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", m.Count())
	}
	if m.Sum() != a.Sum()+b.Sum() {
		t.Fatalf("merged sum = %d, want %d", m.Sum(), a.Sum()+b.Sum())
	}
	if m.Min() != a.Min() || m.Max() != b.Max() {
		t.Fatalf("merged min/max = %d/%d, want %d/%d", m.Min(), m.Max(), a.Min(), b.Max())
	}
	// Clone is independent of its source.
	a.Record(5)
	if m.Count() != 200 {
		t.Fatal("clone shares state with source")
	}
}

func TestMergeEmptyAndSingleBucket(t *testing.T) {
	empty := NewHistogram().Clone()
	if empty.Count() != 0 || empty.Min() != 0 || empty.Max() != 0 || empty.Quantile(0.99) != 0 {
		t.Fatal("empty clone statistics must be zero")
	}

	// empty ⊕ empty stays empty.
	e2 := empty.Clone()
	e2.Merge(NewHistogram())
	if e2.Count() != 0 || e2.Quantile(0.5) != 0 {
		t.Fatal("merging two empty histograms is not empty")
	}

	// Single-bucket source merged into empty: extremes and quantiles exact.
	h := NewHistogram()
	h.Record(777)
	m := NewHistogram()
	m.Merge(h.Clone())
	if m.Count() != 1 || m.Min() != 777 || m.Max() != 777 {
		t.Fatalf("empty+single merge: count=%d min=%d max=%d", m.Count(), m.Min(), m.Max())
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := m.Quantile(q); got != 777 {
			t.Fatalf("single-value q=%v = %g, want 777", q, got)
		}
	}

	// Merging an empty histogram into a populated one must not clobber the
	// extremes (the sentinel-handling edge case).
	m.Merge(empty)
	if m.Min() != 777 || m.Max() != 777 || m.Count() != 1 {
		t.Fatalf("populated+empty merge corrupted extremes: min=%d max=%d", m.Min(), m.Max())
	}

	// Two single-bucket histograms in distant buckets.
	h2 := NewHistogram()
	h2.Record(1_000_000)
	m.Merge(h2.Clone())
	if m.Count() != 2 || m.Min() != 777 || m.Max() != 1_000_000 {
		t.Fatalf("distant merge: count=%d min=%d max=%d", m.Count(), m.Min(), m.Max())
	}
	if got := m.Quantile(1); got != 1_000_000 {
		t.Fatalf("merged q=1 = %g, want exactly 1000000", got)
	}
	if got := m.Quantile(0); got != 777 {
		t.Fatalf("merged q=0 = %g, want exactly 777", got)
	}
}

func TestQuantileClampedToObservedRange(t *testing.T) {
	// Bucket interpolation used to report values outside [min, max] for
	// sparse histograms (e.g. q=1 landing at the bucket's low bound, below
	// the true maximum). The extremes are exact; quantiles must respect
	// them.
	h := NewHistogram()
	h.Record(10)
	h.Record(1000)
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("q=1 = %g, want exactly 1000", got)
	}
	if got := h.Quantile(0); got != 10 {
		t.Fatalf("q=0 = %g, want exactly 10", got)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.999} {
		got := h.Quantile(q)
		if got < 10 || got > 1000 {
			t.Fatalf("q=%v = %g outside observed range [10,1000]", q, got)
		}
	}
}

// TestCloneDuringConcurrentRecord proves a clone is self-consistent (count
// == bucket mass, so quantile scans end inside its buckets, and the extremes
// lie in its first and last buckets) while writers hammer the source.
func TestCloneDuringConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Record(uint64(rng.Int63n(1 << 28)))
				}
			}
		}(int64(w))
	}
	for i := 0; i < 200; i++ {
		c := h.Clone()
		var mass uint64
		first, last := -1, -1
		for b := range c.buckets {
			if n := c.buckets[b].Load(); n != 0 {
				mass += n
				if first < 0 {
					first = b
				}
				last = b
			}
		}
		if mass != c.Count() {
			t.Errorf("clone count %d != bucket mass %d", c.Count(), mass)
			break
		}
		if mass == 0 {
			continue
		}
		if bucketIndex(c.Min()) != first || bucketIndex(c.Max()) != last {
			t.Errorf("clone extremes %d/%d outside its first/last buckets %d/%d",
				c.Min(), c.Max(), first, last)
			break
		}
		if q := c.Quantile(0.99); q < float64(c.Min()) || q > float64(c.Max()) {
			t.Errorf("q=0.99 %g outside [%d,%d]", q, c.Min(), c.Max())
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestMergeDuringConcurrentRecord merges a histogram two writers are
// recording into, over and over, each time into an empty one: the merged
// count is the mass of the buckets merged, and the extremes lie in the first
// and last of them, however the merge interleaved with the Records.
func TestMergeDuringConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Record(uint64(rng.Int63n(1 << 28)))
				}
			}
		}(int64(w))
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		m := NewHistogram()
		m.Merge(h)
		var mass uint64
		first, last := -1, -1
		for b := range m.buckets {
			if n := m.buckets[b].Load(); n != 0 {
				mass += n
				if first < 0 {
					first = b
				}
				last = b
			}
		}
		if mass != m.Count() {
			t.Fatalf("merge %d: count %d != bucket mass %d", i, m.Count(), mass)
		}
		if mass != 0 && (bucketIndex(m.Min()) != first || bucketIndex(m.Max()) != last) {
			t.Fatalf("merge %d: extremes %d/%d outside the first/last buckets %d/%d",
				i, m.Min(), m.Max(), first, last)
		}
	}
}

// TestConcurrentRecordSnapshot hammers one histogram, one counter and one
// gauge from many goroutines while a reader snapshots continuously. Run
// under -race this is the data-race proof; the final totals prove no
// updates were lost.
func TestConcurrentRecordSnapshot(t *testing.T) {
	const (
		workers = 8
		perG    = 20000
	)
	h := NewHistogram()
	var c Counter
	var g Gauge
	stop := make(chan struct{})

	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = h.Quantile(0.99)
			_ = h.SnapshotBuckets()
			_ = h.Clone()
			_ = c.Value()
			_ = g.Value()
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Record(uint64(rng.Int63n(1 << 30)))
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}(int64(w))
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := h.Count(); got != workers*perG {
		t.Fatalf("histogram count = %d, want %d", got, workers*perG)
	}
	if got := c.Value(); got != workers*perG {
		t.Fatalf("counter = %d, want %d", got, workers*perG)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

// TestRecordPathZeroAllocs enforces the claim README and DESIGN §11 make:
// recording a sample, bumping a counter and tracing an event never touch
// the heap.
func TestRecordPathZeroAllocs(t *testing.T) {
	h := NewHistogram()
	var c Counter
	tr := NewTracer(1024, 8)
	v := uint64(0)
	for name, record := range map[string]func(){
		"Histogram.Record": func() { v += 1023; h.Record(v) },
		"Counter.Add":      func() { c.Add(3) },
		"Tracer.Record":    func() { v++; tr.Record(0, EvAdmit, 0, v, 1, 2) },
	} {
		if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i) * 31)
	}
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			v += 1023
			h.Record(v)
		}
	})
}

func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(1024, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(0, EvAdmit, 0, uint64(i), 1, 2)
	}
}
