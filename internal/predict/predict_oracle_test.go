package predict

// Oracles for the predictors' solvers. The production code records one
// elimination per matrix and replays it on right-hand sides held in reused
// memory; the functions below are the from-scratch forms they replaced — a
// fresh dense augmented system per call, eliminated whole — kept here as the
// reference the bit-for-bit tests compare against.

import (
	"math"
	"math/rand"
	"testing"
)

// oracleSolveGauss solves the augmented dim×(dim+1) system in place with
// partial pivoting.
func oracleSolveGauss(a [][]float64, dim int) ([]float64, bool) {
	for col := 0; col < dim; col++ {
		piv := col
		for r := col + 1; r < dim; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		if abs(a[piv][col]) < 1e-9 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= dim; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	out := make([]float64, dim)
	for i := 0; i < dim; i++ {
		out[i] = a[i][dim] / a[i][i]
	}
	return out, true
}

func oracleSecondDerivs(y []float64) []float64 {
	n := len(y)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	a[0][0], a[0][1], a[0][2] = 1, -2, 1
	for i := 1; i <= n-2; i++ {
		a[i][i-1], a[i][i], a[i][i+1] = 1, 4, 1
		a[i][n] = 6 * (y[i-1] - 2*y[i] + y[i+1])
	}
	a[n-1][n-3], a[n-1][n-2], a[n-1][n-1] = 1, -2, 1
	m, ok := oracleSolveGauss(a, n)
	if !ok {
		return make([]float64, n)
	}
	return m
}

// oracleSplinePredict is CubicSpline.Predict on an explicit history.
func oracleSplinePredict(y []float64) float64 {
	n := len(y)
	switch n {
	case 0:
		return 0
	case 1:
		return clampNonNeg(y[0])
	case 2:
		return clampNonNeg(2*y[n-1] - y[n-2])
	case 3:
		return clampNonNeg(3*y[2] - 3*y[1] + y[0])
	}
	m := oracleSecondDerivs(y)
	y0, y1 := y[n-2], y[n-1]
	m0, m1 := m[n-2], m[n-1]
	b := (y1 - y0) - (2*m0+m1)/6
	cc := m0 / 2
	d := (m1 - m0) / 6
	t := 2.0
	return clampNonNeg(y0 + b*t + cc*t*t + d*t*t*t)
}

// oracleFitAR is the least-squares AR fit on a fresh augmented system.
func oracleFitAR(y []float64, p int) []float64 {
	n := len(y)
	rows := n - p
	dim := p + 1
	xtx := make([][]float64, dim)
	for i := range xtx {
		xtx[i] = make([]float64, dim+1)
	}
	for t := p; t < n; t++ {
		row := make([]float64, dim)
		row[0] = 1
		for i := 1; i <= p; i++ {
			row[i] = y[t-i]
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xtx[i][dim] += row[i] * y[t]
		}
	}
	beta, ok := oracleSolveGauss(xtx, dim)
	if !ok || rows < dim {
		beta = make([]float64, dim)
		beta[1] = 1
	}
	return beta
}

// oracleARMA is ARMA with every fit on fresh memory.
type oracleARMA struct {
	p, window         int
	history           []float64
	lastPred, lastErr float64
	havePred          bool
}

func (a *oracleARMA) observe(v float64) {
	if a.havePred {
		a.lastErr = v - a.lastPred
	}
	a.history = append(a.history, v)
	if len(a.history) > a.window {
		a.history = a.history[len(a.history)-a.window:]
	}
}

func (a *oracleARMA) predict() float64 {
	n := len(a.history)
	if n == 0 {
		return 0
	}
	if n <= a.p+1 {
		a.lastPred = a.history[n-1]
		a.havePred = true
		return clampNonNeg(a.lastPred)
	}
	phi := oracleFitAR(a.history, a.p)
	pred := phi[0]
	for i := 1; i <= a.p; i++ {
		pred += phi[i] * a.history[n-i]
	}
	pred += 0.5 * a.lastErr
	a.lastPred = pred
	a.havePred = true
	return clampNonNeg(pred)
}

// predictorSeries are the shapes the bit-for-bit tests feed: noise of both
// signs, small integers (arrival counts), a constant and a ramp.
func predictorSeries(rng *rand.Rand, n int) map[string][]float64 {
	out := map[string][]float64{}
	var random, integer, constant, ramp []float64
	for i := 0; i < n; i++ {
		random = append(random, rng.NormFloat64()*100)
		integer = append(integer, float64(rng.Intn(1000)))
		constant = append(constant, 42)
		ramp = append(ramp, 3+7*float64(i))
	}
	out["random"], out["integer"], out["constant"], out["ramp"] = random, integer, constant, ramp
	return out
}

// TestCubicSplineMatchesDenseSolve: the recorded elimination replayed per
// tick forecasts bit for bit what a fresh dense solve of the whole window
// does, for every window length 4–40, through warm-up, the ring's wrap, a
// Reset and a Window change.
func TestCubicSplineMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for window := 4; window <= 40; window++ {
		for name, series := range predictorSeries(rng, 3*window+5) {
			c := NewCubicSpline(window)
			var hist []float64
			check := func(i int) {
				t.Helper()
				got, want := c.Predict(), oracleSplinePredict(hist)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("window %d %s step %d: Predict = %v, dense solve %v", window, name, i, got, want)
				}
			}
			feed := func(vs []float64) {
				t.Helper()
				for i, v := range vs {
					c.Observe(v)
					hist = append(hist, v)
					if len(hist) > c.Window {
						hist = hist[len(hist)-c.Window:]
					}
					check(i)
				}
			}
			check(-1)
			feed(series[:2*window])
			c.Reset()
			hist = hist[:0]
			check(-1)
			feed(series[window:])
			c.Window = window/2 + 4
			hist = hist[max(0, len(hist)-c.Window):]
			feed(series[:window])
		}
	}
}

// TestARMAMatchesDenseSolve: fits on reused memory forecast bit for bit what
// fits on fresh memory do.
func TestARMAMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, pw := range [][2]int{{1, 4}, {1, 8}, {2, 8}, {2, 32}, {3, 16}} {
		for name, series := range predictorSeries(rng, 80) {
			a := NewARMA(pw[0], pw[1])
			o := &oracleARMA{p: a.P, window: a.Window}
			for i, v := range series {
				got, want := a.Predict(), o.predict()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ARMA(%d, %d) %s step %d: Predict = %v, dense solve %v", pw[0], pw[1], name, i, got, want)
				}
				a.Observe(v)
				o.observe(v)
			}
		}
	}
}

func TestPredictAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []Predictor{NewCubicSpline(16), NewARMA(2, 32)} {
		for i := 0; i < 40; i++ {
			p.Observe(float64(rng.Intn(100)))
			p.Predict()
		}
		if allocs := testing.AllocsPerRun(100, func() {
			p.Observe(float64(rng.Intn(100)))
			p.Predict()
		}); allocs != 0 {
			t.Errorf("%s: Observe+Predict allocates %v times, want 0", p.Name(), allocs)
		}
	}
}

func BenchmarkCubicSplinePredict(b *testing.B) {
	c := NewCubicSpline(16)
	for i := 0; i < 16; i++ {
		c.Observe(float64(i * i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(float64(i & 1023))
		sinkPrediction = c.Predict()
	}
}

var sinkPrediction float64
