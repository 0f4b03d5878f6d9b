// Package predict implements the workload-prediction algorithms Hermes's
// Rule Manager uses to decide when to migrate rules out of the shadow table
// (paper §5.1): Exponentially Weighted Moving Average, natural Cubic Spline
// extrapolation, and an AutoRegressive Moving Average model — plus the two
// control-theoretic correctors (Slack and Deadzone) that compensate for
// prediction error.
//
// A Predictor consumes a time series of per-interval rule-arrival counts
// via Observe and produces the expected count for the next interval via
// Predict. Predictions are never negative.
package predict

import "fmt"

// Predictor forecasts the next value of a time series.
type Predictor interface {
	// Observe feeds the value measured for the most recent interval.
	Observe(v float64)
	// Predict returns the forecast for the next interval. Predictors with
	// no observations yet return 0.
	Predict() float64
	// Name identifies the algorithm for reports.
	Name() string
	// Reset clears history.
	Reset()
}

// Corrector inflates a prediction to absorb forecast error (§5.1).
type Corrector interface {
	Correct(pred float64) float64
	Name() string
}

// --- EWMA ---------------------------------------------------------------

// EWMA is an exponentially weighted moving average predictor [Lucas &
// Saccucci 1990].
type EWMA struct {
	// Alpha is the smoothing weight of the newest observation, in (0, 1].
	Alpha float64

	value float64
	seen  bool
}

// NewEWMA returns an EWMA predictor with the given smoothing factor. It
// panics when alpha is out of (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("predict: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{Alpha: alpha}
}

// Observe implements Predictor.
func (e *EWMA) Observe(v float64) {
	if !e.seen {
		e.value, e.seen = v, true
		return
	}
	e.value = e.Alpha*v + (1-e.Alpha)*e.value
}

// Predict implements Predictor.
func (e *EWMA) Predict() float64 { return clampNonNeg(e.value) }

// Name implements Predictor.
func (e *EWMA) Name() string { return "EWMA" }

// Reset implements Predictor.
func (e *EWMA) Reset() { e.value, e.seen = 0, false }

// --- Cubic spline --------------------------------------------------------

// CubicSpline fits a cubic spline with not-a-knot boundary conditions
// through the most recent Window observations (at integer abscissae) and
// extrapolates one step ahead using the final polynomial segment
// [de Boor 1978]. Not-a-knot (rather than natural) boundaries matter here:
// a natural spline forces zero curvature at the last knot, which collapses
// one-step extrapolation to a straight line and loses exactly the
// trend-anticipation the paper relies on (§5.1, §8.6: Cubic Spline + Slack
// was the most effective configuration).
type CubicSpline struct {
	// Window is the number of trailing observations used for the fit.
	Window int

	history window

	// elim is the not-a-knot system's elimination for n knots, recorded
	// once per window length (elim.dim); m holds its right-hand side, then
	// its solution.
	elim   elimination
	elimOK bool
	m      []float64
}

// NewCubicSpline returns a spline predictor over the given window; windows
// below 4 are raised to 4 (a cubic needs at least that many knots to be
// meaningfully constrained).
func NewCubicSpline(window int) *CubicSpline {
	if window < 4 {
		window = 4
	}
	return &CubicSpline{Window: window}
}

// Observe implements Predictor.
func (c *CubicSpline) Observe(v float64) { c.history.push(v, c.Window) }

// Predict implements Predictor.
func (c *CubicSpline) Predict() float64 {
	y := c.history.values()
	n := len(y)
	switch n {
	case 0:
		return 0
	case 1:
		return clampNonNeg(y[0])
	case 2:
		// Linear extrapolation from the last two points.
		return clampNonNeg(2*y[n-1] - y[n-2])
	case 3:
		// Quadratic (second-difference) extrapolation.
		return clampNonNeg(3*y[2] - 3*y[1] + y[0])
	}
	m := c.secondDerivs(y)
	// Evaluate the last segment's cubic at x = n (one past the last knot
	// at n-1). With h = 1 the segment between knots n-2 and n-1 is:
	//   S(x) = y1 + b·t + c·t² + d·t³, t = x - (n-2)
	// where the coefficients derive from the second derivatives m.
	y0, y1 := y[n-2], y[n-1]
	m0, m1 := m[n-2], m[n-1]
	b := (y1 - y0) - (2*m0+m1)/6
	cc := m0 / 2
	d := (m1 - m0) / 6
	t := 2.0 // x = n is two units past knot n-2
	val := y0 + b*t + cc*t*t + d*t*t*t
	return clampNonNeg(val)
}

// Name implements Predictor.
func (c *CubicSpline) Name() string { return "CubicSpline" }

// Reset implements Predictor.
func (c *CubicSpline) Reset() { c.history.reset() }

// secondDerivs solves for the second derivatives M of a cubic spline through
// y (len(y) ≥ 4) at unit-spaced knots with not-a-knot boundary conditions.
// The system is
//
//	M[i-1] + 4 M[i] + M[i+1] = 6 (y[i-1] - 2y[i] + y[i+1])   i = 1..n-2
//	M[0] - 2 M[1] + M[2] = 0                                 (not-a-knot)
//	M[n-3] - 2 M[n-2] + M[n-1] = 0                           (not-a-knot)
//
// Its matrix depends on n alone, so the elimination is recorded once per
// window length and each call replays it on the right-hand side. The result
// aliases c's memory.
func (c *CubicSpline) secondDerivs(y []float64) []float64 {
	n := len(y)
	if c.elim.dim != n {
		c.elimOK = c.elim.record(notAKnotMatrix(n))
		c.m = make([]float64, n)
	}
	m := c.m
	if !c.elimOK {
		clear(m)
		return m
	}
	m[0], m[n-1] = 0, 0
	for i := 1; i <= n-2; i++ {
		m[i] = 6 * (y[i-1] - 2*y[i] + y[i+1])
	}
	c.elim.solve(m)
	return m
}

// notAKnotMatrix returns the n×n matrix of secondDerivs's system.
func notAKnotMatrix(n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	a[0][0], a[0][1], a[0][2] = 1, -2, 1
	for i := 1; i <= n-2; i++ {
		a[i][i-1], a[i][i], a[i][i+1] = 1, 4, 1
	}
	a[n-1][n-3], a[n-1][n-2], a[n-1][n-1] = 1, -2, 1
	return a
}

// --- ARMA ----------------------------------------------------------------

// ARMA is an ARMA(p, 1) predictor [Whittle 1951]: the autoregressive
// coefficients are re-fit by ordinary least squares over a sliding window
// each time a prediction is requested, and a single moving-average term
// corrects with the latest forecast residual.
type ARMA struct {
	// P is the autoregressive order.
	P int
	// Window is the number of trailing observations used for the fit.
	Window int

	history  window
	lastPred float64
	lastErr  float64
	theta    float64
	havePred bool

	fit arFit
}

// NewARMA returns an ARMA(p,1) predictor fit over the given window.
func NewARMA(p, window int) *ARMA {
	if p < 1 {
		p = 1
	}
	if window < 4*p {
		window = 4 * p
	}
	return &ARMA{P: p, Window: window, theta: 0.5}
}

// Observe implements Predictor.
func (a *ARMA) Observe(v float64) {
	if a.havePred {
		a.lastErr = v - a.lastPred
	}
	a.history.push(v, a.Window)
}

// Predict implements Predictor.
func (a *ARMA) Predict() float64 {
	y := a.history.values()
	n := len(y)
	if n == 0 {
		return 0
	}
	if n <= a.P+1 {
		a.lastPred = y[n-1]
		a.havePred = true
		return clampNonNeg(a.lastPred)
	}
	phi := a.fit.fit(y, a.P)
	pred := phi[0] // intercept
	for i := 1; i <= a.P; i++ {
		pred += phi[i] * y[n-i]
	}
	pred += a.theta * a.lastErr
	a.lastPred = pred
	a.havePred = true
	return clampNonNeg(pred)
}

// Name implements Predictor.
func (a *ARMA) Name() string { return "ARMA" }

// Reset implements Predictor.
func (a *ARMA) Reset() {
	a.history.reset()
	a.lastPred, a.lastErr = 0, 0
	a.havePred = false
}

// arFit is the AR least-squares fit's working memory, sized for one order
// and reused across fits.
type arFit struct {
	row, xty []float64   // xty ends up holding β
	xtx      [][]float64 // rows of one backing array
	elim     elimination
}

// fit fits y_t = c + Σ φ_i y_{t-i} by ordinary least squares and returns
// [c, φ_1..φ_p], aliasing f's memory. Falls back to a persistence model when
// the normal equations are singular.
func (f *arFit) fit(y []float64, p int) []float64 {
	n := len(y)
	rows := n - p
	dim := p + 1
	if len(f.row) != dim {
		f.resize(dim)
	}
	// Normal equations: (XᵀX) β = Xᵀy with X = [1, y_{t-1}, ..., y_{t-p}].
	xtx, xty, row := f.xtx, f.xty, f.row
	for _, r := range xtx {
		clear(r)
	}
	clear(xty)
	for t := p; t < n; t++ {
		row[0] = 1
		for i := 1; i <= p; i++ {
			row[i] = y[t-i]
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[t]
		}
	}
	if !f.elim.record(xtx) || rows < dim {
		// Persistence fallback: predict the last value.
		clear(xty)
		xty[1] = 1
		return xty
	}
	f.elim.solve(xty)
	return xty
}

// resize sizes the working memory for dim unknowns.
func (f *arFit) resize(dim int) {
	f.row, f.xty = make([]float64, dim), make([]float64, dim)
	backing := make([]float64, dim*dim)
	f.xtx = make([][]float64, dim)
	for i := range f.xtx {
		f.xtx[i] = backing[i*dim : (i+1)*dim]
	}
}

// elimination is Gauss-Jordan elimination with partial pivoting, recorded.
// Pivot rows, multipliers and the final diagonal depend on the matrix alone,
// so solve replays them on a right-hand side with the same float operations,
// in the same order, that eliminating the augmented system would do to its
// last column: a system whose matrix is fixed is eliminated once.
type elimination struct {
	dim  int
	piv  []int     // piv[col]: the row swapped with row col at step col
	mult []float64 // mult[col*dim+r]: row r's multiplier at step col
	diag []float64 // the diagonal after the last step
}

// record eliminates the square matrix a in place and keeps the steps. It
// reports false when a pivot falls below 1e-9; solve must not be called
// then.
func (e *elimination) record(a [][]float64) bool {
	dim := len(a)
	if e.dim != dim {
		e.dim = dim
		e.piv, e.mult, e.diag = make([]int, dim), make([]float64, dim*dim), make([]float64, dim)
	}
	for col := 0; col < dim; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < dim; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		if abs(a[piv][col]) < 1e-9 {
			return false
		}
		a[col], a[piv] = a[piv], a[col]
		e.piv[col] = piv
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			e.mult[col*dim+r] = f
			for c := col; c < dim; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for i := 0; i < dim; i++ {
		e.diag[i] = a[i][i]
	}
	return true
}

// solve replays the recorded elimination on the right-hand side b and leaves
// the solution in b.
func (e *elimination) solve(b []float64) {
	dim := e.dim
	for col := 0; col < dim; col++ {
		b[col], b[e.piv[col]] = b[e.piv[col]], b[col]
		mult := e.mult[col*dim : (col+1)*dim]
		for r, f := range mult {
			if r == col {
				continue
			}
			b[r] -= f * b[col]
		}
	}
	for i := 0; i < dim; i++ {
		b[i] /= e.diag[i]
	}
}

// window keeps the most recent observations of a series in fixed memory.
// buf holds them twice over — the k-th slot's value at buf[k] and
// buf[k+size] — so the newest n are always the contiguous
// buf[next+size-n : next+size] and observing allocates nothing.
type window struct {
	buf  []float64
	next int // the slot the next observation goes to, in [0, size)
	n    int // observations held, ≤ size
}

// push records v, keeping the newest size observations.
func (w *window) push(v float64, size int) {
	if len(w.buf) != 2*size {
		w.resize(size)
	}
	w.buf[w.next], w.buf[w.next+size] = v, v
	if w.next++; w.next == size {
		w.next = 0
	}
	if w.n < size {
		w.n++
	}
}

// resize re-sizes the buffer (on the first push, or after the predictor's
// Window changed), keeping the newest observations that fit.
func (w *window) resize(size int) {
	keep := w.values()
	keep = keep[max(0, len(keep)-size):]
	buf := make([]float64, 2*size)
	copy(buf, keep)
	copy(buf[size:], keep)
	w.buf, w.n, w.next = buf, len(keep), len(keep)%size
}

// values returns the observations held, oldest first. The slice aliases the
// window and is valid until the next push.
func (w *window) values() []float64 {
	size := len(w.buf) / 2
	return w.buf[w.next+size-w.n : w.next+size]
}

func (w *window) reset() { w.next, w.n = 0, 0 }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// --- Correctors -----------------------------------------------------------

// Slack inflates predictions by a constant factor: a 40% slack turns a
// prediction of 1000 rules into 1400 (§5.1). The paper's default Hermes
// configuration is Cubic Spline with 100% slack (§8.6).
type Slack struct {
	// Factor is the inflation fraction (0.4 = 40%).
	Factor float64
}

// Correct implements Corrector.
func (s Slack) Correct(pred float64) float64 { return pred * (1 + s.Factor) }

// Name implements Corrector.
func (s Slack) Name() string { return fmt.Sprintf("Slack(%.0f%%)", s.Factor*100) }

// Deadzone inflates predictions by a constant count: a deadzone of 100
// turns a prediction of 1000 rules into 1100 (§5.1).
type Deadzone struct {
	// Delta is the constant additive headroom in rules.
	Delta float64
}

// Correct implements Corrector.
func (d Deadzone) Correct(pred float64) float64 { return pred + d.Delta }

// Name implements Corrector.
func (d Deadzone) Name() string { return fmt.Sprintf("Deadzone(%.0f)", d.Delta) }

// Identity applies no correction; used for ablations.
type Identity struct{}

// Correct implements Corrector.
func (Identity) Correct(pred float64) float64 { return pred }

// Name implements Corrector.
func (Identity) Name() string { return "Identity" }

// NewByName constructs a predictor from its report name; the experiment
// harness uses it to sweep algorithms.
func NewByName(name string) (Predictor, error) {
	switch name {
	case "EWMA":
		return NewEWMA(0.3), nil
	case "CubicSpline":
		return NewCubicSpline(16), nil
	case "ARMA":
		return NewARMA(2, 32), nil
	default:
		return nil, fmt.Errorf("predict: unknown predictor %q", name)
	}
}
