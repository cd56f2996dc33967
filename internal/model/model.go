// Package model implements the paper's execution-time prediction model
// (§3.4): a linear map from feature values to execution time, trained by
// minimizing the asymmetric, L1-regularized convex objective
//
//	minimize_β  ‖pos(Xβ−y)‖² + α·‖neg(Xβ−y)‖² + γ·‖β‖₁
//
// with α > 1 so under-predictions (which cause deadline misses) are
// penalized more than over-predictions (which only cost energy), and a
// Lasso term that drives most coefficients to zero so the hardware slice
// only needs to compute a handful of features.
//
// The objective's smooth part has a Lipschitz-continuous gradient, so it
// is minimized with FISTA (accelerated proximal gradient) using the
// soft-threshold operator as the L1 proximal map. Everything is written
// from scratch on float64 slices; there are no external dependencies.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Config holds training hyper-parameters.
type Config struct {
	// Alpha is the under-prediction penalty weight (α in the paper).
	// Must be >= 1; the paper sets it well above 1 for conservatism.
	Alpha float64
	// Gamma is the L1 penalty weight (γ). Zero disables sparsity.
	Gamma float64
	// MaxIter bounds FISTA iterations.
	MaxIter int
	// Tol is the relative objective-change convergence threshold.
	Tol float64
}

// DefaultConfig mirrors the paper's design goals: strongly conservative,
// sparse, accurate.
func DefaultConfig() Config {
	return Config{Alpha: 8, Gamma: 0, MaxIter: 4000, Tol: 1e-10}
}

// Predictor is a trained linear execution-time model. Predictions are a
// dot product plus intercept over raw (unstandardized) feature values —
// exactly the multiply-accumulate hardware evaluation of §3.4.
type Predictor struct {
	// Coef are per-feature coefficients in raw feature units.
	Coef []float64
	// Intercept is the constant term.
	Intercept float64
	// Iters is the number of FISTA iterations performed during training.
	Iters int
	// Objective is the final training objective value.
	Objective float64
}

// Predict evaluates the model on one feature vector.
func (p *Predictor) Predict(x []float64) float64 {
	y := p.Intercept
	for i, c := range p.Coef {
		if c != 0 {
			y += c * x[i]
		}
	}
	return y
}

// NonZero returns the indices of features with non-zero coefficients.
func (p *Predictor) NonZero() []int {
	var idx []int
	for i, c := range p.Coef {
		if c != 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// ErrBadShape reports inconsistent training data dimensions.
var ErrBadShape = errors.New("model: inconsistent training data shape")

// Fit trains a predictor on the design matrix X (rows = jobs, columns =
// features) and target vector y (execution times).
func Fit(X [][]float64, y []float64, cfg Config) (*Predictor, error) {
	return FitWarm(X, y, cfg, nil)
}

// FitWarm trains like Fit but starts FISTA from the coefficients of an
// existing predictor instead of from zero. On a refit over data that
// drifted only partially from the incumbent's training set, the
// incumbent is already near the optimum and warm-starting converges in
// far fewer iterations. init must have exactly one coefficient per
// column of X; a nil init is equivalent to Fit.
func FitWarm(X [][]float64, y []float64, cfg Config, init *Predictor) (*Predictor, error) {
	dz, err := newDesign(X, len(y))
	if err != nil {
		return nil, err
	}
	return dz.fit(y, cfg, init)
}

// design is a training matrix standardized once and stored column by
// column. Every FISTA fit over the same rows — the whole γ path of
// SelectGamma — shares one design: its standardization, its λmax(ZᵀZ)
// and its column-major layout, in which Zw touches only the columns of
// non-zero coefficients and Zᵀg is one dot per column.
//
// The column-major kernels are bit-identical to row-by-row dots: each
// row's and each column's sum keeps its order and its acc += z·w shape.
// A sum that starts at +0 never becomes −0 under round-to-nearest, so
// adding 0·z for a finite z changes nothing and a zero coefficient's
// column can be skipped. A column holding a non-finite value is never
// skipped (0·Inf is NaN).
type design struct {
	n, d int
	st   scaler
	// z holds the standardized matrix; column j is z[j*n : (j+1)*n].
	z []float64
	// nonFinite marks columns holding a non-finite standardized value.
	nonFinite []bool
	// lam caches λmax(ZᵀZ) once lamSet; see lambda.
	lam    float64
	lamSet bool
}

// newDesign validates X against a target count and standardizes it.
func newDesign(X [][]float64, targets int) (*design, error) {
	n := len(X)
	if n == 0 || n != targets {
		return nil, fmt.Errorf("%w: %d rows, %d targets", ErrBadShape, n, targets)
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("%w: ragged rows", ErrBadShape)
		}
	}
	dz := &design{n: n, d: d, st: standardize(X), z: make([]float64, n*d), nonFinite: make([]bool, d)}
	for j := 0; j < d; j++ {
		mu, sigma := dz.st.mu[j], dz.st.sigma[j]
		if !(sigma > 0) {
			continue // dropped column: all zeros
		}
		col := dz.col(j)
		for i, row := range X {
			v := (row[j] - mu) / sigma
			col[i] = v
			if math.IsNaN(v) || math.IsInf(v, 0) {
				dz.nonFinite[j] = true
			}
		}
	}
	return dz, nil
}

func (dz *design) col(j int) []float64 { return dz.z[j*dz.n : (j+1)*dz.n] }

// mulVec computes out = Zw, column by column, two live columns per
// pass over out: out[i] + z0·w0 + z1·w1 is the same pair of roundings
// as two separate passes.
func (dz *design) mulVec(w, out []float64) {
	out = out[:dz.n]
	clear(out)
	pending := -1
	for j, wj := range w {
		if wj == 0 && !dz.nonFinite[j] {
			continue
		}
		if pending < 0 {
			pending = j
			continue
		}
		c0, c1, w0 := dz.col(pending)[:len(out)], dz.col(j)[:len(out)], w[pending]
		for i := range out {
			out[i] = out[i] + c0[i]*w0 + c1[i]*wj
		}
		pending = -1
	}
	if pending >= 0 {
		c, w0 := dz.col(pending)[:len(out)], w[pending]
		for i := range out {
			out[i] += c[i] * w0
		}
	}
}

// mulTVec computes out = Zᵀg as one dot per column. Finite columns go
// four at a time: each keeps its own accumulator and order, and the
// four independent sums overlap in the pipeline. A zero g[i] adds
// nothing to a finite column; on a non-finite one it is skipped, as a
// row-by-row Zᵀg skips zero rows.
func (dz *design) mulTVec(g, out []float64) {
	g = g[:dz.n]
	for j := 0; j < dz.d; {
		if j+4 <= dz.d && !(dz.nonFinite[j] || dz.nonFinite[j+1] || dz.nonFinite[j+2] || dz.nonFinite[j+3]) {
			c0, c1, c2, c3 := dz.col(j)[:len(g)], dz.col(j + 1)[:len(g)], dz.col(j + 2)[:len(g)], dz.col(j + 3)[:len(g)]
			var s0, s1, s2, s3 float64
			for i, gi := range g {
				s0 += c0[i] * gi
				s1 += c1[i] * gi
				s2 += c2[i] * gi
				s3 += c3[i] * gi
			}
			out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
			j += 4
			continue
		}
		skipZero := dz.nonFinite[j]
		var s float64
		for i, z := range dz.col(j) {
			if g[i] != 0 || !skipZero {
				s += z * g[i]
			}
		}
		out[j] = s
		j++
	}
}

// residual fills r with Zw + b0 − y.
func (dz *design) residual(y, w []float64, b0 float64, r []float64) {
	dz.mulVec(w, r)
	for i := range r {
		r[i] = r[i] + b0 - y[i]
	}
}

// objective computes the full training objective; scratch holds n
// values and is overwritten.
func (dz *design) objective(y, w []float64, b0, alpha, gamma float64, scratch []float64) float64 {
	dz.residual(y, w, b0, scratch)
	var s float64
	for _, r := range scratch {
		if r > 0 {
			s += r * r
		} else {
			s += alpha * r * r
		}
	}
	for _, c := range w {
		s += gamma * math.Abs(c)
	}
	return s
}

// lambda returns λmax(ZᵀZ), estimated by 60 power iterations on first
// use and shared by every later fit on this design.
func (dz *design) lambda() float64 {
	if !dz.lamSet {
		dz.lam, dz.lamSet = dz.powerIter(60), true
	}
	return dz.lam
}

// powerIter estimates λmax(ZᵀZ) by power iteration.
func (dz *design) powerIter(iters int) float64 {
	if dz.d == 0 {
		return 0
	}
	v := make([]float64, dz.d)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(dz.d))
	}
	zv := make([]float64, dz.n)
	ztzv := make([]float64, dz.d)
	lam := 0.0
	for it := 0; it < iters; it++ {
		dz.mulVec(v, zv)
		dz.mulTVec(zv, ztzv)
		norm := math.Sqrt(dot(ztzv, ztzv))
		if norm == 0 {
			return 0
		}
		for j := range v {
			v[j] = ztzv[j] / norm
		}
		lam = norm
	}
	return lam
}

// gammas builds DefaultGammas' path for targets y.
func (dz *design) gammas(y []float64) []float64 {
	// γ_max ≈ 2·max_j |Z_jᵀ y_c| zeroes all coefficients for plain
	// lasso; the asymmetric weight only increases it, so this is a good
	// upper anchor.
	ym := mean(y)
	gmax := 0.0
	for j := 0; j < dz.d; j++ {
		var s float64
		for i, z := range dz.col(j) {
			s += z * (y[i] - ym)
		}
		if a := 2 * math.Abs(s); a > gmax {
			gmax = a
		}
	}
	if gmax == 0 {
		gmax = 1
	}
	var gs []float64
	for f := 1.0; f > 1e-5; f /= 3.2 {
		gs = append(gs, gmax*f)
	}
	gs = append(gs, 0)
	return gs
}

// fit runs FISTA on this design for targets y (one per row).
func (dz *design) fit(y []float64, cfg Config, init *Predictor) (*Predictor, error) {
	n, d, st := dz.n, dz.d, dz.st
	if init != nil && len(init.Coef) != d {
		return nil, fmt.Errorf("%w: warm start has %d coefficients, data has %d columns", ErrBadShape, len(init.Coef), d)
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("model: non-finite target %v", v)
		}
	}
	if cfg.Alpha < 1 {
		return nil, fmt.Errorf("model: alpha %v < 1", cfg.Alpha)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = DefaultConfig().MaxIter
	}
	if cfg.Tol <= 0 {
		cfg.Tol = DefaultConfig().Tol
	}

	// Center the target; the intercept in standardized space is trained
	// as an explicit unpenalized coordinate starting from mean(y).
	w := make([]float64, d)
	b0 := mean(y)
	if init != nil {
		// Map the raw-unit warm start into standardized coordinates:
		// raw c_j x_j + b  ==  (c_j σ_j) z_j + (b + Σ c_j μ_j).
		wb := init.Intercept
		ok := true
		for j := 0; j < d; j++ {
			w[j] = init.Coef[j] * st.sigma[j]
			wb += init.Coef[j] * st.mu[j]
			if math.IsNaN(w[j]) || math.IsInf(w[j], 0) {
				ok = false
				break
			}
		}
		if ok && !math.IsNaN(wb) && !math.IsInf(wb, 0) {
			b0 = wb
		} else {
			// A poisoned warm start (non-finite incumbent) must not
			// contaminate the refit; fall back to the cold start.
			for j := range w {
				w[j] = 0
			}
			b0 = mean(y)
		}
	}

	// Lipschitz constant of the smooth part: 2·max(1,α)·λmax(AᵀA) where
	// A is Z with an all-ones intercept column.
	L := 2 * cfg.Alpha * (dz.lambda() + float64(n)) // +n bounds the intercept column's contribution
	if L <= 0 || math.IsNaN(L) {
		L = 1
	}
	step := 1 / (1.1 * L)

	// FISTA state. r doubles as the objective's scratch: the residual
	// rewrites it at the top of every iteration.
	r := make([]float64, n)
	g := make([]float64, n)
	gradW := make([]float64, d)
	yw := make([]float64, d)
	obj := func(w []float64, b0 float64) float64 {
		return dz.objective(y, w, b0, cfg.Alpha, cfg.Gamma, r)
	}
	wPrev := append([]float64(nil), w...)
	b0Prev := b0
	tk := 1.0
	prevObj := obj(w, b0)
	iters := 0

	for iters = 1; iters <= cfg.MaxIter; iters++ {
		// Extrapolated point.
		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		beta := (tk - 1) / tNext
		for j := range yw {
			yw[j] = w[j] + beta*(w[j]-wPrev[j])
		}
		yb0 := b0 + beta*(b0-b0Prev)

		// Gradient of the smooth part at the extrapolated point.
		dz.residual(y, yw, yb0, r)
		var gradB0 float64
		for i := range r {
			if r[i] > 0 {
				g[i] = 2 * r[i]
			} else {
				g[i] = 2 * cfg.Alpha * r[i]
			}
			gradB0 += g[i]
		}
		dz.mulTVec(g, gradW)

		// Proximal step: soft threshold on w, plain step on intercept.
		copy(wPrev, w)
		b0Prev = b0
		thr := cfg.Gamma * step
		for j := range w {
			v := yw[j] - step*gradW[j]
			w[j] = softThreshold(v, thr)
		}
		b0 = yb0 - step*gradB0
		tk = tNext

		if iters%25 == 0 {
			cur := obj(w, b0)
			if math.Abs(prevObj-cur) <= cfg.Tol*(math.Abs(prevObj)+1) {
				prevObj = cur
				break
			}
			// FISTA is not monotone; restart momentum on increase.
			if cur > prevObj {
				tk = 1
			}
			prevObj = cur
		}
	}

	// Translate standardized coefficients back to raw feature units:
	// ŷ = b0 + Σ w_j (x_j − μ_j)/σ_j.
	p := &Predictor{Coef: make([]float64, d), Iters: iters, Objective: prevObj}
	p.Intercept = b0
	for j := 0; j < d; j++ {
		if st.sigma[j] == 0 || w[j] == 0 {
			continue
		}
		c := w[j] / st.sigma[j]
		p.Coef[j] = c
		p.Intercept -= c * st.mu[j]
	}
	if err := p.checkFinite(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkFinite rejects a diverged solve: a caller that gets a nil error
// holds a predictor that can only emit finite values on finite inputs.
// Divergence is reachable with extreme-magnitude targets (the squared
// loss overflows before the step size can compensate), and a NaN β
// silently poisons every downstream prediction.
func (p *Predictor) checkFinite() error {
	if math.IsNaN(p.Intercept) || math.IsInf(p.Intercept, 0) {
		return fmt.Errorf("model: fit diverged to non-finite intercept")
	}
	for j, c := range p.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("model: fit diverged to non-finite coefficient %d", j)
		}
	}
	return nil
}

func softThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// scaler holds per-column standardization parameters.
type scaler struct {
	mu, sigma []float64
}

func standardize(X [][]float64) scaler {
	d := len(X[0])
	n := float64(len(X))
	st := scaler{mu: make([]float64, d), sigma: make([]float64, d)}
	for _, row := range X {
		for j, v := range row {
			st.mu[j] += v
		}
	}
	for j := range st.mu {
		st.mu[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - st.mu[j]
			st.sigma[j] += dv * dv
		}
	}
	for j := range st.sigma {
		s := math.Sqrt(st.sigma[j] / n)
		// A non-finite mean or spread (an Inf/NaN cell anywhere in the
		// column) poisons every standardized value; such a column carries
		// no usable signal, so it is dropped the same way a constant one
		// is: sigma 0 means newDesign zeroes it and the back-transform
		// skips it.
		if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(st.mu[j]) || math.IsInf(st.mu[j], 0) {
			st.mu[j], st.sigma[j] = 0, 0
			continue
		}
		// Columns that are constant up to floating-point noise must be
		// treated as exactly constant, or the back-transform divides by
		// a denormal-scale sigma and manufactures enormous coefficients.
		if s < 1e-9*(math.Abs(st.mu[j])+1) {
			s = 0
		}
		st.sigma[j] = s
	}
	return st
}

func mean(y []float64) float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}
