package model

import (
	"fmt"
	"math"
)

// The row-major FISTA solver below is the original, straightforward
// implementation of the fit: every product is a row dot, every
// gradient a row-by-row Zᵀg, and every fit standardizes its own rows
// and estimates its own λmax. It is kept as the reference oracle the
// production kernel (shared column-major design) must match bit for
// bit; see TestFitMatchesReference and FuzzModelFit.

// refStandardized returns X standardized row by row with the
// production scaler.
func refStandardized(X [][]float64) (scaler, [][]float64) {
	st := standardize(X)
	Z := make([][]float64, len(X))
	for i, row := range X {
		z := make([]float64, len(row))
		for j, v := range row {
			if st.sigma[j] > 0 {
				z[j] = (v - st.mu[j]) / st.sigma[j]
			}
		}
		Z[i] = z
	}
	return st, Z
}

func refFit(X [][]float64, y []float64, cfg Config, init *Predictor) (*Predictor, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("%w: %d rows, %d targets", ErrBadShape, n, len(y))
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("%w: ragged rows", ErrBadShape)
		}
	}
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

	st, Z := refStandardized(X)
	w := make([]float64, d)
	b0 := mean(y)
	if init != nil {
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
			for j := range w {
				w[j] = 0
			}
			b0 = mean(y)
		}
	}

	lam := refPowerIterLambda(Z, 60)
	L := 2 * cfg.Alpha * (lam + float64(n))
	if L <= 0 || math.IsNaN(L) {
		L = 1
	}
	step := 1 / (1.1 * L)

	obj := func(w []float64, b0 float64) float64 {
		return refObjective(Z, y, w, b0, cfg.Alpha, cfg.Gamma)
	}

	wPrev := append([]float64(nil), w...)
	b0Prev := b0
	tk := 1.0
	prevObj := obj(w, b0)
	iters := 0
	r := make([]float64, n)
	g := make([]float64, n)
	gradW := make([]float64, d)

	for iters = 1; iters <= cfg.MaxIter; iters++ {
		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		beta := (tk - 1) / tNext
		yw := make([]float64, d)
		for j := range yw {
			yw[j] = w[j] + beta*(w[j]-wPrev[j])
		}
		yb0 := b0 + beta*(b0-b0Prev)

		refResidual(Z, y, yw, yb0, r)
		var gradB0 float64
		for i := range r {
			if r[i] > 0 {
				g[i] = 2 * r[i]
			} else {
				g[i] = 2 * cfg.Alpha * r[i]
			}
			gradB0 += g[i]
		}
		refMatTVec(Z, g, gradW)

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
			if cur > prevObj {
				tk = 1
			}
			prevObj = cur
		}
	}

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

// refObjective computes the full training objective row by row.
func refObjective(Z [][]float64, y, w []float64, b0, alpha, gamma float64) float64 {
	var s float64
	for i := range Z {
		r := dot(Z[i], w) + b0 - y[i]
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

// refResidual fills r with Zw + b0 − y.
func refResidual(Z [][]float64, y, w []float64, b0 float64, r []float64) {
	for i := range Z {
		r[i] = dot(Z[i], w) + b0 - y[i]
	}
}

// refMatTVec computes out = Zᵀ g row by row.
func refMatTVec(Z [][]float64, g []float64, out []float64) {
	for j := range out {
		out[j] = 0
	}
	for i := range Z {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := Z[i]
		for j := range row {
			out[j] += row[j] * gi
		}
	}
}

// refPowerIterLambda estimates λmax(ZᵀZ) by power iteration.
func refPowerIterLambda(Z [][]float64, iters int) float64 {
	if len(Z) == 0 || len(Z[0]) == 0 {
		return 0
	}
	d := len(Z[0])
	v := make([]float64, d)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(d))
	}
	zv := make([]float64, len(Z))
	ztzv := make([]float64, d)
	lam := 0.0
	for it := 0; it < iters; it++ {
		for i := range Z {
			zv[i] = dot(Z[i], v)
		}
		refMatTVec(Z, zv, ztzv)
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

// refDefaultGammas is the γ path built from a fresh row-major
// standardization.
func refDefaultGammas(X [][]float64, y []float64) []float64 {
	st, Z := refStandardized(X)
	ym := mean(y)
	gmax := 0.0
	for j := 0; j < len(st.mu); j++ {
		var s float64
		for i := range Z {
			s += Z[i][j] * (y[i] - ym)
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

// refSelectGamma is SelectGamma with every fit cold and standalone on
// the reference solver.
func refSelectGamma(X [][]float64, y []float64, valFrac float64, cfg Config, gammas []float64) (*Predictor, float64, error) {
	if valFrac <= 0 || valFrac >= 1 {
		valFrac = 0.25
	}
	n := len(X)
	nVal := int(float64(n) * valFrac)
	if nVal < 1 || n-nVal < 1 {
		return nil, 0, fmt.Errorf("model: dataset too small for validation split (%d rows)", n)
	}
	k := n / nVal
	var trX, vaX [][]float64
	var trY, vaY []float64
	for i := range X {
		if k > 0 && i%k == 0 && len(vaX) < nVal {
			vaX = append(vaX, X[i])
			vaY = append(vaY, y[i])
		} else {
			trX = append(trX, X[i])
			trY = append(trY, y[i])
		}
	}
	if len(gammas) == 0 {
		gammas = refDefaultGammas(trX, trY)
	}
	bestGamma := 0.0
	bestScore := math.Inf(1)
	for _, g := range gammas {
		c := cfg
		c.Gamma = g
		p, err := refFit(trX, trY, c, nil)
		if err != nil {
			return nil, 0, err
		}
		e := Evaluate(p, vaX, vaY)
		score := e.MeanAbs - 3*e.WorstUnder + 0.004*float64(len(p.NonZero()))
		if score < bestScore {
			bestScore = score
			bestGamma = g
		}
	}
	c := cfg
	c.Gamma = bestGamma
	p, err := refFit(X, y, c, nil)
	if err != nil {
		return nil, 0, err
	}
	return p, bestGamma, nil
}
