package model

import "math"

// FitCD trains the *symmetric* lasso (α = 1) by cyclic coordinate
// descent with exact per-coordinate minimization — an independent
// solver used to cross-check the FISTA implementation. (The asymmetric
// objective has no closed-form coordinate update, which is why the
// production path uses proximal gradients; on symmetric problems the
// two must agree, and the tests enforce it.)
func FitCD(X [][]float64, y []float64, gamma float64, sweeps int) (*Predictor, error) {
	dz, err := newDesign(X, len(y))
	if err != nil {
		return nil, err
	}
	n, d, st := dz.n, dz.d, dz.st

	// Precompute column norms; residual maintained incrementally. After
	// standardization a live column has colSq ≈ n, so anything orders of
	// magnitude below that is numerical dust: dividing the coordinate
	// update by it would manufacture enormous coefficients from rounding
	// noise. Zero such columns out entirely.
	colSq := make([]float64, d)
	for j := range colSq {
		for _, v := range dz.col(j) {
			colSq[j] += v * v
		}
	}
	minColSq := 1e-12 * float64(n)
	for j := range colSq {
		if colSq[j] <= minColSq {
			colSq[j] = 0
		}
	}
	w := make([]float64, d)
	b0 := mean(y)
	r := make([]float64, n) // r = y − Zw − b0
	for i := range r {
		r[i] = y[i] - b0
	}
	if sweeps <= 0 {
		sweeps = 200
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		var maxDelta float64
		// Intercept update: mean residual.
		var rm float64
		for _, v := range r {
			rm += v
		}
		rm /= float64(n)
		b0 += rm
		for i := range r {
			r[i] -= rm
		}
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			// rho = Z_jᵀ(r + Z_j w_j): the partial residual correlation.
			col := dz.col(j)
			var rho float64
			for i, z := range col {
				rho += z * r[i]
			}
			rho += colSq[j] * w[j]
			// Soft-threshold update for (1/1)·‖r‖² + γ‖w‖₁ scaling:
			// minimizing ‖y−Zw‖² + γ‖w‖₁ coordinate-wise gives
			// w_j = S(rho, γ/2) / colSq[j].
			newW := softThreshold(rho, gamma/2) / colSq[j]
			if delta := newW - w[j]; delta != 0 {
				for i, z := range col {
					r[i] -= z * delta
				}
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
				w[j] = newW
			}
		}
		if maxDelta < 1e-12 {
			break
		}
	}

	p := &Predictor{Coef: make([]float64, d), Intercept: b0}
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
