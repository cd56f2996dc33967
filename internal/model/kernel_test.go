package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameFit fails unless a production result equals the reference one
// bit for bit: the same error (by message), or the same Coef,
// Intercept and Objective bits and the same Iters.
func sameFit(t *testing.T, label string, got *Predictor, gotErr error, want *Predictor, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Iters != want.Iters {
		t.Fatalf("%s: Iters %d, reference %d", label, got.Iters, want.Iters)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: Objective %v, reference %v", label, got.Objective, want.Objective)
	}
	if math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept) {
		t.Fatalf("%s: Intercept %v, reference %v", label, got.Intercept, want.Intercept)
	}
	if len(got.Coef) != len(want.Coef) {
		t.Fatalf("%s: %d coefficients, reference %d", label, len(got.Coef), len(want.Coef))
	}
	for j := range got.Coef {
		if math.Float64bits(got.Coef[j]) != math.Float64bits(want.Coef[j]) {
			t.Fatalf("%s: Coef[%d] %v, reference %v", label, j, got.Coef[j], want.Coef[j])
		}
	}
}

// randomDesign draws an n×d design whose columns mix the shapes the
// standardizer special-cases: live, constant, constant up to rounding
// noise, holding a non-finite cell, mostly zero, and huge-magnitude.
func randomDesign(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
	}
	coef := make([]float64, d)
	for j := 0; j < d; j++ {
		kind := rng.Intn(8)
		base := rng.NormFloat64() * 50
		for i := range X {
			var v float64
			switch kind {
			case 0:
				v = base
			case 1:
				v = base + 1e-13*rng.NormFloat64()
			case 2:
				if rng.Intn(4) == 0 {
					v = float64(rng.Intn(5))
				}
			case 3:
				v = rng.NormFloat64() * 1e7
			default:
				v = base + rng.NormFloat64()*float64(1+rng.Intn(20))
			}
			X[i][j] = v
		}
		if kind == 4 && n > 1 {
			X[rng.Intn(n)][j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		if rng.Intn(3) > 0 {
			coef[j] = rng.NormFloat64() * 3
		}
	}
	y := make([]float64, n)
	for i, row := range X {
		y[i] = 100 + rng.NormFloat64()
		for j, v := range row {
			if c := coef[j]; c != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				y[i] += c * v / (1 + math.Abs(v)/1e3)
			}
		}
	}
	return X, y
}

// TestFitMatchesReference is the fit-kernel oracle: on random designs
// with degenerate columns, for α ∈ {1, 8}, several γ, and cold, warm
// and poisoned-warm starts, the shared column-major solver must return
// exactly what the row-major reference returns.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fits, solved := 0, 0
	for trial := 0; trial < 60; trial++ {
		n, d := 1+rng.Intn(120), rng.Intn(9)
		X, y := randomDesign(rng, n, d)
		gammas := []float64{0, 1e9}
		if gs := refDefaultGammas(X, y); len(gs) > 3 {
			gammas = append(gammas, gs[1], gs[3])
		}
		incumbent, err := refFit(X, y, Config{Alpha: 8, MaxIter: 200}, nil)
		if err != nil {
			incumbent = nil
		}
		poisoned := &Predictor{Coef: make([]float64, d)}
		if d > 0 {
			poisoned.Coef[rng.Intn(d)] = math.NaN()
		} else {
			poisoned.Intercept = math.Inf(1)
		}
		for _, alpha := range []float64{1, 8} {
			for _, gamma := range gammas {
				cfg := Config{Alpha: alpha, Gamma: gamma, MaxIter: 50 + rng.Intn(1500), Tol: 1e-10}
				label := fmt.Sprintf("trial %d n=%d d=%d α=%v γ=%v", trial, n, d, alpha, gamma)
				got, gerr := Fit(X, y, cfg)
				want, werr := refFit(X, y, cfg, nil)
				sameFit(t, label+" cold", got, gerr, want, werr)
				fits++
				if gerr == nil && len(got.NonZero()) > 0 {
					solved++
				}
				if incumbent != nil {
					got, gerr = FitWarm(X, y, cfg, incumbent)
					want, werr = refFit(X, y, cfg, incumbent)
					sameFit(t, label+" warm", got, gerr, want, werr)
				}
				got, gerr = FitWarm(X, y, cfg, poisoned)
				want, werr = refFit(X, y, cfg, poisoned)
				sameFit(t, label+" poisoned warm", got, gerr, want, werr)
			}
		}
	}
	// Guard the oracle's reach: most cold fits must succeed with a
	// non-trivial model, or the comparison proves little.
	if solved*2 < fits {
		t.Fatalf("only %d of %d cold fits produced a non-zero model", solved, fits)
	}
}

// TestSelectGammaMatchesReference: the γ path on one shared design
// picks the same γ and returns the same refit as a path of standalone
// reference fits, for the default path and an explicit one.
func TestSelectGammaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		X, y := randomDesign(rng, 8+rng.Intn(150), 1+rng.Intn(8))
		cfg := Config{Alpha: []float64{1, 8}[trial%2], MaxIter: 600}
		for _, gammas := range [][]float64{nil, {5, 0.5, 0}} {
			label := fmt.Sprintf("trial %d gammas=%v", trial, gammas)
			got, gg, gerr := SelectGamma(X, y, 0.25, cfg, gammas)
			want, wg, werr := refSelectGamma(X, y, 0.25, cfg, gammas)
			sameFit(t, label, got, gerr, want, werr)
			if gerr == nil && math.Float64bits(gg) != math.Float64bits(wg) {
				t.Fatalf("%s: chose γ=%v, reference γ=%v", label, gg, wg)
			}
		}
	}
}

// TestDefaultGammasMatchesReference pins the path itself.
func TestDefaultGammasMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		X, y := randomDesign(rng, 1+rng.Intn(80), rng.Intn(7))
		got, want := DefaultGammas(X, y), refDefaultGammas(X, y)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d gammas, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: gamma[%d] %v, reference %v", trial, i, got[i], want[i])
			}
		}
	}
	if gs := DefaultGammas([][]float64{{1}, {2, 3}}, []float64{1, 2}); gs != nil {
		t.Errorf("ragged design: got path %v, want nil", gs)
	}
}

// TestDesignKernelsMatchRowMajor checks the column-major kernels
// against row dots directly, including on a design holding a
// non-finite standardized value — unreachable through standardize,
// which drops such columns, but a column the kernels must then never
// skip: 0·Inf is NaN in a row dot.
func TestDesignKernelsMatchRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n, d := 1+rng.Intn(40), 1+rng.Intn(6)
		X, y := randomDesign(rng, n, d)
		dz, err := newDesign(X, len(y))
		if err != nil {
			t.Fatal(err)
		}
		_, Z := refStandardized(X)
		if trial%2 == 1 {
			j, i := rng.Intn(d), rng.Intn(n)
			v := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			dz.col(j)[i], Z[i][j] = v, v
			dz.nonFinite[j] = true
		}
		if got, want := dz.powerIter(60), refPowerIterLambda(Z, 60); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: λmax %v, reference %v", trial, got, want)
		}
		w := make([]float64, d)
		g := make([]float64, n)
		for j := range w {
			if rng.Intn(2) == 0 {
				w[j] = rng.NormFloat64()
			}
		}
		for i := range g {
			if rng.Intn(3) > 0 {
				g[i] = rng.NormFloat64()
			}
		}
		zw, ztg, ref := make([]float64, n), make([]float64, d), make([]float64, d)
		dz.mulVec(w, zw)
		for i := range Z {
			if want := dot(Z[i], w); math.Float64bits(zw[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d: (Zw)[%d] %v, row dot %v", trial, i, zw[i], want)
			}
		}
		dz.mulTVec(g, ztg)
		refMatTVec(Z, g, ref)
		for j := range ref {
			if math.Float64bits(ztg[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("trial %d: (Zᵀg)[%d] %v, reference %v", trial, j, ztg[j], ref[j])
			}
		}
		for _, gamma := range []float64{0, 0.7} {
			got := dz.objective(y, w, 3, 8, gamma, make([]float64, n))
			if want := refObjective(Z, y, w, 3, 8, gamma); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: objective %v, reference %v", trial, got, want)
			}
		}
	}
}

// h264Shaped draws a design the size of the largest suite fit (h264:
// 600 jobs, 27 features) with a sparse linear truth.
func h264Shaped() ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(29))
	coef := make([]float64, 27)
	for _, j := range []int{0, 3, 7, 12, 20} {
		coef[j] = 1e-5 * (1 + rng.Float64())
	}
	X := make([][]float64, 600)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = make([]float64, len(coef))
		y[i] = 1e-3
		for j := range coef {
			X[i][j] = float64(rng.Intn(400))
			y[i] += coef[j] * X[i][j]
		}
	}
	return X, y
}

// BenchmarkSelectGamma times the γ path the training flow runs per
// benchmark; BenchmarkSelectGammaReference is the same path on the
// row-major reference solver.
func BenchmarkSelectGamma(b *testing.B) {
	X, y := h264Shaped()
	for i := 0; i < b.N; i++ {
		if _, _, err := SelectGamma(X, y, 0.25, DefaultConfig(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectGammaReference(b *testing.B) {
	X, y := h264Shaped()
	for i := 0; i < b.N; i++ {
		if _, _, err := refSelectGamma(X, y, 0.25, DefaultConfig(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
