package model

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Errors summarizes a predictor's accuracy on a labelled dataset.
// Relative errors are (prediction − actual) / actual, so positive values
// are over-predictions (safe, slightly wasteful) and negative values are
// under-predictions (deadline risks), matching the paper's Figure 10.
type Errors struct {
	// Rel holds per-job relative errors in input order.
	Rel []float64
	// Median, P25, P75, Min, Max describe the box-and-whisker stats.
	Median, P25, P75, Min, Max float64
	// MeanAbs is the mean absolute relative error.
	MeanAbs float64
	// WorstUnder is the most negative relative error (0 if none).
	WorstUnder float64
	// WorstOver is the largest positive relative error (0 if none).
	WorstOver float64
	// UnderFrac is the fraction of jobs under-predicted.
	UnderFrac float64
}

// Evaluate computes error statistics for a predictor on a dataset.
func Evaluate(p *Predictor, X [][]float64, y []float64) Errors {
	e := Errors{Rel: make([]float64, len(y))}
	var absSum float64
	under := 0
	for i := range y {
		pred := p.Predict(X[i])
		rel := 0.0
		if y[i] != 0 {
			rel = (pred - y[i]) / y[i]
		}
		e.Rel[i] = rel
		absSum += math.Abs(rel)
		if rel < 0 {
			under++
			if rel < e.WorstUnder {
				e.WorstUnder = rel
			}
		} else if rel > e.WorstOver {
			e.WorstOver = rel
		}
	}
	if len(y) > 0 {
		e.MeanAbs = absSum / float64(len(y))
		e.UnderFrac = float64(under) / float64(len(y))
	}
	sorted := append([]float64(nil), e.Rel...)
	sort.Float64s(sorted)
	e.Min = quantile(sorted, 0)
	e.P25 = quantile(sorted, 0.25)
	e.Median = quantile(sorted, 0.5)
	e.P75 = quantile(sorted, 0.75)
	e.Max = quantile(sorted, 1)
	return e
}

// quantile returns the q-quantile of pre-sorted data by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Report renders a model summary with feature names.
func (p *Predictor) Report(names []string) string {
	var sb strings.Builder
	nz := p.NonZero()
	fmt.Fprintf(&sb, "model: %d/%d non-zero terms, intercept %.4g\n", len(nz), len(p.Coef), p.Intercept)
	for _, j := range nz {
		name := fmt.Sprintf("x%d", j)
		if j < len(names) {
			name = names[j]
		}
		fmt.Fprintf(&sb, "  %-32s %+.6g\n", name, p.Coef[j])
	}
	return sb.String()
}

// SelectGamma fits the model over a descending list of γ candidates and
// returns the predictor that minimizes a conservatism-weighted score on
// the validation split, preferring sparser models on near-ties. This is
// the "empirically determined" γ of §3.4 made reproducible. The
// candidate fits share one standardized design of the training split;
// the returned model is a refit on all rows at the chosen γ.
func SelectGamma(X [][]float64, y []float64, valFrac float64, cfg Config, gammas []float64) (*Predictor, float64, error) {
	if valFrac <= 0 || valFrac >= 1 {
		valFrac = 0.25
	}
	n := len(X)
	if n != len(y) {
		return nil, 0, fmt.Errorf("%w: %d rows, %d targets", ErrBadShape, n, len(y))
	}
	nVal := int(float64(n) * valFrac)
	if nVal < 1 || n-nVal < 1 {
		return nil, 0, fmt.Errorf("model: dataset too small for validation split (%d rows)", n)
	}
	// Deterministic interleaved split: every k-th row validates.
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
	tr, err := newDesign(trX, len(trY))
	if err != nil {
		return nil, 0, err
	}
	if len(gammas) == 0 {
		gammas = tr.gammas(trY)
	}
	bestGamma := 0.0
	bestScore := math.Inf(1)
	for _, g := range gammas {
		c := cfg
		c.Gamma = g
		p, err := tr.fit(trY, c, nil)
		if err != nil {
			return nil, 0, err
		}
		e := Evaluate(p, vaX, vaY)
		// Under-predictions dominate the score; each non-zero term costs
		// a little, encoding the paper's preference for tiny slices.
		score := e.MeanAbs - 3*e.WorstUnder + 0.004*float64(len(p.NonZero()))
		if score < bestScore {
			bestScore = score
			bestGamma = g
		}
	}
	c := cfg
	c.Gamma = bestGamma
	p, err := Fit(X, y, c)
	if err != nil {
		return nil, 0, err
	}
	return p, bestGamma, nil
}

// DefaultGammas builds a descending log-spaced γ path scaled to the
// data, from a value that zeroes everything down to (almost) none. It
// returns nil when X and y are not a valid training set (see Fit).
func DefaultGammas(X [][]float64, y []float64) []float64 {
	dz, err := newDesign(X, len(y))
	if err != nil {
		return nil
	}
	return dz.gammas(y)
}
