package model

import (
	"math"
	"testing"
)

// FuzzModelFit hammers both solvers with arbitrary design matrices,
// targets, and hyper-parameters. The contract under test: neither
// solver ever panics, and whenever a solver returns a nil error the
// resulting β is entirely finite and predicts finite values on the
// training rows — bad input may be rejected, but it may never produce
// a silently poisoned model. The FISTA fit must also equal the
// row-major reference solver (oracle_test.go) bit for bit, cold and
// warm-started from its own result.
//
// Byte layout: data[0] picks the column count (1..6); the rest is
// consumed in 2-byte big-endian chunks, each decoding to one cell in
// row-major (d features then the target) order. Three sentinel chunks
// decode to NaN/±Inf so the fuzzer can reach the poisoned-column and
// non-finite-target paths.
func FuzzModelFit(f *testing.F) {
	f.Add([]byte{2, 0x80, 0x00, 0x81, 0x00, 0x82, 0x00, 0x80, 0x40, 0x81, 0x40, 0x82, 0x40, 0x80, 0x80, 0x81, 0x80, 0x82, 0x80}, 8.0, 0.1)
	f.Add([]byte{1, 0xFF, 0xFF, 0x80, 0x00, 0x90, 0x00, 0x91, 0x00}, 1.0, 0.0)
	f.Add([]byte{3, 0xFF, 0xFE, 0xFF, 0xFD, 0x80, 0x00, 0x80, 0x01}, 4.0, 1e6)
	f.Add([]byte{6}, 0.5, -1.0)
	f.Fuzz(func(t *testing.T, data []byte, alpha, gamma float64) {
		if len(data) == 0 {
			return
		}
		d := 1 + int(data[0])%6
		data = data[1:]
		var vals []float64
		for i := 0; i+1 < len(data); i += 2 {
			chunk := uint16(data[i])<<8 | uint16(data[i+1])
			switch chunk {
			case 0xFFFF:
				vals = append(vals, math.NaN())
			case 0xFFFE:
				vals = append(vals, math.Inf(1))
			case 0xFFFD:
				vals = append(vals, math.Inf(-1))
			default:
				vals = append(vals, (float64(chunk)-32768)/64)
			}
		}
		rows := len(vals) / (d + 1)
		if rows == 0 {
			return
		}
		// Bound the problem size so the smoke budget explores inputs
		// instead of grinding one huge solve.
		if rows > 200 {
			rows = 200
		}
		X := make([][]float64, rows)
		y := make([]float64, rows)
		for i := 0; i < rows; i++ {
			X[i] = vals[i*(d+1) : i*(d+1)+d]
			y[i] = vals[i*(d+1)+d]
		}

		check := func(name string, p *Predictor, err error) {
			if err != nil {
				return
			}
			if ferr := p.checkFinite(); ferr != nil {
				t.Fatalf("%s: nil error but %v", name, ferr)
			}
			for i := range X {
				finiteRow := true
				for _, v := range X[i] {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						finiteRow = false
					}
				}
				if !finiteRow {
					continue
				}
				if got := p.Predict(X[i]); math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("%s: non-finite prediction %v on finite row %v", name, got, X[i])
				}
			}
		}
		cfg := Config{Alpha: alpha, Gamma: gamma, MaxIter: 300}
		p, err := Fit(X, y, cfg)
		check("fista", p, err)
		want, werr := refFit(X, y, cfg, nil)
		sameFit(t, "fista vs reference", p, err, want, werr)
		if err == nil {
			warm, werr := FitWarm(X, y, cfg, p)
			want, rerr := refFit(X, y, cfg, p)
			sameFit(t, "warm fista vs reference", warm, werr, want, rerr)
		}
		p, err = FitCD(X, y, gamma, 50)
		check("cd", p, err)
	})
}
