package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// expected holds the recorded outputs the correctness gates compare
// against: the digest of the rendered seed-42 tables (paper order, as
// dvfsim prints them without its timing and job-count lines), the
// Figure 11 prediction averages, and each serving workload's virtual
// outcome per recorded seed.
type expected struct {
	OfflineDigest string                        `json:"offline_digest"`
	Fig11Energy   string                        `json:"fig11_energy"`
	Fig11Miss     string                        `json:"fig11_miss"`
	Serving       map[string]map[string]outcome `json:"serving"`
}

//go:embed expected.json
var expectedJSON []byte

var loadExpected = sync.OnceValue(func() expected {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err))
	}
	return e
})

// recordSeeds is how many seeds, 0 to recordSeeds-1, expected.json
// records for each serving workload.
const recordSeeds = 100

// recordExpected regenerates expected.json: one offline pass for the
// table digest and the Figure 11 averages, then one pass per seed of
// each serving workload. It measures nothing.
func recordExpected(path string) error {
	p, err := runOfflinePass(nil)
	if err != nil {
		return err
	}
	fig11, err := expFigure11(p)
	if err != nil {
		return err
	}
	e := expected{
		OfflineDigest: p.digest,
		Fig11Energy:   fmt.Sprintf("%.1f", fig11[0]),
		Fig11Miss:     fmt.Sprintf("%.1f", fig11[1]),
		Serving:       map[string]map[string]outcome{},
	}
	frames, err := setupFrames()
	if err != nil {
		return err
	}
	fleet, err := setupFleet()
	if err != nil {
		return err
	}
	envs := map[string]passer{"serve-frames": frames, "fleet-drift": fleet}
	gens := map[string]func(int64) []stream{"serve-frames": frameStreams, "fleet-drift": driftStreams}
	for _, w := range []string{"serve-frames", "fleet-drift"} {
		e.Serving[w] = map[string]outcome{}
		for s := int64(0); s < recordSeeds; s++ {
			sp, err := envs[w].pass(gens[w](s), nil)
			if err != nil {
				return err
			}
			if len(sp.invariant) > 0 || sp.errors > 0 || sp.drive.refused > 0 || sp.drive.errored > 0 {
				return fmt.Errorf("%s seed %d: invariants %v, errors %d, refused %d, errored %d",
					w, s, sp.invariant, sp.errors, sp.drive.refused, sp.drive.errored)
			}
			e.Serving[w][strconv.FormatInt(s, 10)] = sp.virt
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %+v\n", w, s, sp.virt)
		}
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// finishTrace writes the traced run's spans, counts them, and reports
// every per-layer metric the workload left idle as 0.
func finishTrace(res *result, tr *tracer, cfg runConfig) (*result, error) {
	tr.mu.Lock()
	res.metrics["trace.spans"] = float64(len(tr.spans))
	tr.mu.Unlock()
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.note("spans: %s", path)
	zeroMetrics(res)
	return res, nil
}
