package exp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rtl"
)

// TestDefaultFlowHasNoNativeFallbacks is the tripwire for a stale
// generated-simulator registry: dvfsim's default seed-42 flow (Train
// plus CollectTraces on all 7 benchmarks) must resolve every netlist it
// simulates to a generated native run function. A fallback still
// produces correct tables — only ~7x slower — so without this test a netlist or
// trainer change that forgot `go generate ./internal/rtl/native` would
// go unnoticed.
func TestDefaultFlowHasNoNativeFallbacks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the full suite; skipped with -short")
	}
	prevEngine, prevCache := rtl.DefaultEngine(), core.TraceCache()
	if err := rtl.SetDefaultEngine(""); err != nil { // "" selects the default
		t.Fatal(err)
	}
	core.SetTraceCache(nil)
	t.Cleanup(func() {
		core.SetTraceCache(prevCache)
		if err := rtl.SetDefaultEngine(prevEngine); err != nil {
			t.Fatal(err)
		}
	})

	before := rtl.NativeFallbacks()
	if err := NewLab(42).Warm(); err != nil {
		t.Fatal(err)
	}
	if d := rtl.NativeFallbacks() - before; d != 0 {
		t.Fatalf("seed-42 flow fell back to the compiled engine %d time(s); "+
			"regenerate with go generate ./internal/rtl/native", d)
	}
}
