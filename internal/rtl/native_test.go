package rtl_test

import (
	"math/rand"
	"testing"

	"repro/internal/accel/stencil"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/testdesigns"
)

// TestNativeFallback checks the unregistered-netlist path: asking for
// the native engine on a module with no generated run function must return a
// fully working compiled simulator, report EngineCompiled (no silent
// masquerading), and bump the NativeFallbacks counter so the fallback
// is observable.
func TestNativeFallback(t *testing.T) {
	m := randModule(rand.New(rand.NewSource(99)))
	before := rtl.NativeFallbacks()
	s := rtl.NewSimEngine(m, rtl.EngineNative)
	if d := rtl.NativeFallbacks() - before; d < 1 {
		t.Fatalf("NativeFallbacks advanced by %d, want >= 1", d)
	}
	if got := s.Engine(); got != rtl.EngineCompiled {
		t.Fatalf("fallback sim reports engine %q, want %q", got, rtl.EngineCompiled)
	}
	// The fallback must simulate correctly, not just exist.
	ref := rtl.NewInterpSim(m)
	for cycle := 0; cycle < 32; cycle++ {
		if dr, df := ref.Step(), s.Step(); dr != df {
			t.Fatalf("cycle %d: done interp=%v fallback=%v", cycle, dr, df)
		}
		for id := range m.Nodes {
			if rv, fv := ref.Value(rtl.NodeID(id)), s.Value(rtl.NodeID(id)); rv != fv {
				t.Fatalf("cycle %d node %d: interp=%#x fallback=%#x", cycle, id, rv, fv)
			}
		}
	}
}

// TestRegisterNativeResolves checks a registered run function is found by
// fingerprint and the resulting sim self-identifies as native,
// including through Clone (the serving shards' path).
func TestRegisterNativeResolves(t *testing.T) {
	m := randModule(rand.New(rand.NewSource(7)))
	rtl.RegisterNative(rtl.Fingerprint(m), "test_rand7", codegen.Build(m).Run)
	s := rtl.NewSimEngine(m, rtl.EngineNative)
	if got := s.Engine(); got != rtl.EngineNative {
		t.Fatalf("engine %q, want %q", got, rtl.EngineNative)
	}
	if got := s.Clone().Engine(); got != rtl.EngineNative {
		t.Fatalf("clone engine %q, want %q", got, rtl.EngineNative)
	}
	found := false
	for _, name := range rtl.NativeNames() {
		if name == "test_rand7" {
			found = true
		}
	}
	if !found {
		t.Fatalf("NativeNames() = %v, missing test_rand7", rtl.NativeNames())
	}
}

// TestEngineSelection covers ParseEngine and the NewSimEngine /
// SetDefaultEngine plumbing the CLI -engine flags rely on, and pins the
// default: native, falling back to compiled (and counting it) on
// netlists with no generated run function.
func TestEngineSelection(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want rtl.Engine
		ok   bool
	}{
		{"", rtl.EngineNative, true},
		{"native", rtl.EngineNative, true},
		{"compiled", rtl.EngineCompiled, true},
		{"interp", rtl.EngineInterp, true},
		{"batch", rtl.EngineBatch, true},
		// Bad names: unknown or retired engines, wrong case, stray
		// whitespace — the flag value is taken verbatim, never normalized.
		{"event", "", false},
		{"verilator", "", false},
		{"COMPILED", "", false},
		{"Interp", "", false},
		{" compiled", "", false},
		{"compiled ", "", false},
		{"native,interp", "", false},
		{"gate-level", "", false},
	} {
		got, err := rtl.ParseEngine(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}

	toy := testdesigns.Toy()
	for _, e := range []rtl.Engine{rtl.EngineCompiled, rtl.EngineInterp} {
		if got := rtl.NewSimEngine(toy.M, e).Engine(); got != e {
			t.Fatalf("NewSimEngine(%s).Engine() = %s", e, got)
		}
	}

	prev := rtl.DefaultEngine()
	defer func() {
		if err := rtl.SetDefaultEngine(prev); err != nil {
			t.Fatal(err)
		}
	}()
	// Under the default engine, an unregistered netlist (Toy has no
	// generated run function) gets a compiled Sim and exactly one counted
	// fallback.
	if err := rtl.SetDefaultEngine(""); err != nil {
		t.Fatal(err)
	}
	before := rtl.NativeFallbacks()
	if got := rtl.NewSim(toy.M).Engine(); got != rtl.EngineCompiled {
		t.Fatalf("NewSim(Toy) under the default: engine %s, want %s", got, rtl.EngineCompiled)
	}
	if d := rtl.NativeFallbacks() - before; d != 1 {
		t.Fatalf("NewSim(Toy) under the default: NativeFallbacks advanced by %d, want 1", d)
	}
	if err := rtl.SetDefaultEngine(rtl.EngineInterp); err != nil {
		t.Fatal(err)
	}
	if got := rtl.NewSim(toy.M).Engine(); got != rtl.EngineInterp {
		t.Fatalf("NewSim under interp default: engine %s", got)
	}
	for _, bad := range []rtl.Engine{"event", "gatesim"} {
		if err := rtl.SetDefaultEngine(bad); err == nil {
			t.Fatalf("SetDefaultEngine accepted %q", bad)
		}
	}
}

// TestFingerprint checks the netlist content hash: stable across
// rebuilds, insensitive to debug names, sensitive to semantic edits.
func TestFingerprint(t *testing.T) {
	spec := stencil.Spec()
	a, b := spec.Build(), spec.Build()
	fa, fb := rtl.Fingerprint(a), rtl.Fingerprint(b)
	if fa != fb {
		t.Fatalf("fingerprint not reproducible across builds:\n%s\n%s", fa, fb)
	}
	if len(fa) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(fa))
	}

	// Debug names must not affect the hash.
	b.Nodes[0].Name = "renamed"
	if rtl.Fingerprint(b) != fa {
		t.Fatal("fingerprint depends on a debug name")
	}

	// Semantic edits must.
	toy := testdesigns.Toy()
	base := rtl.Fingerprint(toy.M)
	mut := testdesigns.Toy()
	for i := range mut.M.Nodes {
		if mut.M.Nodes[i].Op == rtl.OpConst {
			mut.M.Nodes[i].Const ^= 1
			break
		}
	}
	if rtl.Fingerprint(mut.M) == base {
		t.Fatal("fingerprint insensitive to a constant change")
	}
	mut2 := testdesigns.Toy()
	if len(mut2.M.Regs) > 0 {
		mut2.M.Regs[0].Init ^= 1
		if rtl.Fingerprint(mut2.M) == base {
			t.Fatal("fingerprint insensitive to a register init change")
		}
	}
}
