// Package native holds the pre-generated (checked-in) native
// simulators for the benchmark suite: one specialized multi-cycle Go
// run function per distinct netlist shape the production flows
// simulate — raw designs, instrumented designs, their pruned twins,
// and predictor slices. The gen_*.go files are produced by cmd/rtlgen
// from internal/rtl/codegen plans and register themselves with the rtl
// engine registry at init, so importing this package (internal/core
// does, blank) is all it takes for rtl.NewSimEngine(rtl.EngineNative)
// to resolve them.
//
// Netlists without a registered run function — random fuzz modules,
// testdesigns, benchmarks edited since the last regeneration — fall
// back to the compiled engine; rtl.NativeFallbacks counts those so a
// stale registry is observable, and CI's drift gate (go generate
// ./... && git diff --exit-code) keeps the checked-in code current.
package native

//go:generate go run repro/cmd/rtlgen -out .
