// Package p2go is a Go implementation of P2GO ("P4 Profile-Guided
// Optimizations", HotNets '20): a profile-guided optimizer that works
// alongside a P4 compiler to reduce the hardware resources a P4_14 program
// needs.
//
// Given a program, its runtime configuration (match-action rules), and a
// representative traffic trace, P2GO:
//
//  1. profiles the program in a behavioral simulator, recording per-table
//     hit rates and the sets of non-exclusive actions;
//  2. removes dependencies that never manifest in the profile, letting the
//     compiler co-locate tables;
//  3. shrinks table and register memory by the minimum amount (found with
//     binary search) that saves a pipeline stage, verifying the profile is
//     unchanged;
//  4. offloads rarely used, self-contained code segments to a controller.
//
// Every change is reported as an Observation carrying the profile evidence
// behind it, so the operator can accept or reject it.
//
// The package is a facade over the building blocks in internal/: the P4_14
// front end (lexer/parser/AST/printer), the RMT-style stage allocator and
// dependency analysis standing in for the Tofino compiler, the behavioral
// simulator, the traffic generators, the profiler, the optimizer, the P5
// baseline, and the software controller. A typical session:
//
//	prog, _ := p2go.ParseProgram(src)
//	cfg, _ := p2go.ParseRules(rules)
//	prof, _ := p2go.RunProfile(ctx, prog, cfg, trace, 0) // Phase 1 alone
//	res, _ := p2go.OptimizeContext(ctx, prog, cfg, trace, p2go.Options{})
//	fmt.Println(p2go.RenderHistory(res.History)) // Table 2-style report
//	fmt.Println(p2go.PrintProgram(res.Optimized))
//	eq, _ := p2go.VerifyEquivalenceContext(ctx, res, cfg, trace)
package p2go

import (
	"context"

	"p2go/internal/controller"
	"p2go/internal/core"
	"p2go/internal/online"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// Core types, re-exported for the public API.
type (
	// Program is a parsed P4_14 program.
	Program = p4.Program
	// Config is a runtime configuration: the match-action rules.
	Config = rt.Config
	// Rule is one installed table entry.
	Rule = rt.Rule
	// Trace is an ordered traffic trace (ingress port + frame bytes).
	Trace = trafficgen.Trace
	// TracePacket is one trace entry.
	TracePacket = trafficgen.Packet
	// Target describes the RMT hardware model (stages, per-stage memory).
	Target = tofino.Target
	// CompileResult bundles the compiler outputs P2GO consumes: stage
	// mapping, dependency graph, and control graph.
	CompileResult = tofino.Result
	// Mapping is a table-to-stage allocation.
	Mapping = tofino.Mapping
	// Profile holds per-table hit rates and non-exclusive action sets.
	Profile = profile.Profile
	// Options configures an optimization run.
	Options = core.Options
	// Result is the outcome of an optimization run.
	Result = core.Result
	// Observation is one profile-guided finding with its evidence.
	Observation = core.Observation
	// StageSnapshot records the pipeline length after one phase.
	StageSnapshot = core.StageSnapshot
	// PassInfo describes one registered optimization pass.
	PassInfo = core.PassInfo
	// PassStat is one executed pass's runtime and analysis-cache counters.
	PassStat = core.PassStat
	// TuneOptions configures the opt-in "tune" pass: the accuracy signal
	// table and the tolerated accuracy loss for the knob search.
	TuneOptions = core.TuneOptions
	// TunedKnob is one @tunable symbol's declared range and final value,
	// reported in Result.Tunables.
	TunedKnob = core.TunedKnob
	// AnalysisCache memoizes compiles and profiles by content digest;
	// share one across runs (Options.AnalysisCache) so a re-run with
	// changed Options replays mostly from cache.
	AnalysisCache = core.AnalysisCache
	// Controller executes an offloaded segment on redirected packets.
	Controller = controller.Controller
	// Deployment composes the optimized data plane with a controller.
	Deployment = controller.Deployment
	// EquivalenceReport compares original vs optimized+controller.
	EquivalenceReport = controller.EquivalenceReport
	// ResilientOptions tunes the replicated, fault-tolerant deployment:
	// replica count, retry/backoff, degradation policy, fault injectors.
	ResilientOptions = controller.ResilientOptions
	// ChaosReport is the chaos-equivalence verdict: every divergence
	// either explicitly degraded or counted as silent (the invariant is
	// that Silent stays zero).
	ChaosReport = controller.ChaosReport
	// OnlineMonitor is an instrumented data plane with windowed online
	// profiling and drift detection (§6 "Dynamic compilation").
	OnlineMonitor = online.Monitor
	// OnlineConfig tunes the monitor's window size, sampling rate, and
	// drift threshold.
	OnlineConfig = online.Config
	// Drift reports one table whose live hit rate left the baseline band.
	Drift = online.Drift
)

// ParseProgram parses and checks P4_14 source.
func ParseProgram(src string) (*Program, error) {
	prog, err := p4.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := p4.Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// PrintProgram renders a program back to P4_14 source.
func PrintProgram(prog *Program) string { return p4.Print(prog) }

// ParseRules parses a runtime configuration in the text format
// ("table_add <table> <action> <match>... => <arg>...").
func ParseRules(text string) (*Config, error) { return rt.Parse(text) }

// FormatRules renders a configuration back to the text format.
func FormatRules(cfg *Config) string { return rt.Format(cfg) }

// ParseBindings parses a "name=value,name=value" tunable bindings string
// (the `p2go optimize -set` / job-spec "bindings" format).
func ParseBindings(s string) (map[string]int, error) { return p4.ParseBindings(s) }

// FormatBindings renders bindings canonically: sorted, "a=1,b=2".
func FormatBindings(b map[string]int) string { return p4.FormatBindings(b) }

// InstantiateProgram binds a parameterized program's @tunable symbols to
// concrete values (missing names take their declared defaults) and returns
// the concrete program; Optimize does this implicitly via Options.Bindings.
func InstantiateProgram(prog *Program, bindings map[string]int) (*Program, error) {
	return p4.Instantiate(prog, bindings)
}

// DefaultTarget returns the default hardware model: 12 stages with 256 KiB
// SRAM and 64 KiB TCAM each.
func DefaultTarget() Target { return tofino.DefaultTarget() }

// Compile maps a program onto the target, producing the stage mapping,
// dependency graph, and control graph. Compilation succeeds even when the
// program needs more stages than the target has (Mapping.Fits is false),
// so oversized programs can still be profiled and optimized.
func Compile(prog *Program, tgt Target) (*CompileResult, error) {
	return tofino.Compile(prog, tgt)
}

// RunProfile profiles the program on the trace: it instruments the program
// so every packet records the actions applied to it, replays the trace in
// the behavioral simulator, and derives hit rates and non-exclusive action
// sets (the paper's Phase 1). The trace is sharded across up to shards
// workers (0 means one per CPU), each replaying against its own simulator;
// the per-shard profiles merge deterministically, so the result equals the
// one-shard profile. Programs whose replay behavior depends on cross-packet
// register state (Count-Min sketches, Bloom filters) are detected
// statically and replay on one worker.
//
// Under a tracer-carrying context (obs.WithTracer) instrumentation is
// recorded as a "profile.instrument" span and the replay as "sim.replay",
// or "sim.replay-sharded" on more than one worker; a canceled ctx stops
// the replay between batches.
func RunProfile(ctx context.Context, prog *Program, cfg *Config, trace *Trace, shards int) (*Profile, error) {
	prep, err := profile.PrepareContext(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	return prep.Profiler().RunWith(ctx, trace, profile.RunOptions{Shards: shards})
}

// Optimize runs the full P2GO pipeline: profile, remove dependencies,
// reduce memory, offload code. The result carries the optimized program,
// the observations with their evidence, the per-phase stage history, and —
// when something was offloaded — the controller program.
func Optimize(prog *Program, cfg *Config, trace *Trace, opts Options) (*Result, error) {
	return core.New(opts).Optimize(prog, cfg, trace)
}

// OptimizeContext is Optimize with Options.Context set to ctx, which buys
// cancellation and tracing: the pipeline checks ctx before every compile
// and trace replay (the operations that dominate cost) and aborts with
// ctx's error once it is done. Long-running callers — the p2god service in particular — use
// this to enforce per-job timeouts and user-requested cancellation.
//
// Tracing: when ctx carries a tracer (obs.WithTracer), every pipeline
// step — each phase, each dependency-removal candidate, each memory-probe
// halving and binary-search iteration, each re-profile and verifying
// recompile — is recorded as a hierarchical span and exported as the run
// proceeds. The `p2go optimize -trace` flag and the p2god daemon both
// build on this.
func OptimizeContext(ctx context.Context, prog *Program, cfg *Config, trace *Trace, opts Options) (*Result, error) {
	opts.Context = ctx
	return Optimize(prog, cfg, trace, opts)
}

// RenderHistory formats per-phase stage snapshots as a Table 2-style
// report.
func RenderHistory(history []StageSnapshot) string { return core.RenderHistory(history) }

// Passes lists the registered optimization passes in default order. The
// selectable ones (neither Implicit nor ReadOnly) may be scheduled in any
// order and multiplicity via Options.Passes, `p2go optimize -passes`, or
// a job spec's "passes" field.
func Passes() []PassInfo { return core.Passes() }

// DefaultPassIDs returns the default pass schedule (the paper's phase
// order).
func DefaultPassIDs() []string { return core.DefaultPassIDs() }

// ValidatePasses checks a pass schedule against the registry without
// running anything.
func ValidatePasses(ids []string) error { return core.ValidatePasses(ids) }

// NewAnalysisCache builds an empty analysis cache for Options.AnalysisCache.
func NewAnalysisCache() *AnalysisCache { return core.NewAnalysisCache() }

// Int returns a pointer to v, for the optional int Options fields.
func Int(v int) *int { return core.Int(v) }

// Float returns a pointer to v, for the optional float Options fields.
func Float(v float64) *float64 { return core.Float(v) }

// NewOnlineMonitor instruments the optimized program for online profiling
// against the baseline profile (typically Result.FinalProfile): the
// monitor detects when live traffic drifts from the profile the
// optimizations were derived from, and records recent packets as the fresh
// trace for re-optimization.
func NewOnlineMonitor(prog *Program, rules *Config, baseline *Profile, cfg OnlineConfig) (*OnlineMonitor, error) {
	return online.NewMonitor(prog, rules, baseline, cfg)
}

// NewController builds a software controller executing an offloaded
// segment (Result.ControllerProgram); rules for tables outside the segment
// are filtered from cfg automatically.
func NewController(segment *Program, cfg *Config) (*Controller, error) {
	return controller.New(segment, cfg)
}

// NewDeployment composes the optimized data plane with a controller.
func NewDeployment(optimized *Program, optimizedCfg *Config, segment *Program, fullCfg *Config) (*Deployment, error) {
	return controller.NewDeployment(optimized, optimizedCfg, segment, fullCfg)
}

// VerifyEquivalence is VerifyEquivalenceContext under
// context.Background().
func VerifyEquivalence(res *Result, cfg *Config, trace *Trace) (*EquivalenceReport, error) {
	return VerifyEquivalenceContext(context.Background(), res, cfg, trace)
}

// VerifyEquivalenceContext replays the trace through the original program
// and the optimized program + controller, comparing every packet's fate.
// When the run offloaded nothing, the controller side is an empty
// pass-through and the check compares the two programs directly. Under a
// tracer-carrying context the comparison runs inside a "controller.verify"
// span with a "controller.redirect" child for every packet the data plane
// sends to the controller.
func VerifyEquivalenceContext(ctx context.Context, res *Result, cfg *Config, trace *Trace) (*EquivalenceReport, error) {
	return controller.VerifyEquivalence(ctx, res.Original, cfg, res.Optimized, res.OptimizedConfig,
		res.ControllerProgram, trace)
}

// VerifyChaosEquivalence is VerifyEquivalenceContext under fault
// injection: the optimized program runs behind a replicated, retrying,
// policy-degrading controller deployment, and every verdict divergence
// must be explicitly flagged as a counted degradation — the report's
// Clean() is false if any divergence was silent. Redirect deliveries,
// retries, and degradation decisions all appear as spans under a
// "controller.verify-chaos" root.
func VerifyChaosEquivalence(ctx context.Context, res *Result, cfg *Config, trace *Trace, opts ResilientOptions) (*ChaosReport, error) {
	return controller.VerifyChaosEquivalence(ctx, res.Original, cfg, res.Optimized, res.OptimizedConfig,
		res.ControllerProgram, trace, opts)
}
