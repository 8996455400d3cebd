package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// Options configures an optimization run.
type Options struct {
	// Target is the hardware model; zero value means
	// tofino.DefaultTarget().
	Target tofino.Target
	// Passes selects which optimization passes run and in what order
	// (the §2.2 phase-ordering ablations as configuration). IDs come
	// from the pass registry (see Passes()); duplicates are allowed.
	// nil means the default schedule — phase2, phase3, phase4. A non-nil
	// empty slice means "profile only, run no optimization pass".
	Passes []string
	// MaxPhase2Removals bounds dependency removals; 0 means "until no
	// candidate improves the pipeline". The paper's strict
	// one-change-at-a-time mode is MaxPhase2Removals == 1.
	MaxPhase2Removals int
	// InsertDependencyGuards makes Phase 2 add a runtime violation
	// detector for every removed dependency (§3.2's alternative
	// approach): a table in the first table's hit arm matching on the
	// second table's fields; a hit increments a violation register,
	// reporting that the removed dependency manifested at runtime.
	InsertDependencyGuards bool
	// Phase4MinSavings is the minimum stage savings an offload must
	// achieve. nil means the default of 1; use Int(v) to set a value
	// (an explicit Int(0) accepts zero-saving offloads).
	Phase4MinSavings *int
	// Phase4MaxRedirect caps the fraction of traffic that may be
	// redirected to the controller — the paper's premise is that offload
	// candidates are "rarely used", so hot segments (e.g. the forwarding
	// path itself) are never offloaded. nil means the default of 10%;
	// use Float(v) to set a value: an explicit Float(0) means "no
	// redirected traffic at all", and a negative value disables the cap.
	Phase4MaxRedirect *float64
	// Context, when non-nil, cancels an in-flight run: the pipeline
	// checks it before every compile and profile (the operations that
	// dominate cost) and aborts with the context's error.
	Context context.Context
	// CompileHook, when non-nil, replaces tofino.Compile for every compile
	// the analysis cache does not answer — including the candidate probes
	// inside Phase 3's binary search and Phase 4's enumeration — so a
	// caller can count or time them. The context is the span-carrying
	// context of the enclosing pipeline step. The returned result is
	// treated as immutable and is shared through the cache.
	CompileHook func(context.Context, *p4.Program, tofino.Target) (*tofino.Result, error)
	// ProfileHook likewise replaces the replay of every profile the cache
	// does not answer. The returned profile is treated as immutable.
	ProfileHook func(context.Context, *p4.Program, *rt.Config, *trafficgen.Trace) (*profile.Profile, error)
	// Parallelism bounds the worker count of the parallel paths: trace
	// replay shards (stateless programs only — see profile.StatefulTables)
	// and the Phase 3 halving probes / Phase 4 segment measurements, which
	// are independent compile+profile jobs. 0 means one worker per CPU;
	// 1 forces the historical sequential behavior, including span
	// creation order. Results are collected by index either way, so the
	// observations, history, and final program never depend on it.
	Parallelism int
	// AnalysisCache, when non-nil, carries compiled mappings, profiles and
	// prepared plans across runs: a re-run of the same program and trace
	// with only the pass schedule or thresholds changed replays mostly from
	// cache. nil means a fresh cache per run (which still deduplicates the
	// repeated programs inside one run, e.g. Phase 3 re-compiling the
	// winning probe it already measured).
	AnalysisCache *AnalysisCache
	// Bindings assigns values to the program's @tunable symbols before
	// anything runs; missing names take their declared defaults. The run
	// operates on the instantiated concrete program, whose printed source
	// is binding-distinct — so compile/profile cache keys and artifact
	// digests separate instantiations automatically. Unknown names and
	// out-of-range values fail the run. Ignored (must be empty) for
	// programs without tunables.
	Bindings map[string]int
	// Tune configures the "tune" pass when it is scheduled; nil means
	// defaults (no accuracy constraint, 4 coordinate-descent rounds).
	Tune *TuneOptions
}

// defaultPhase4MaxRedirect is the "rarely used" threshold.
const defaultPhase4MaxRedirect = 0.10

func (o Options) target() tofino.Target {
	if o.Target.Stages == 0 {
		return tofino.DefaultTarget()
	}
	return o.Target
}

// parallelism resolves Options.Parallelism to an effective worker count.
func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return profile.DefaultShards()
	}
	return o.Parallelism
}

// passIDs resolves the pass schedule: an explicit Passes list, or the
// default order.
func (o Options) passIDs() []string {
	if o.Passes != nil {
		return o.Passes
	}
	return DefaultPassIDs()
}

// Result is the outcome of a P2GO run.
type Result struct {
	// Original is the input program instantiated at the run's bindings
	// (for programs without tunables, a verbatim copy of the input).
	// Equivalence checks compare Optimized against it, so both sides run
	// at the same knob values.
	Original *p4.Program
	// Optimized is the rewritten program.
	Optimized *p4.Program
	// OptimizedConfig is the runtime configuration for the optimized
	// program (rules of offloaded tables removed — they move to the
	// controller).
	OptimizedConfig *rt.Config
	// Profile is the original program's profile (Phase 1 output).
	Profile *profile.Profile
	// FinalProfile is the optimized program's profile on the same trace.
	FinalProfile *profile.Profile
	// Observations lists every accepted and rejected candidate, in order.
	Observations []Observation
	// History snapshots the stage mapping after each phase (Table 2).
	History []StageSnapshot
	// OffloadedTables lists tables Phase 4 moved to the controller; the
	// controller must implement them (§3.4).
	OffloadedTables []string
	// Guards lists the runtime violation detectors inserted by Phase 2
	// when Options.InsertDependencyGuards is set. Read a guard's
	// register (cell 0) on the running switch to see how many packets
	// the removed dependency manifested on.
	Guards []DependencyGuard
	// ControllerProgram is the offloaded segment as a standalone P4
	// program: its ingress control is exactly the segment body, to be
	// executed (in software) on every redirected packet. Nil when
	// nothing was offloaded. This realizes §3.4's "generating the
	// controller code" via the same behavioral semantics instead of a
	// uBPF backend.
	ControllerProgram *p4.Program
	// RedirectedFraction is the share of trace traffic the optimized
	// program sends to the controller.
	RedirectedFraction float64
	// PassStats records each executed pass in order (the implicit phase1
	// profiling pass first): duration, analysis-cache hit/miss counts,
	// and observations produced.
	PassStats []PassStat
	// Bindings is the tunable assignment the run ended with:
	// Options.Bindings resolved against the declared tunables (defaults
	// filled in), then replaced by the tune pass's winner when that pass
	// ran and adopted one. Empty for programs without tunables.
	Bindings map[string]int
	// Tunables describes every declared tunable with its final value, in
	// declaration order. Empty for programs without tunables.
	Tunables []TunedKnob
}

// TunedKnob is one tunable symbol with the value a run bound it to.
type TunedKnob struct {
	Name    string `json:"name"`
	Min     int    `json:"min"`
	Max     int    `json:"max"`
	Default int    `json:"default"`
	Value   int    `json:"value"`
}

// StagesBefore returns the initial pipeline length.
func (r *Result) StagesBefore() int {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[0].Stages
}

// StagesAfter returns the final pipeline length.
func (r *Result) StagesAfter() int {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[len(r.History)-1].Stages
}

// Optimizer runs the P2GO pipeline.
type Optimizer struct {
	opts Options
}

// New creates an Optimizer. Options with pointer fields left nil get
// their defaults resolved by the pass manager at run time, so a zero
// Options value still means "the paper's pipeline with default
// thresholds".
func New(opts Options) *Optimizer {
	return &Optimizer{opts: opts}
}

// run carries the evolving state across passes.
type run struct {
	opts     Options
	mgr      *manager
	tgt      tofino.Target
	cfg      *rt.Config
	trace    *trafficgen.Trace
	traceDig string
	// src is the pristine input AST, possibly parameterized (tunable
	// declarations intact); the tune pass instantiates candidates from
	// it. original is src instantiated at the run's starting bindings —
	// what Result.Original reports. cur evolves under the passes.
	src        *p4.Program
	original   *p4.Program
	bindings   map[string]int
	cur        *p4.Program
	compile    *compiled // cur's compile entry
	prof       *profile.Profile
	obs        []Observation
	history    []StageSnapshot
	offloaded  []string
	guards     []DependencyGuard
	ctlProgram *p4.Program
	phaseStart time.Time
	// stat is the PassStat of the pass currently executing; pool workers
	// record cache hits/misses into it under statMu.
	statMu  sync.Mutex
	stat    *PassStat
	stats   []PassStat
	reports []CandidateReport
	// derived counts the accepted Phase 2 candidates whose profile was
	// derived since the last audit (see phase2Audit).
	derived int
}

// Optimize profiles the program on the trace and applies the scheduled
// optimization passes — by default the paper's order (offloading
// deliberately last, §2.2: earlier phases may shrink segments enough that
// offloading them has no benefit), or exactly Options.Passes when set.
func (o *Optimizer) Optimize(ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) (*Result, error) {
	m, err := newManager(o.opts)
	if err != nil {
		return nil, err
	}
	return m.optimize(ast, cfg, trace)
}

// interrupted reports the run's context error, if a context was set and
// has been canceled (or timed out).
func (r *run) interrupted() error {
	if r.opts.Context == nil {
		return nil
	}
	if err := r.opts.Context.Err(); err != nil {
		return fmt.Errorf("core: run canceled: %w", err)
	}
	return nil
}

// doCompile is the single funnel for every compile the pipeline issues.
// The cache is keyed on the caller's AST as it stands; only a miss clones
// it, so the compiler, the hook and the cached Result.AST own a copy no
// later rewrite can reach while a hit costs a print and a hash. A cache hit
// emits the same "compile" span with the same stages attr as a real
// compile, so span trees are structurally identical either way.
func (r *run) doCompile(ctx context.Context, ast *p4.Program) (*compiled, error) {
	return r.compileAs(ctx, compileKey(ast, r.tgt), ast)
}

// compileAs is doCompile under a key already computed for ast: a derived
// child's, so looking it up again costs neither a print nor a hash.
func (r *run) compileAs(ctx context.Context, key analysisKey, ast *p4.Program) (*compiled, error) {
	if err := r.interrupted(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "compile")
	defer sp.End()
	c := r.mgr.cache
	res, hit, err := lookup(c, &c.compiles, "compile", key, func() (*compiled, error) {
		ast := p4.Clone(ast)
		if r.opts.CompileHook != nil {
			res, err := r.opts.CompileHook(ctx, ast, r.tgt)
			return &compiled{Result: res}, err
		}
		res, err := tofino.Compile(ast, r.tgt)
		return &compiled{Result: res}, err
	})
	r.noteCompile(hit)
	if err != nil {
		return nil, err
	}
	sp.SetAttr(obs.Int("stages", totalStages(res.Mapping)))
	return res, nil
}

// child is one candidate derived from a compiled program: the frozen child
// program with its compile key, or why the rewrite refused it. A child is
// shared by every run that reaches its parent, so nothing may edit it.
type child struct {
	prog   *p4.Program
	key    analysisKey      // prog's compile key
	guard  *DependencyGuard // the violation detector Phase 2 inserted, if any
	reject string           // the rejection span attr when prog is nil
	err    error            // what the rewrite failed with when prog is nil
}

// derive is the one funnel every candidate of r.cur goes through (a Phase 2
// edge, a Phase 3 probe, a Phase 4 segment, the winner's controller
// program), named in the table on r.cur's compile entry by its rewrite:
// "edge:from>to[+guard]", "knob:table=value", "seg:<Desc>", "ctl:<Desc>".
// The first run to ask builds and keys the child (build rewrites a clone of
// r.cur, or refuses); every later ask, by any run sharing the cache, is a
// map lookup: no clone, rewrite, print or hash. Nothing in the table depends
// on the trace, the profile or a verdict. Callers compile a child with
// compileAs(ctx, c.key, c.prog): the store lookup a fresh child would make.
func (r *run) derive(name string, build func() *child) *child {
	if c, ok := r.compile.children.Load(name); ok {
		return c.(*child)
	}
	c := build()
	if c.prog != nil {
		c.key = compileKey(c.prog, r.tgt)
	}
	shared, _ := r.compile.children.LoadOrStore(name, c) // another run may have built it first
	return shared.(*child)
}

// doProfile is the single funnel for every trace replay. Cached replays
// are returned under the usual "profile" span (with no replay children —
// nothing was replayed). A replay looks its prepared plan up under a key of
// its own, so the fill never waits on the key it is filling.
func (r *run) doProfile(ctx context.Context, ast *p4.Program, cfg *rt.Config) (*profile.Profile, error) {
	if err := r.interrupted(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "profile")
	defer sp.End()
	prof, hit, err := r.mgr.cache.Profile(ast, cfg, r.traceDig, func() (*profile.Profile, error) {
		if r.opts.ProfileHook != nil {
			return r.opts.ProfileHook(ctx, ast, cfg, r.trace)
		}
		prep, err := r.mgr.cache.Prepare(ctx, ast, cfg)
		if err != nil {
			return nil, err
		}
		return prep.Profiler().RunWith(ctx, r.trace, profile.RunOptions{Shards: r.opts.parallelism()})
	})
	r.noteProfile(hit)
	return prof, err
}

// recompile refreshes the compiler outputs for the current program.
func (r *run) recompile(ctx context.Context) error {
	res, err := r.doCompile(ctx, r.cur)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.compile = res
	return nil
}

// reprofile refreshes the profile for the current program. Rules whose
// tables were optimized away are filtered first.
func (r *run) reprofile(ctx context.Context) error {
	prof, err := r.doProfile(ctx, r.cur, filterConfig(r.cfg, r.cur))
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.prof = prof
	return nil
}

func (r *run) snapshot(label string) {
	m := r.compile.Mapping
	summary := m.Summary()
	if m.EgressStagesUsed > 0 {
		summary += " egress:" + egressSummary(m)
	}
	now := time.Now()
	r.history = append(r.history, StageSnapshot{
		Label:         label,
		Stages:        totalStages(m),
		IngressStages: m.StagesUsed,
		EgressStages:  m.EgressStagesUsed,
		Fits:          m.Fits,
		Summary:       summary,
		Duration:      now.Sub(r.phaseStart),
	})
	r.phaseStart = now
}

// egressSummary renders the egress pipeline like Mapping.Summary.
func egressSummary(m *tofino.Mapping) string {
	out := ""
	for s := 1; s <= m.EgressStagesUsed; s++ {
		out += "[" + strings.Join(m.TablesInStageOf(p4.EgressControl, s), " ") + "]"
	}
	return out
}

// filterConfig drops rules for tables that no longer exist in the program
// (they belong to the controller after offloading).
func filterConfig(cfg *rt.Config, ast *p4.Program) *rt.Config {
	out := &rt.Config{}
	for _, rule := range cfg.Rules {
		if ast.Table(rule.Table) != nil {
			out.Add(rule)
		}
	}
	return out.Clone()
}

// OffloadCandidates profiles the program and reports the metrics of every
// self-contained offload segment, without applying anything. Used by the
// phase-ordering ablation (§2.2: offloading first would have offloaded both
// ACLs). It runs the read-only offload-report pass through the same
// manager as Optimize, so its compiles and profiles nest under a proper
// "optimize" root span (mode=offload-report), record stage snapshots, and
// share the analysis cache — ablation traces are no longer truncated.
func (o *Optimizer) OffloadCandidates(ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) ([]CandidateReport, error) {
	m, err := newManager(o.opts)
	if err != nil {
		return nil, err
	}
	return m.offloadReport(ast, cfg, trace)
}

// totalStages is the optimization objective: ingress plus egress stages
// (egress is zero for ingress-only programs, so Table 2 semantics are
// unchanged).
func totalStages(m *tofino.Mapping) int { return m.StagesUsed + m.EgressStagesUsed }

// profileCandidate profiles a rewritten program without touching the run
// state.
func (r *run) profileCandidate(ctx context.Context, ast *p4.Program) (*profile.Profile, error) {
	return r.doProfile(ctx, ast, filterConfig(r.cfg, ast))
}
