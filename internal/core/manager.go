package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// manager executes a resolved pass schedule. It owns everything the
// passes share: the hardware model, the analysis cache behind the
// compile/profile funnels, and the scheduled passes. One manager is built
// per Optimize/OffloadCandidates call; the cache it holds outlives the run
// only when the caller supplied one via Options.AnalysisCache.
type manager struct {
	opts   Options
	tgt    tofino.Target
	passes []*passDef
	cache  *AnalysisCache
}

// newManager validates the schedule and resolves the passes.
func newManager(opts Options) (*manager, error) {
	ids := opts.passIDs()
	if err := ValidatePasses(ids); err != nil {
		return nil, err
	}
	m := &manager{opts: opts, tgt: opts.target(), cache: opts.AnalysisCache}
	if m.cache == nil {
		m.cache = NewAnalysisCache()
	}
	for _, id := range ids {
		m.passes = append(m.passes, passByID[id])
	}
	return m, nil
}

// newRun builds the mutable state one optimization run evolves. The input
// AST may be parameterized: the run starts from its bind: child at
// Options.Bindings (defaults for unbound tunables), bound by profilePass,
// and every pass operates on that concrete program; the tune pass binds its
// candidates from the pristine AST.
func (m *manager) newRun(ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) (*run, error) {
	bindings, err := p4.ResolveBindings(ast, m.opts.Bindings)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The run appends the rules of the detectors it inserts to its own
	// configuration; the caller's stays as it was given.
	own := *cfg
	own.Rules = slices.Clip(own.Rules)
	return &run{
		opts:       m.opts,
		mgr:        m,
		tgt:        m.tgt,
		cfg:        &own,
		trace:      trace,
		src:        ast,
		source:     m.cache.source(ast, m.tgt),
		bindings:   bindings,
		traceDig:   trace.Digest(),
		phaseStart: time.Now(),
	}, nil
}

// optimize runs the scheduled passes: the implicit profiling pass first,
// then each scheduled pass under its span, snapshotting the stage mapping
// after each one — byte-identical span and history structure to the
// pre-manager pipeline.
func (m *manager) optimize(ctx context.Context, ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) (*Result, error) {
	if cfg == nil {
		cfg = &rt.Config{}
	}
	if trace == nil || len(trace.Packets) == 0 {
		return nil, fmt.Errorf("core: a traffic trace is required for profiling")
	}
	ctx, root := obs.Start(ctx, "optimize")
	defer root.End()
	r, err := m.newRun(ast, cfg, trace)
	if err != nil {
		return nil, err
	}
	originalProfile, err := m.profilePass(ctx, r, root)
	if err != nil {
		return nil, err
	}
	for _, p := range m.passes {
		if err := m.runPass(ctx, r, p); err != nil {
			return nil, err
		}
	}
	root.SetAttr(
		obs.Int("stages_after", totalStages(r.compile.Mapping)),
		obs.Bool("fits", r.compile.Mapping.Fits),
	)

	// r.original, r.cur and r.ctlProgram may be children shared through
	// the analysis cache (derivations.derive): the caller gets copies it
	// may edit.
	res := &Result{
		Original:          p4.Clone(r.original),
		Optimized:         p4.Clone(r.cur),
		OptimizedConfig:   r.cfg.Restrict(r.cur),
		Profile:           originalProfile,
		FinalProfile:      r.prof,
		Observations:      r.obs,
		History:           r.history,
		OffloadedTables:   r.offloaded,
		Guards:            r.guards,
		ControllerProgram: r.ctlProgram,
		PassStats:         r.stats,
	}
	if r.ctlProgram != nil {
		res.ControllerProgram = p4.Clone(r.ctlProgram)
	}
	if len(r.bindings) > 0 {
		res.Bindings = r.bindings
		for _, t := range r.src.Tunables {
			res.Tunables = append(res.Tunables, TunedKnob{
				Name: t.Name, Min: t.Min, Max: t.Max, Default: t.Default,
				Value: r.bindings[t.Name],
			})
		}
	}
	if r.prof != nil && r.prof.TotalPackets > 0 {
		res.RedirectedFraction = float64(r.prof.ToCPU) / float64(r.prof.TotalPackets)
	}
	return res, nil
}

// offloadReport runs the read-only offload-report pass: same root span,
// initial snapshot, and profiling prologue as optimize, so ablation runs
// trace and cache exactly like full runs.
func (m *manager) offloadReport(ctx context.Context, ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) ([]CandidateReport, error) {
	if cfg == nil {
		cfg = &rt.Config{}
	}
	if trace == nil || len(trace.Packets) == 0 {
		return nil, fmt.Errorf("core: a traffic trace is required for profiling")
	}
	ctx, root := obs.Start(ctx, "optimize", obs.String("mode", "offload-report"))
	defer root.End()
	r, err := m.newRun(ast, cfg, trace)
	if err != nil {
		return nil, err
	}
	if _, err := m.profilePass(ctx, r, root); err != nil {
		return nil, err
	}
	if err := m.runPass(ctx, r, passByID["offload-report"]); err != nil {
		return nil, err
	}
	return r.reports, nil
}

// profilePass is the implicit phase1 pass: the run's starting program and
// its compile, the rules checked against it, the "initial" history
// snapshot, the stages_before root attr, and the profiling replay under the
// phase1.profile span.
//
// Every replay of a run installs the rules restricted to the program it
// replays, but a check of the result (VerifyEquivalence) and a profile of
// the original (RunProfile) install them as given. So the rules as given
// are validated against the original first, the same rt.Validate those
// two run: a rule for a table the program lacks is refused here, with the
// error they would report, rather than optimized around.
func (m *manager) profilePass(ctx context.Context, r *run, root *obs.Span) (*profile.Profile, error) {
	stat, start, before := r.beginPass("phase1")
	c, err := r.bind(r.bindings)
	if err != nil {
		return nil, err
	}
	r.original, r.cur = c.prog, c.prog // never edited: every rewrite clones it
	if r.compile, err = r.compileAs(ctx, c.key, c.prog); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Validate coerces match kinds in place: it gets a copy.
	if err := rt.Validate(r.cfg.Clone(), r.compile.IR); err != nil {
		return nil, err
	}
	r.snapshot("initial")
	root.SetAttr(obs.Int("stages_before", totalStages(r.compile.Mapping)))
	p1ctx, p1 := obs.Start(ctx, "phase1.profile")
	err = r.reprofile(p1ctx)
	r.endPass(p1, stat, start, before)
	p1.End()
	if err != nil {
		return nil, err
	}
	return r.prof, nil
}

// runPass executes one scheduled pass under its span and snapshots the
// mapping afterwards, preserving the exact pre-manager emission order:
// span start, pass body, span end, snapshot.
func (m *manager) runPass(ctx context.Context, r *run, p *passDef) error {
	stat, start, before := r.beginPass(p.id)
	pctx, sp := obs.Start(ctx, p.span)
	err := p.run(r, pctx)
	r.endPass(sp, stat, start, before)
	sp.End()
	if err != nil {
		return err
	}
	if p.label != "" {
		r.snapshot(p.label)
	}
	return nil
}

// beginPass installs a fresh PassStat as the target of the compile/profile
// cache counters.
func (r *run) beginPass(id string) (*PassStat, time.Time, int) {
	stat := &PassStat{ID: id}
	r.statMu.Lock()
	r.stat = stat
	r.statMu.Unlock()
	return stat, time.Now(), len(r.obs)
}

// endPass finalizes the stat, appends it to the run, and — only when the
// cache actually answered something — records the hit/miss counts on the
// pass span. Cold runs therefore emit exactly the historical span attrs,
// keeping the golden span trees stable.
func (r *run) endPass(sp *obs.Span, stat *PassStat, start time.Time, obsBefore int) {
	r.statMu.Lock()
	r.stat = nil
	r.statMu.Unlock()
	stat.Duration = time.Since(start)
	stat.Observations = len(r.obs) - obsBefore
	if stat.CompileHits+stat.ProfileHits > 0 {
		sp.SetAttr(
			obs.Int("cache_hits", stat.CompileHits+stat.ProfileHits),
			obs.Int("cache_misses", stat.CompileMisses+stat.ProfileMisses),
		)
	}
	r.stats = append(r.stats, *stat)
}

// note records one compile (or else profile) lookup against the current
// pass. Called from pool workers, hence the lock.
func (r *run) note(compile, hit bool) {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	switch s := r.stat; {
	case s == nil:
	case compile && hit:
		s.CompileHits++
	case compile:
		s.CompileMisses++
	case hit:
		s.ProfileHits++
	default:
		s.ProfileMisses++
	}
}
