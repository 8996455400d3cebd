package core

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"p2go/internal/cache"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// l2l3Inputs parses the phase-ordering workload.
func l2l3Inputs(t *testing.T) (*p4.Program, *rt.Config, *trafficgen.Trace) {
	t.Helper()
	return p4.MustParse(programs.L2L3ACL), programs.L2L3ACLConfig(),
		trafficgen.L2L3ACLTrace(trafficgen.L2L3ACLSpec{Seed: 1})
}

// TestPassRegistryLint pins the registry invariants the rest of the stack
// relies on: unique non-empty IDs, non-empty doc strings and span names,
// a run function on everything but the implicit profiling pass, and the
// default schedule being the paper's phase order.
func TestPassRegistryLint(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Passes() {
		if p.ID == "" {
			t.Error("registered pass with empty ID")
		}
		if seen[p.ID] {
			t.Errorf("duplicate pass ID %q", p.ID)
		}
		seen[p.ID] = true
		if p.Doc == "" {
			t.Errorf("pass %q has no doc string", p.ID)
		}
		if len(p.Needs) == 0 {
			t.Errorf("pass %q declares no analysis needs", p.ID)
		}
		if p.Default && (p.ReadOnly || p.Implicit) {
			t.Errorf("pass %q is default but not selectable", p.ID)
		}
	}
	for _, p := range passRegistry {
		if p.span == "" {
			t.Errorf("pass %q has no span name", p.id)
		}
		if !p.implicit && p.run == nil {
			t.Errorf("pass %q has no run function", p.id)
		}
	}
	if got, want := len(sortedPassIDs()), len(passRegistry); got != want {
		t.Errorf("passByID has %d entries, registry has %d", got, want)
	}
	if got, want := DefaultPassIDs(), []string{"phase2", "phase3", "phase4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultPassIDs() = %v, want %v", got, want)
	}
}

// TestValidatePasses: the shared gate accepts any ordering and duplicates
// of selectable passes, and rejects unknown, implicit, and read-only IDs and
// a tune that is not the schedule's one first entry — surfacing the error
// from Optimize before any work happens.
func TestValidatePasses(t *testing.T) {
	if err := ValidatePasses(nil); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
	if err := ValidatePasses([]string{"phase4", "phase2", "phase2"}); err != nil {
		t.Errorf("reordered schedule with duplicate rejected: %v", err)
	}
	for _, bad := range []string{"phase1", "offload-report", "phase5", ""} {
		if ValidatePasses([]string{bad}) == nil {
			t.Errorf("ValidatePasses accepted %q", bad)
		}
	}
	for _, sched := range [][]string{{"tune"}, {"tune", "phase2", "phase3", "phase4"}} {
		if err := ValidatePasses(sched); err != nil {
			t.Errorf("tune-first schedule %v rejected: %v", sched, err)
		}
	}
	for _, sched := range [][]string{{"phase2", "phase3", "phase4", "tune"}, {"phase2", "tune"}, {"tune", "tune"}, {"tune", "phase2", "tune"}} {
		if err := ValidatePasses(sched); err == nil || !strings.Contains(err.Error(), `pass "tune" must be the first entry`) {
			t.Errorf("ValidatePasses(%v) = %v, want the tune-first error", sched, err)
		}
	}
	if _, err := Optimize(context.Background(), nil, nil, nil, Options{Passes: []string{"phase5"}}); err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Errorf("Optimize with a bad schedule returned %v, want unknown-pass error", err)
	}
	if _, err := OffloadCandidates(context.Background(), nil, nil, nil, Options{Passes: []string{"phase5"}}); err == nil {
		t.Error("OffloadCandidates ignored a bad schedule")
	}
}

// TestPassIDsDefaultAndExplicit: an unset Passes resolves to the default
// schedule, and an explicit list — an empty one included — is run as given.
func TestPassIDsDefaultAndExplicit(t *testing.T) {
	cases := []struct {
		opts Options
		want []string
	}{
		{Options{}, []string{"phase2", "phase3", "phase4"}},
		{Options{Passes: []string{"phase3"}}, []string{"phase3"}},
		{Options{Passes: []string{}}, []string{}},
	}
	for i, c := range cases {
		if got := c.opts.passIDs(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: passIDs() = %v, want %v", i, got, c.want)
		}
	}
}

// TestPassOrderingAblationGolden reproduces §2.2 on the l2l3_acl workload:
// with the default order, Phase 2 folds ACL2 into ACL1's miss arm first
// (5 → 4 stages), so the offload that then moves both ACLs out only saves
// one stage; running phase4 first offloads both ACLs in one step and saves
// two. Both orders land on 3 stages, but the attribution — and what the
// controller ends up running — depends on the schedule.
func TestPassOrderingAblationGolden(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	type step struct {
		label  string
		stages int
	}
	check := func(name string, res *Result, wantHist []step, wantSaved string, wantPasses []string) {
		t.Helper()
		var got []step
		for _, h := range res.History {
			got = append(got, step{h.Label, h.Stages})
		}
		want := append([]step(nil), wantHist...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: history = %+v, want %+v", name, got, want)
		}
		if !reflect.DeepEqual(res.OffloadedTables, []string{"ACL1", "ACL2"}) {
			t.Errorf("%s: offloaded %v, want both ACLs", name, res.OffloadedTables)
		}
		if res.RedirectedFraction != 0.05 {
			t.Errorf("%s: redirected fraction = %v, want 0.05", name, res.RedirectedFraction)
		}
		saved := ""
		for _, o := range res.Observations {
			if o.Kind == "offload-segment" && o.Accepted {
				saved = o.Details["stages_saved"]
			}
		}
		if saved != wantSaved {
			t.Errorf("%s: offload observation stages_saved = %q, want %q", name, saved, wantSaved)
		}
		var ids []string
		for _, s := range res.PassStats {
			ids = append(ids, s.ID)
		}
		if !reflect.DeepEqual(ids, wantPasses) {
			t.Errorf("%s: pass stats order = %v, want %v", name, ids, wantPasses)
		}
	}

	def, err := Optimize(context.Background(), ast, cfg, trace, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("default order", def,
		[]step{{"initial", 5}, {"removing-dependencies", 4}, {"reducing-memory", 4}, {"offloading-code", 3}},
		"1", []string{"phase1", "phase2", "phase3", "phase4"})

	first, err := Optimize(context.Background(), ast, cfg, trace, Options{Parallelism: 1, Passes: []string{"phase4", "phase2", "phase3"}})
	if err != nil {
		t.Fatal(err)
	}
	check("offload first", first,
		[]step{{"initial", 5}, {"offloading-code", 3}, {"removing-dependencies", 3}, {"reducing-memory", 3}},
		"2", []string{"phase1", "phase4", "phase2", "phase3"})
}

// TestOptimizeParallelismInvariant is the end-to-end determinism check
// behind the golden span-tree tests pinning Parallelism to 1: the
// optimization outcome — rewritten program, observations, stage history —
// must be identical whatever the worker count, because probe results are
// collected by index and sharded profiles merge to the sequential profile.
func TestOptimizeParallelismInvariant(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := w.Trace(1)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			optimize := func(parallelism int) *Result {
				res, err := Optimize(context.Background(),
					p4.MustParse(w.Source), w.Config(), trace, Options{Parallelism: parallelism})
				if err != nil {
					t.Fatalf("optimize (parallelism %d): %v", parallelism, err)
				}
				return res
			}
			seq := optimize(1)
			par := optimize(4)
			if a, b := p4.Print(seq.Optimized), p4.Print(par.Optimized); a != b {
				t.Errorf("optimized program differs:\n--- sequential ---\n%s--- parallel ---\n%s", a, b)
			}
			if !reflect.DeepEqual(seq.Observations, par.Observations) {
				t.Errorf("observations differ:\nsequential: %+v\nparallel: %+v", seq.Observations, par.Observations)
			}
			var sa, sb []int
			for _, h := range seq.History {
				sa = append(sa, h.Stages)
			}
			for _, h := range par.History {
				sb = append(sb, h.Stages)
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Errorf("stage history differs: %v vs %v", sa, sb)
			}
			if d := seq.FinalProfile.Diff(par.FinalProfile); d != "" {
				t.Errorf("final profiles differ: %s", d)
			}
		})
	}
}

// TestReorderedPassesParallelismInvariant extends the end-to-end
// determinism check to a non-default schedule: the reordered pipeline must
// produce identical results at Parallelism 1 and 4.
func TestReorderedPassesParallelismInvariant(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	optimize := func(parallelism int) *Result {
		res, err := Optimize(context.Background(), ast, cfg, trace, Options{
			Parallelism: parallelism,
			Passes:      []string{"phase4", "phase2", "phase3"},
		})
		if err != nil {
			t.Fatalf("optimize (parallelism %d): %v", parallelism, err)
		}
		return res
	}
	seq := optimize(1)
	par := optimize(4)
	if a, b := p4.Print(seq.Optimized), p4.Print(par.Optimized); a != b {
		t.Errorf("optimized program differs:\n--- sequential ---\n%s--- parallel ---\n%s", a, b)
	}
	if !reflect.DeepEqual(seq.Observations, par.Observations) {
		t.Errorf("observations differ:\nsequential: %+v\nparallel: %+v", seq.Observations, par.Observations)
	}
	if !reflect.DeepEqual(seq.History, par.History) {
		// Durations differ; compare labels and stages only.
		for i := range seq.History {
			if seq.History[i].Label != par.History[i].Label || seq.History[i].Stages != par.History[i].Stages {
				t.Errorf("history[%d] differs: %+v vs %+v", i, seq.History[i], par.History[i])
			}
		}
	}
	if d := seq.FinalProfile.Diff(par.FinalProfile); d != "" {
		t.Errorf("final profiles differ: %s", d)
	}
}

// countingHooks wraps the real compiler and profiler with call counters,
// standing in for the service layer's artifact cache.
type countingHooks struct {
	compiles atomic.Int64
	profiles atomic.Int64
}

func (h *countingHooks) options(cache *AnalysisCache, tweak func(*Options)) Options {
	opts := Options{
		Parallelism:   1,
		AnalysisCache: cache,
		CompileHook: func(_ context.Context, ast *p4.Program, tgt tofino.Target) (*tofino.Result, error) {
			h.compiles.Add(1)
			return tofino.Compile(ast, tgt)
		},
		ProfileHook: func(ctx context.Context, ast *p4.Program, cfg *rt.Config, tr *trafficgen.Trace) (*profile.Profile, error) {
			h.profiles.Add(1)
			prep, err := profile.PrepareContext(ctx, ast, cfg)
			if err != nil {
				return nil, err
			}
			return prep.Profiler().RunWith(ctx, tr, profile.RunOptions{Shards: 1})
		},
	}
	if tweak != nil {
		tweak(&opts)
	}
	return opts
}

// TestIncrementalRerunUsesCache is the acceptance check for the analysis
// cache: with a shared AnalysisCache, re-running the same program and
// trace issues strictly fewer CompileHook/ProfileHook calls than the cold
// run — zero, for an identical re-run — and changing only the pass
// schedule replays entirely from cache while still changing the outcome.
func TestIncrementalRerunUsesCache(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	hooks := &countingHooks{}
	cache := NewAnalysisCache()

	cold, err := Optimize(context.Background(), ast, cfg, trace, hooks.options(cache, nil))
	if err != nil {
		t.Fatal(err)
	}
	coldCompiles, coldProfiles := hooks.compiles.Load(), hooks.profiles.Load()
	if coldCompiles == 0 || coldProfiles == 0 {
		t.Fatalf("cold run issued %d compiles / %d profiles; hooks not exercised", coldCompiles, coldProfiles)
	}

	warm, err := Optimize(context.Background(), ast, cfg, trace, hooks.options(cache, nil))
	if err != nil {
		t.Fatal(err)
	}
	warmCompiles := hooks.compiles.Load() - coldCompiles
	warmProfiles := hooks.profiles.Load() - coldProfiles
	if warmCompiles >= coldCompiles || warmProfiles >= coldProfiles {
		t.Errorf("incremental re-run not cheaper: %d/%d compiles, %d/%d profiles",
			warmCompiles, coldCompiles, warmProfiles, coldProfiles)
	}
	if warmCompiles != 0 || warmProfiles != 0 {
		t.Errorf("identical re-run recomputed %d compiles and %d profiles, want 0", warmCompiles, warmProfiles)
	}
	if a, b := p4.Print(cold.Optimized), p4.Print(warm.Optimized); a != b {
		t.Errorf("cached re-run produced a different program:\n--- cold ---\n%s--- warm ---\n%s", a, b)
	}
	var hits int
	for _, s := range warm.PassStats {
		hits += s.CompileHits + s.ProfileHits
	}
	if hits == 0 {
		t.Error("warm run's PassStats record no cache hits")
	}

	// Only the schedule changed: without phase4 the run ends on the Phase 3
	// program — decided entirely from cached analyses.
	noOffload, err := Optimize(context.Background(), ast, cfg, trace, hooks.options(cache, func(o *Options) {
		o.Passes = []string{"phase2", "phase3"}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n := hooks.compiles.Load() - coldCompiles; n != 0 {
		t.Errorf("schedule-only re-run issued %d fresh compiles, want 0", n)
	}
	if n := hooks.profiles.Load() - coldProfiles; n != 0 {
		t.Errorf("schedule-only re-run issued %d fresh profiles, want 0", n)
	}
	if len(noOffload.OffloadedTables) != 0 {
		t.Errorf("offloaded %v without phase4 scheduled", noOffload.OffloadedTables)
	}
	if noOffload.StagesAfter() != 4 {
		t.Errorf("schedule-only re-run stages = %d, want 4", noOffload.StagesAfter())
	}
}

// TestWithinRunCacheDeduplicates: even without a shared cache, one run
// deduplicates its own repeated programs (Phase 4 re-compiling the winning
// candidate it already measured), so PassStats record hits on a cold run
// too. Phase 4 reads every l2l3_acl candidate's redirect count off the
// profile, so its one profile lookup — a miss — is the winner's replay.
func TestWithinRunCacheDeduplicates(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	res, err := Optimize(context.Background(), ast, cfg, trace, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stat *PassStat
	for i := range res.PassStats {
		if res.PassStats[i].ID == "phase4" {
			stat = &res.PassStats[i]
		}
	}
	if stat == nil {
		t.Fatal("no phase4 PassStat recorded")
	}
	if stat.CompileHits == 0 {
		t.Errorf("phase4 apply step did not reuse the measured candidate's compile: %+v", *stat)
	}
	if stat.ProfileMisses != 1 || stat.ProfileHits != 0 {
		t.Errorf("phase4 replayed %d candidates (%d more from cache), want the winner only: %+v",
			stat.ProfileMisses, stat.ProfileHits, *stat)
	}
	st := NewAnalysisCache().Stats()
	if st.CompileHits+st.CompileMisses+st.ProfileHits+st.ProfileMisses+st.CompileEntries+st.ProfileEntries != 0 {
		t.Errorf("fresh cache has non-zero stats: %+v", st)
	}
}

// TestOffloadCandidatesSpanTree: the ablation entry point runs through the
// manager, so its compiles and profiles nest under a proper optimize root
// span instead of floating as orphan roots (the old truncated traces).
func TestOffloadCandidatesSpanTree(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	reports, err := OffloadCandidates(ctx, ast, cfg, trace, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rep := range reports {
		// The inner then-block run: both ACLs behind the valid(udp) guard.
		if rep.Segment.Desc != "ingress.2.then[0:1]" {
			continue
		}
		found = true
		if !reflect.DeepEqual(rep.Segment.Tables, []string{"ACL1", "ACL2"}) ||
			rep.StagesSaved != 2 || rep.RedirectFrac != 0.05 {
			t.Errorf("both-ACLs candidate = %+v, want 2 stages saved at 5%% redirect", rep)
		}
	}
	if !found {
		t.Errorf("no {ACL1, ACL2} candidate in %+v", reports)
	}
	roots := 0
	names := map[string]int{}
	for _, s := range col.Spans() {
		names[s.Name]++
		if s.ParentID == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("ablation trace has %d root spans, want 1", roots)
	}
	for _, want := range []string{
		"optimize", "phase1.profile", "phase4.offload-report",
		"phase4.candidate", "compile", "profile", "sim.replay",
	} {
		if names[want] == 0 {
			t.Errorf("ablation trace has no %q span (got %v)", want, names)
		}
	}
	if !strings.HasPrefix(col.Tree(), "optimize") {
		t.Errorf("tree does not start at the optimize span:\n%s", col.Tree())
	}
}

// TestPlanCacheServesRepeatedPrograms: the prepared-profiler cache keys on
// (program, rules) only, so re-running the same program on a different
// trace re-replays every profile but serves instrumentation and bytecode
// lowering entirely from cache — and a plan-cache hit emits the same
// "profile.instrument" span (with its tables attr) as a real preparation,
// keeping span trees structurally identical.
func TestPlanCacheServesRepeatedPrograms(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	cache := NewAnalysisCache()

	coldRes, err := Optimize(context.Background(), ast, cfg, trace, Options{AnalysisCache: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	if cold.PlanEntries == 0 || cold.PlanMisses == 0 {
		t.Fatalf("cold run stored no prepared plans: %+v", cold)
	}

	// Same packets in reverse order: a different trace digest (every
	// profile key misses) over the same programs (every plan key hits).
	rev := &trafficgen.Trace{}
	for i := len(trace.Packets) - 1; i >= 0; i-- {
		rev.Packets = append(rev.Packets, trace.Packets[i])
	}
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	warm, err := Optimize(ctx, ast, cfg, rev, Options{AnalysisCache: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.PlanMisses != cold.PlanMisses || st.PlanEntries != cold.PlanEntries {
		t.Errorf("warm run re-prepared plans: cold %+v, warm %+v", cold, st)
	}
	if st.PlanHits <= cold.PlanHits {
		t.Errorf("warm run recorded no plan-cache hits: cold %+v, warm %+v", cold, st)
	}
	if !strings.Contains(col.Tree(), "profile.instrument tables=") {
		t.Errorf("plan-cache hit did not emit the profile.instrument span:\n%s", col.Tree())
	}
	// Profile counts are order-independent sums, so the reversed trace
	// must profile Equal to the cold run — replayed through cached plans.
	if !warm.Profile.Equal(coldRes.Profile) {
		t.Errorf("reversed-trace profile differs from cold run:\n%s", warm.Profile.Diff(coldRes.Profile))
	}
}

// TestEvictionCostsRecomputeNotAnswer: the store under the analysis cache
// is bounded, and a run holds the results it was handed, so a store far too
// small for the run's working set — two entries, evicting on nearly every
// fill — changes how often ex1's analyses are computed and nothing else. A
// compile entry takes its candidate table with it when it goes, so the
// second run over the same store finds most parents evicted with their
// tables, derives their candidates again, and must answer the same.
func TestEvictionCostsRecomputeNotAnswer(t *testing.T) {
	roomy := optimizeEx1(t, Options{Parallelism: 1})
	store := cache.NewCache(2, "")
	tight := optimizeEx1(t, Options{Parallelism: 1, AnalysisCache: NewAnalysisCacheOver(store)})
	again := optimizeEx1(t, Options{Parallelism: 1, AnalysisCache: NewAnalysisCacheOver(store)})

	for label, res := range map[string]*Result{"2 entries": tight, "2 entries, second run": again} {
		if a, b := p4.Print(roomy.Optimized), p4.Print(res.Optimized); a != b {
			t.Errorf("optimized program differs:\n--- default bound ---\n%s--- %s ---\n%s", a, label, b)
		}
		if a, b := p4.Print(roomy.ControllerProgram), p4.Print(res.ControllerProgram); a != b {
			t.Errorf("controller program differs:\n--- default bound ---\n%s--- %s ---\n%s", a, label, b)
		}
		if !reflect.DeepEqual(roomy.Observations, res.Observations) {
			t.Errorf("observations differ:\ndefault bound: %+v\n%s: %+v", roomy.Observations, label, res.Observations)
		}
		if roomy.StagesBefore() != res.StagesBefore() || roomy.StagesAfter() != res.StagesAfter() {
			t.Errorf("stages %d -> %d under %s, %d -> %d under the default bound",
				res.StagesBefore(), res.StagesAfter(), label, roomy.StagesBefore(), roomy.StagesAfter())
		}
	}
	misses := func(res *Result) (n int) {
		for _, ps := range res.PassStats {
			n += ps.CompileMisses + ps.ProfileMisses
		}
		return n
	}
	if misses(tight) <= misses(roomy) || misses(again) <= misses(roomy) {
		t.Errorf("2-entry store missed %d and %d times, default bound %d: nothing was evicted, the test shows nothing",
			misses(tight), misses(again), misses(roomy))
	}
	if n := store.Stats().Entries; n > 2 {
		t.Errorf("store holds %d entries, bound is 2", n)
	}
}
