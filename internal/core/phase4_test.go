package core

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"testing"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// The derivation property test's generated-program seed count; the
// tune-smoke CI job raises it alongside the root differential sweep.
var generatorSeeds = flag.Int("generator-seeds", 64, "seed count for the generated-program redirect-derivation sweep")

// runThrough profiles the program and runs the given passes, returning the
// run as Phase 4 would find it.
func runThrough(t testing.TB, ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace, opts Options) *run {
	t.Helper()
	m, err := newManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := obs.Start(context.Background(), "optimize")
	defer root.End()
	r, err := m.newRun(ast, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.profilePass(ctx, r, root); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.passes {
		if err := m.runPass(ctx, r, p); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// replayRedirect measures a candidate the way Phase 4 did before it read
// the profile: rewrite, replay the whole trace, count To_Ctl hits. It is
// the reference redirectFromProfile is held to.
func replayRedirect(r *run, seg Segment) (int, error) {
	candidate, err := r.rewriteOffload(seg)
	if err != nil {
		return 0, err
	}
	prof, err := r.profileCandidate(context.Background(), candidate)
	if err != nil {
		return 0, err
	}
	return prof.Hits[ToCtlTable], nil
}

// checkDerivation asserts derived == replayed for every self-contained
// candidate of the run's current program, and returns how many candidates
// the profile answered and how many fell back to a replay.
func checkDerivation(t *testing.T, r *run) (derived, fallback int) {
	t.Helper()
	for _, seg := range enumerateSegments(r.cur) {
		if !r.selfContained(seg) {
			continue
		}
		want, err := replayRedirect(r, seg)
		if err != nil {
			continue // not a candidate either way
		}
		got, source, ok := r.redirectFromProfile(seg)
		if !ok {
			fallback++
			continue
		}
		derived++
		if got != want {
			t.Errorf("segment %s {%s}: %s gives %d redirected packets, replaying the rewrite gives %d\n%s",
				seg.Desc, strings.Join(seg.Tables, ","), source, got, want, p4.Print(r.cur))
		}
	}
	return derived, fallback
}

// TestRedirectDerivationMatchesReplay is the exactness property Phase 4
// rests on: for every bundled workload and every generated program, at
// every point a pass schedule can reach Phase 4 from, the redirect count
// read off the profile equals the count a replay of the rewritten
// candidate measures.
func TestRedirectDerivationMatchesReplay(t *testing.T) {
	schedules := [][]string{{}, {"phase2", "phase3"}}
	var derived, fallback int
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		scheds := schedules
		opts := Options{}
		if w.Tune != nil {
			scheds = append(scheds[:len(scheds):len(scheds)], []string{"tune", "phase2", "phase3"})
			opts.Tune = &TuneOptions{AccuracyTable: w.Tune.AccuracyTable, MaxAccuracyLoss: w.Tune.MaxAccuracyLoss}
		}
		for _, passes := range scheds {
			opts.Passes = passes
			d, f := checkDerivation(t, runThrough(t, p4.MustParse(w.Source), w.Config(), trace, opts))
			derived, fallback = derived+d, fallback+f
		}
	}
	if derived == 0 {
		t.Fatal("no bundled workload has a candidate the profile answers")
	}
	t.Logf("bundled workloads: %d candidates derived, %d replayed", derived, fallback)

	derived, fallback = 0, 0
	for seed := int64(0); seed < int64(*generatorSeeds); seed++ {
		g := programs.Generate(seed)
		cfg, err := rt.Parse(g.Rules)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		trace := &trafficgen.Trace{}
		for _, p := range g.Packets {
			trace.Packets = append(trace.Packets, trafficgen.Packet{Port: p.Port, Data: p.Data})
		}
		for _, passes := range schedules {
			d, f := checkDerivation(t, runThrough(t, p4.MustParse(g.Source), cfg, trace, Options{Passes: passes}))
			derived, fallback = derived+d, fallback+f
		}
	}
	if derived == 0 {
		t.Fatal("no generated program has a candidate the profile answers")
	}
	t.Logf("%d generated programs: %d candidates derived, %d replayed", *generatorSeeds, derived, fallback)
}

// ifOnlyProgram nests two mark-then-filter chains under a block that holds
// nothing but an if: the candidate covering both chains replaces that if,
// and no table is applied beside it whose Applied count could stand in for
// the block's entry count — Phase 4 has to replay it. Either chain alone
// feeds m.x to the other's filter, so only the pair is self-contained; fwd
// keeps off egress_spec so that To_Ctl can share its stage.
const ifOnlyProgram = `
header_type h_t { fields { kind : 8; port : 8; pad : 16; } }
header h_t h;
header_type m_t { fields { x : 8; y : 8; } }
metadata m_t m;
parser start { extract(h); return ingress; }
action fwd_a(p) { modify_field(m.y, p); }
action set_a(v) { modify_field(m.x, v); }
action set_b(v) { modify_field(m.x, v); }
action deny_a() { drop(); }
action deny_b() { drop(); }
table fwd { actions { fwd_a; } default_action : fwd_a(2); }
table mark_a { reads { h.port : exact; } actions { set_a; } size : 16; }
table mark_b { reads { h.port : exact; } actions { set_b; } size : 16; }
table acl_a { reads { m.x : exact; } actions { deny_a; } size : 16; }
table acl_b { reads { m.x : exact; } actions { deny_b; } size : 16; }
control ingress {
    apply(fwd);
    if (h.kind == 1) {
        if (h.port == 7) {
            apply(mark_a);
            apply(acl_a);
        } else {
            apply(mark_b);
            apply(acl_b);
        }
    }
}
`

// ifOnlyInputs is ifOnlyProgram with 400 packets, every 20th of kind 1 and
// those alternating between the two chains' ports, so every dependency
// inside the block manifests and Phase 2 leaves it alone.
func ifOnlyInputs(t *testing.T) (*p4.Program, *rt.Config, *trafficgen.Trace, int) {
	t.Helper()
	cfg, err := rt.Parse("table_add mark_a set_a 7 => 1\ntable_add acl_a deny_a 1\n" +
		"table_add mark_b set_b 9 => 1\ntable_add acl_b deny_b 1\n")
	if err != nil {
		t.Fatal(err)
	}
	trace := &trafficgen.Trace{}
	kind1 := 0
	for i := 0; i < 400; i++ {
		data := []byte{0, byte(i % 16), 0, 0}
		if i%20 == 0 {
			data[0], data[1] = 1, 7+2*byte(i/20%2)
			kind1++
		}
		trace.Packets = append(trace.Packets, trafficgen.Packet{Port: 1, Data: data})
	}
	return p4.MustParse(ifOnlyProgram), cfg, trace, kind1
}

// TestPhase4ReplayFallback: a candidate whose block holds only an if is
// measured by replay, the replay counts exactly the packets entering the
// block, and the candidate can win and be applied like any other.
func TestPhase4ReplayFallback(t *testing.T) {
	ast, cfg, trace, kind1 := ifOnlyInputs(t)
	reports, err := New(Options{}).OffloadCandidates(ast, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{}
	for _, rep := range reports {
		sources[rep.Segment.Desc] = rep.RedirectSource
		if rep.Segment.Desc == "ingress.1.then[0:0]" && rep.Redirected != kind1 {
			t.Errorf("replayed candidate redirects %d packets, want the %d of kind 1", rep.Redirected, kind1)
		}
	}
	want := map[string]string{
		"ingress[1:1]":        "profile:fwd",
		"ingress.1.then[0:0]": redirectReplay,
	}
	for desc, src := range want {
		if sources[desc] != src {
			t.Errorf("candidate %s measured from %q, want %q (all: %v)", desc, sources[desc], src, sources)
		}
	}

	res, err := New(Options{}).Optimize(ast, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	var off *Observation
	for i := range res.Observations {
		if res.Observations[i].Kind == "offload-segment" {
			off = &res.Observations[i]
		}
	}
	if off == nil {
		t.Fatalf("nothing offloaded:\n%s", RenderHistory(res.History))
	}
	if got := strings.Join(off.Tables, ","); got != "mark_a,acl_a,mark_b,acl_b" {
		t.Errorf("offloaded {%s}, want both chains (the if-only block)", got)
	}
	if off.Details["redirect_source"] != redirectReplay {
		t.Errorf("winner's redirect_source = %q, want %q", off.Details["redirect_source"], redirectReplay)
	}
	if want := fmt.Sprintf("replayed winner: %d == %d", kind1, kind1); off.Details["redirect_audit"] != want {
		t.Errorf("redirect_audit = %q, want %q", off.Details["redirect_audit"], want)
	}
}

// TestPhase4AuditCatchesBadProfile: the winner's replay is an audit of the
// count the profile supplied. A profile whose Applied entry for the
// winning block is wrong must fail the run with a core: error, not
// produce an observation.
func TestPhase4AuditCatchesBadProfile(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	r := runThrough(t, ast, cfg, trace, Options{Passes: []string{"phase2", "phase3"}})
	before := len(r.obs)

	// The winning block's entry count comes from ACL1; understate it by
	// one packet on a copy (cached profiles are shared and immutable).
	bad := *r.prof
	bad.Applied = map[string]int{}
	for k, v := range r.prof.Applied {
		bad.Applied[k] = v
	}
	if bad.Applied["ACL1"] == 0 {
		t.Fatalf("fixture drifted: ACL1 never applied (%v)", r.prof.Applied)
	}
	bad.Applied["ACL1"]--
	r.prof = &bad

	err := r.phase4(context.Background())
	if err == nil {
		t.Fatalf("phase4 accepted an offload measured from a corrupted profile: %+v", r.obs[before:])
	}
	if !strings.HasPrefix(err.Error(), "core: phase4:") || !strings.Contains(err.Error(), "profile:ACL1") {
		t.Errorf("audit error = %q, want a core: phase4 mismatch naming profile:ACL1", err)
	}
	if len(r.obs) != before || len(r.offloaded) != 0 {
		t.Errorf("failed audit still recorded an offload: %+v / %v", r.obs[before:], r.offloaded)
	}
}

// TestPhase4SpansNameRedirectSource: measured candidates say where their
// count came from, and a derived candidate has no profile child — the
// only Phase-4 replay left is the winner's, under phase4.apply.
func TestPhase4SpansNameRedirectSource(t *testing.T) {
	ast, cfg, trace := l2l3Inputs(t)
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	if _, err := New(Options{Context: ctx, Parallelism: 1}).Optimize(ast, cfg, trace); err != nil {
		t.Fatal(err)
	}
	tree := col.Tree("packets_per_sec")
	lines := strings.Split(tree, "\n")
	measured := 0
	for i, line := range lines {
		if !strings.Contains(line, "phase4.candidate") || !strings.Contains(line, "redirect_source=") {
			continue
		}
		measured++
		if !strings.Contains(line, "redirect_source=profile:") {
			t.Errorf("l2l3_acl candidate not answered by the profile: %s", line)
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		for _, child := range lines[i+1:] {
			if len(child)-len(strings.TrimLeft(child, " ")) <= indent {
				break
			}
			if strings.HasPrefix(strings.TrimSpace(child), "profile") {
				t.Errorf("derived candidate still has a profile child:\n%s\n%s", line, child)
			}
		}
	}
	if measured == 0 {
		t.Fatalf("no measured phase4.candidate span:\n%s", tree)
	}
	if !strings.Contains(tree, "phase4.apply") {
		t.Fatalf("no phase4.apply span:\n%s", tree)
	}
}

// warmEx1 fills a cache with one cold ex1 run and returns a function that
// re-runs the same optimization under it.
func warmEx1(t testing.TB) (cold *Result, rerun func() *Result) {
	t.Helper()
	ast := p4.MustParse(programs.Ex1)
	cfg := programs.Ex1Config()
	trace := enterpriseTrace(t)
	opts := Options{AnalysisCache: NewAnalysisCache(), Parallelism: 4}
	optimize := func() *Result {
		res, err := New(opts).Optimize(ast, cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return optimize(), optimize
}

// BenchmarkWarmRerunEx1 is one fully cached re-run of ex1: every compile
// and profile lookup hits, so what is left is rewriting candidates and
// keying them.
func BenchmarkWarmRerunEx1(b *testing.B) {
	_, rerun := warmEx1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rerun()
	}
}

// TestCompileHitDoesNotClone bounds what a warm re-run of ex1 allocates:
// every lookup hits, so it must neither clone the AST nor materialise the
// printed program it is keyed on, and every candidate is answered by the
// table on its parent's compile entry. The ceilings are half of what the tree
// that still rebuilt and re-keyed every candidate allocated (4 573
// allocations, 468 319 bytes; the one that cloned and printed on every lookup
// made 60 085 and 3.66 MB). Under -race -count=10 the same test covers the
// pool workers' concurrent reads of r.prof and of the candidate tables.
func TestCompileHitDoesNotClone(t *testing.T) {
	cold, rerun := warmEx1(t)
	var warm *Result
	allocs := testing.AllocsPerRun(5, func() { warm = rerun() })
	if p4.Print(warm.Optimized) != p4.Print(cold.Optimized) {
		t.Error("warm re-run produced a different program")
	}
	for _, s := range warm.PassStats {
		if s.CompileMisses+s.ProfileMisses != 0 {
			t.Errorf("warm re-run missed the cache in %s: %+v", s.ID, s)
		}
	}
	bytes := testing.Benchmark(BenchmarkWarmRerunEx1).AllocedBytesPerOp()
	t.Logf("warm ex1 re-run: %.0f allocs, %d bytes", allocs, bytes)
	if raceEnabled {
		return
	}
	if allocs > 2286 {
		t.Errorf("warm re-run made %.0f allocations, ceiling 2286", allocs)
	}
	if bytes > 234_000 {
		t.Errorf("warm re-run allocated %d bytes, ceiling 234 KB", bytes)
	}
}

// TestWarmRerunAllocCeiling: a warm re-run replays nothing and derives no
// candidate — each is a lookup in the table on its parent's compile entry —
// so what is left is keying the original, the lookups themselves and the
// result. The tree that still cloned, rewrote and keyed every candidate made
// 4 573 allocations for ex1 (36 666 before clones shared declarations and
// keys were printed into recycled buffers); the ceiling is half of 4 573.
// This tree makes about 1 370.
func TestWarmRerunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not apply under -race")
	}
	_, rerun := warmEx1(t)
	allocs := testing.AllocsPerRun(5, func() { rerun() })
	t.Logf("warm ex1 re-run: %.0f allocations", allocs)
	if allocs > 2286 {
		t.Errorf("warm ex1 re-run made %.0f allocations, ceiling 2286", allocs)
	}
}

// TestPhase4SkipsReplayItWouldDiscard: a candidate the profile cannot answer
// used to be replayed over the whole trace even when its compile had just
// shown it saves no stage — ex1's {ACL_DHCP} in the miss arm. phase4 now
// rejects it on the stage count and replays only the winner; the
// offload-report ablation still measures it.
func TestPhase4SkipsReplayItWouldDiscard(t *testing.T) {
	const desc = "ingress.0.then.1.then.0.miss[0:0]"
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	res, err := New(Options{Context: ctx, Parallelism: 1}).Optimize(
		p4.MustParse(programs.Ex1), programs.Ex1Config(), enterpriseTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesAfter() != 3 {
		t.Errorf("stages after = %d, want 3", res.StagesAfter())
	}
	lines := strings.Split(col.Tree("packets_per_sec"), "\n")
	found, replays := false, 0
	inPhase4 := false
	for i, line := range lines {
		switch trimmed := strings.TrimSpace(line); {
		case strings.HasPrefix(trimmed, "phase4.offload"):
			inPhase4 = true
		case inPhase4 && strings.HasPrefix(trimmed, "sim.replay"):
			replays++
		case strings.HasPrefix(trimmed, "phase4.candidate") && strings.Contains(line, "segment="+desc+" "):
			found = true
			if !strings.Contains(line, "rejected=no-stage-saved") || !strings.Contains(line, "stages_saved=0") {
				t.Errorf("candidate not rejected on its stage count: %s", line)
			}
			if i+2 < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i+2]), "profile") {
				t.Errorf("rejected candidate was still replayed:\n%s\n%s\n%s", line, lines[i+1], lines[i+2])
			}
		}
	}
	if !found {
		t.Fatalf("no phase4.candidate span for %s:\n%s", desc, strings.Join(lines, "\n"))
	}
	if replays != 1 {
		t.Errorf("phase4 replayed the trace %d times, want once (the winner's audit)", replays)
	}

	// The ablation pass, on the same program Phase 4 saw, still measures it.
	r := runThrough(t, p4.MustParse(programs.Ex1), programs.Ex1Config(), enterpriseTrace(t),
		Options{Passes: []string{"phase2", "phase3"}})
	for _, measureAll := range []bool{true, false} {
		reports, err := r.offloadCandidates(context.Background(), measureAll)
		if err != nil {
			t.Fatal(err)
		}
		var rep *CandidateReport
		for i := range reports {
			if reports[i].Segment.Desc == desc {
				rep = &reports[i]
			}
		}
		switch {
		case measureAll && (rep == nil || rep.RedirectSource != redirectReplay || rep.StagesSaved != 0):
			t.Errorf("offload-report did not replay the candidate that saves no stage: %+v", rep)
		case !measureAll && rep != nil:
			t.Errorf("phase4 still reports the candidate it would discard: %+v", rep)
		}
	}
}
