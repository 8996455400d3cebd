package core

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/tofino"
	"p2go/internal/workloads"
)

// TestDepthIsAFloor: a compile never needs fewer stages than its
// memory-free depth, and a Phase 3 knob never moves the depth — the two
// facts Phase 3's depth-bound skip rests on. Every compile of the runs
// TestRedirectDerivationMatchesReplay sweeps goes through a hook that
// checks the first; the second is checked on every knob of each run's
// final program, at the values Phase 3 can probe.
func TestDepthIsAFloor(t *testing.T) {
	var compiles atomic.Int64
	hook := func(_ context.Context, ast *p4.Program, tgt tofino.Target) (*tofino.Result, error) {
		res, err := tofino.Compile(ast, tgt)
		if err != nil {
			return nil, err
		}
		compiles.Add(1)
		if m := res.Mapping; m.Depth > totalStages(m) {
			t.Errorf("depth %d above %d stages: %s", m.Depth, totalStages(m), m.Summary())
		}
		return res, nil
	}
	knobs := 0
	sweepRuns(t, Options{CompileHook: hook}, func(r *run, _ bool) {
		knobs += checkKnobDepth(t, r)
	})
	if compiles.Load() == 0 || knobs == 0 {
		t.Fatalf("%d compiles and %d knob probes checked", compiles.Load(), knobs)
	}
	t.Logf("%d compiles within their depth, %d knob probes at their parent's depth", compiles.Load(), knobs)
}

// checkKnobDepth compiles every memory knob of the run's current program at
// the smallest value, the halving and one below full, and asserts each
// child keeps the parent's depth. It returns how many children it checked.
func checkKnobDepth(t *testing.T, r *run) int {
	t.Helper()
	want := r.compile.Mapping.Depth
	n := 0
	for _, tbl := range r.compile.IR.Ordered {
		knob, ok := knobFor(r.cur, tbl.Name)
		if !ok {
			continue
		}
		for _, value := range []int{1, knob.full / 2, knob.full - 1} {
			child := p4.Clone(r.cur)
			if value < 1 || applyKnob(child, knob, value) != nil {
				continue
			}
			res, err := tofino.Compile(child, r.tgt)
			if err != nil {
				continue // infeasible: never a candidate
			}
			n++
			if got := res.Mapping.Depth; got != want {
				t.Errorf("knob:%s=%d has depth %d, its parent %d\n%s", knob.table, value, got, want, p4.Print(r.cur))
			}
		}
	}
	return n
}

// boundedRun optimizes a bundled workload at parallelism 1 and returns the
// result with its span names counted and the spans themselves.
func boundedRun(t *testing.T, name string) (*Result, map[string]int, []obs.SpanData) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	res, err := Optimize(ctx, p4.MustParse(w.Source), w.Config(), trace, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, sp := range col.Spans() {
		counts[sp.Name]++
	}
	return res, counts, col.Spans()
}

// spanAttr returns the value of the first span named name that carries key.
func spanAttr(spans []obs.SpanData, name, key string) string {
	for _, sp := range spans {
		if sp.Name != name {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
	}
	return ""
}

// passStat returns the run's stat for one pass.
func passStat(t *testing.T, res *Result, id string) PassStat {
	t.Helper()
	for _, s := range res.PassStats {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("no %s pass ran", id)
	return PassStat{}
}

// TestPhase3SkipsAtTheDepthBound: a program that Phase 2 leaves at its
// memory-free depth gets no Phase 3 probe, and says why on the pass span.
func TestPhase3SkipsAtTheDepthBound(t *testing.T) {
	for _, name := range []string{"stress", "natgre", "quickstart"} {
		res, counts, spans := boundedRun(t, name)
		if counts["phase3.probe"] != 0 {
			t.Errorf("%s: %d phase3.probe spans, want none", name, counts["phase3.probe"])
		}
		if got := spanAttr(spans, "phase3.reduce-memory", "skipped"); got != "depth-bound" {
			t.Errorf("%s: phase3.reduce-memory skipped=%q, want depth-bound", name, got)
		}
		stages := strconv.Itoa(res.StagesAfter())
		if got := spanAttr(spans, "phase3.reduce-memory", "depth"); got != stages {
			t.Errorf("%s: phase3.reduce-memory depth=%q, want the %s stages it stopped at", name, got, stages)
		}
		if s := passStat(t, res, "phase3"); s.CompileHits+s.CompileMisses != 0 {
			t.Errorf("%s: phase3 looked up %d compiles, want none", name, s.CompileHits+s.CompileMisses)
		}
	}
}

// TestPhase4SkipsAtOneIngressStage: stress ends Phase 2 at one stage, so no
// offload can save one and Phase 4 measures no candidate.
func TestPhase4SkipsAtOneIngressStage(t *testing.T) {
	res, counts, spans := boundedRun(t, "stress")
	if res.StagesAfter() != 1 {
		t.Fatalf("stress ends at %d stages, want 1", res.StagesAfter())
	}
	if counts["phase4.candidate"] != 0 {
		t.Errorf("%d phase4.candidate spans, want none", counts["phase4.candidate"])
	}
	if got := spanAttr(spans, "phase4.offload", "skipped"); got != "one-stage" {
		t.Errorf("phase4.offload skipped=%q, want one-stage", got)
	}
	if s := passStat(t, res, "phase4"); s.CompileHits+s.CompileMisses+s.ProfileHits+s.ProfileMisses != 0 {
		t.Errorf("phase4 looked up %+v, want nothing", s)
	}
}

// TestPhase4RedirectBoundSkipsReplay: maglev's one candidate that saves a
// stage holds lb_hash, applied to most of the trace, so the redirect bound
// refuses it without a replay — and the replay the offload-report ablation
// still makes agrees that it redirects more than Phase 4 accepts. No
// segment is offloaded either way.
func TestPhase4RedirectBoundSkipsReplay(t *testing.T) {
	res, _, spans := boundedRun(t, "maglev")
	if s := passStat(t, res, "phase4"); s.ProfileHits+s.ProfileMisses != 0 {
		t.Errorf("phase4 replayed %d candidates, want none", s.ProfileHits+s.ProfileMisses)
	}
	var bounded []string
	for _, sp := range spans {
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if sp.Name == "phase4.candidate" && attrs["rejected"] == "redirect-bound" {
			bounded = append(bounded, attrs["segment"])
		}
	}
	if len(bounded) == 0 {
		t.Fatal("no phase4.candidate was rejected by the redirect bound")
	}
	for _, o := range res.Observations {
		if o.Kind == "offload-segment" {
			t.Errorf("offloaded %v, want nothing", o.Tables)
		}
	}

	w, _ := workloads.Get("maglev")
	trace, _ := w.Trace(1)
	reports, err := OffloadCandidates(context.Background(), p4.MustParse(w.Source), w.Config(), trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := map[string]CandidateReport{}
	for _, rep := range reports {
		replayed[rep.Segment.Desc] = rep
	}
	for _, desc := range bounded {
		rep, ok := replayed[desc]
		if !ok || rep.RedirectSource != redirectReplay || rep.RedirectFrac <= phase4MaxRedirect {
			t.Errorf("segment %s: the bound refused it, but its replay reads %+v", desc, rep)
		}
	}
}
