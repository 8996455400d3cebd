package core

import (
	"context"
	"strings"
	"testing"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

// collectNATGRE optimizes the NAT&GRE workload under a collecting tracer
// and returns the span tree with timing-dependent attrs dropped.
func collectNATGRE(t *testing.T) string {
	t.Helper()
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	trace := trafficgen.NATGRETrace(trafficgen.NATGRESpec{Seed: 1})
	// Parallelism 1 pins span creation (and therefore tree) order; the
	// optimization result itself is parallelism-independent, which
	// TestOptimizeParallelismInvariant checks.
	_, err := New(Options{Context: ctx, Parallelism: 1}).Optimize(
		p4.MustParse(programs.NATGRE), programs.NATGREConfig(), trace)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return col.Tree("packets_per_sec")
}

// TestNATGRESpanTreeGolden pins the exact span tree of a deterministic
// pipeline run: every phase, candidate, probe, and verifying re-profile in
// its nesting position, with its structural attributes. A diff here means
// either the pipeline's control flow changed or its instrumentation did —
// both deserve a deliberate golden update.
func TestNATGRESpanTreeGolden(t *testing.T) {
	const want = `optimize fits=true stages_after=3 stages_before=4
  compile stages=4
  phase1.profile
    profile
      profile.instrument tables=4
        sim.plan calcs_elided=1 fields_extracted=2 fields_total=15 observe=trailer ops_elided=3
      sim.replay dedup=true engine=compiled packets=10000 unique_packets=10000
  phase2.remove-dependencies
    phase2.iteration improved=true iteration=1
      phase2.candidate accepted=true from=nat profile=derived stages=3 to=gre
        compile stages=3
    phase2.iteration improved=false iteration=2
      phase2.candidate from=nat rejected=manifests to=ipv4_fwd
      phase2.candidate from=gre rejected=manifests to=ipv4_fwd
      phase2.candidate from=ipv4_fwd rejected=no-stage-saved to=egress_acl
        compile stages=3
    phase2.audit derived=1
      profile
        profile.instrument tables=4
          sim.plan calcs_elided=1 fields_extracted=2 fields_total=15 observe=trailer ops_elided=3
        sim.replay dedup=true engine=compiled packets=10000 unique_packets=10000
  phase3.reduce-memory
    phase3.iteration improved=false iteration=1
      phase3.probe stages=3 table=nat value=512
        compile stages=3
      phase3.probe stages=3 table=gre value=512
        compile stages=3
      phase3.probe stages=3 table=ipv4_fwd value=1024
        compile stages=3
      phase3.probe stages=3 table=egress_acl value=32
        compile stages=3
  phase4.offload
    phase4.candidate rejected=compile-failed segment=ingress[0:0] tables=nat,gre,ipv4_fwd,egress_acl
      compile
    phase4.candidate rejected=not-self-contained segment=ingress.0.then[0:0] tables=nat,gre
    phase4.candidate rejected=not-self-contained segment=ingress.0.then[0:1] tables=nat,gre,ipv4_fwd
    phase4.candidate rejected=compile-failed segment=ingress.0.then[0:2] tables=nat,gre,ipv4_fwd,egress_acl
      compile
    phase4.candidate rejected=not-self-contained segment=ingress.0.then[1:1] tables=ipv4_fwd
    phase4.candidate rejected=compile-failed segment=ingress.0.then[1:2] tables=ipv4_fwd,egress_acl
      compile
    phase4.candidate rejected=compile-failed segment=ingress.0.then[2:2] tables=egress_acl
      compile
    phase4.candidate rejected=not-self-contained segment=ingress.0.then.0.miss[0:0] tables=gre
`
	got := collectNATGRE(t)
	if got != want {
		t.Errorf("span tree drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSpanTreeDeterministic runs the same optimization twice and demands
// identical span trees — the property the golden test (and the exporters'
// usefulness for diffing runs) rests on.
func TestSpanTreeDeterministic(t *testing.T) {
	first := collectNATGRE(t)
	second := collectNATGRE(t)
	if first != second {
		t.Errorf("same inputs produced different span trees:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestEx1SpanTreeCoversAllPhases checks the running example's trace
// contains the span kinds natgre's short run never reaches: binary-search
// iterations, verification re-profiles, and an applied offload.
func TestEx1SpanTreeCoversAllPhases(t *testing.T) {
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	trace := enterpriseTrace(t)
	_, err := New(Options{Context: ctx}).Optimize(
		p4.MustParse(programs.Ex1), programs.Ex1Config(), trace)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	names := map[string]int{}
	for _, s := range col.Spans() {
		names[s.Name]++
	}
	for _, want := range []string{
		"optimize", "compile", "profile", "profile.instrument", "sim.replay",
		"phase1.profile",
		"phase2.remove-dependencies", "phase2.iteration", "phase2.candidate",
		"phase3.reduce-memory", "phase3.iteration", "phase3.probe",
		"phase3.binary-search", "phase3.verify",
		"phase4.offload", "phase4.candidate", "phase4.apply",
	} {
		if names[want] == 0 {
			t.Errorf("ex1 trace has no %q span (got %v)", want, names)
		}
	}
	// Exactly one root: the optimize span everything else nests under.
	roots := 0
	for _, s := range col.Spans() {
		if s.ParentID == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d root spans, want 1", roots)
	}
	if !strings.HasPrefix(col.Tree(), "optimize") {
		t.Errorf("tree does not start at the optimize span:\n%s", col.Tree())
	}
}
