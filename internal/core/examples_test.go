package core

// End-to-end reproduction of the paper's Table 3: each evaluation example
// is shortened by (at least) one stage by the phase the paper names.

import (
	"context"
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

// TestTable3NATGRE: Removing Dependencies, 4 -> 3 stages.
func TestTable3NATGRE(t *testing.T) {
	trace := trafficgen.NATGRETrace(trafficgen.NATGRESpec{Seed: 1})
	res, err := Optimize(context.Background(), p4.MustParse(programs.NATGRE), programs.NATGREConfig(), trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore() != 4 || res.StagesAfter() != 3 {
		t.Fatalf("NAT & GRE stages %d -> %d, want 4 -> 3\n%s",
			res.StagesBefore(), res.StagesAfter(), RenderHistory(res.History))
	}
	var accepted []Observation
	for _, o := range res.Observations {
		if o.Accepted {
			accepted = append(accepted, o)
		}
	}
	if len(accepted) != 1 || accepted[0].Phase != PhaseDependencies {
		t.Fatalf("observations = %v, want exactly one dependency removal", accepted)
	}
	if accepted[0].Tables[0] != "nat" || accepted[0].Tables[1] != "gre" {
		t.Errorf("removed dependency %v, want nat -> gre", accepted[0].Tables)
	}
	if len(res.OffloadedTables) != 0 {
		t.Errorf("NAT & GRE should not offload anything, got %v", res.OffloadedTables)
	}
}

// TestTable3Sourceguard: Reducing Memory, 5 -> 4 stages, one register array
// shrunk by 8.4%.
func TestTable3Sourceguard(t *testing.T) {
	trace := trafficgen.SourceguardTrace(trafficgen.SourceguardSpec{Seed: 1})
	res, err := Optimize(context.Background(), p4.MustParse(programs.Sourceguard), programs.SourceguardConfig(), trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore() != 5 || res.StagesAfter() != 4 {
		t.Fatalf("Sourceguard stages %d -> %d, want 5 -> 4\n%s",
			res.StagesBefore(), res.StagesAfter(), RenderHistory(res.History))
	}
	var mem *Observation
	for i := range res.Observations {
		if res.Observations[i].Phase == PhaseMemory && res.Observations[i].Accepted {
			mem = &res.Observations[i]
		}
	}
	if mem == nil {
		t.Fatal("no accepted memory reduction")
	}
	if mem.Kind != "reduce-register" {
		t.Errorf("kind = %s, want reduce-register", mem.Kind)
	}
	if !strings.Contains(mem.Summary, "bf_r1") {
		t.Errorf("summary should name bf_r1: %s", mem.Summary)
	}
	// The paper's headline: a single register array reduced by ~8.4%.
	if !strings.Contains(mem.Summary, "-8.4%") {
		t.Errorf("summary should report the 8.4%% reduction: %s", mem.Summary)
	}
	if got := res.Optimized.Register("bf_r1").InstanceCount; got != programs.SourceguardBFReducedCells {
		t.Errorf("bf_r1 reduced to %d cells, want %d", got, programs.SourceguardBFReducedCells)
	}
	if got := res.Optimized.Register("bf_r2").InstanceCount; got != programs.SourceguardBFCells {
		t.Errorf("bf_r2 changed to %d cells, want untouched %d", got, programs.SourceguardBFCells)
	}
	if len(res.OffloadedTables) != 0 {
		t.Errorf("Sourceguard should not offload anything, got %v", res.OffloadedTables)
	}
}

// TestTable3FailureDetection: Offloading Code, 4 -> 2 stages (the CMS
// branch moves to the controller).
func TestTable3FailureDetection(t *testing.T) {
	trace := trafficgen.FailureTrace(trafficgen.FailureSpec{Seed: 1})
	res, err := Optimize(context.Background(), p4.MustParse(programs.FailureDetection), programs.FailureConfig(), trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore() != 4 || res.StagesAfter() != 2 {
		t.Fatalf("Failure Detection stages %d -> %d, want 4 -> 2\n%s",
			res.StagesBefore(), res.StagesAfter(), RenderHistory(res.History))
	}
	want := map[string]bool{"retrans_cms_1": true, "retrans_cms_2": true, "FailureAlarm": true}
	if len(res.OffloadedTables) != len(want) {
		t.Fatalf("offloaded = %v, want the CMS branch", res.OffloadedTables)
	}
	for _, tbl := range res.OffloadedTables {
		if !want[tbl] {
			t.Errorf("unexpected offloaded table %s", tbl)
		}
	}
	// "Only a few packets use the CMS": the redirect is a small fraction.
	if res.RedirectedFraction <= 0 || res.RedirectedFraction > 0.05 {
		t.Errorf("redirected fraction = %.4f, want (0, 0.05]", res.RedirectedFraction)
	}
	// The alarm fired during profiling (there was a failure in the trace).
	if res.Profile.Hits["FailureAlarm"] == 0 {
		t.Error("trace should trigger the failure alarm")
	}
	if res.Profile.Hits["FailureAlarm"] >= res.Profile.Hits["retrans_cms_1"] {
		t.Error("alarm should match less often than the CMS is used")
	}
}

// TestDoesNotFitStress: §2.2's "what if the program does not fit?" — the
// 14-deep ACL chain exceeds the 12-stage target; Phase 2 folds it into
// nested miss arms until it fits in a single stage.
func TestDoesNotFitStress(t *testing.T) {
	trace := trafficgen.StressTrace(3000, 1)
	res, err := Optimize(context.Background(), p4.MustParse(programs.Stress()), programs.StressConfig(), trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore() != programs.StressChainLength {
		t.Fatalf("initial stages = %d, want %d", res.StagesBefore(), programs.StressChainLength)
	}
	if res.History[0].Fits {
		t.Error("stress program must not fit the 12-stage target initially")
	}
	if res.StagesAfter() != 1 {
		t.Errorf("final stages = %d, want 1\n%s", res.StagesAfter(), RenderHistory(res.History))
	}
	last := res.History[len(res.History)-1]
	if !last.Fits {
		t.Error("optimized stress program should fit")
	}
	removals := 0
	for _, o := range res.Observations {
		if o.Phase == PhaseDependencies && o.Accepted {
			removals++
		}
	}
	if removals != programs.StressChainLength-1 {
		t.Errorf("dependency removals = %d, want %d", removals, programs.StressChainLength-1)
	}
}

// TestQuickstartNoOpportunities: a tight two-stage router has nothing for
// P2GO to optimize — the pipeline reports no accepted observations.
func TestQuickstartNoOpportunities(t *testing.T) {
	trace := trafficgen.QuickstartTrace(1000, 1)
	res, err := Optimize(context.Background(), p4.MustParse(programs.Quickstart), programs.QuickstartConfig(), trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore() != 2 || res.StagesAfter() != 2 {
		t.Errorf("quickstart stages %d -> %d, want 2 -> 2", res.StagesBefore(), res.StagesAfter())
	}
	for _, o := range res.Observations {
		if o.Accepted {
			t.Errorf("unexpected accepted observation: %s", o)
		}
	}
}
