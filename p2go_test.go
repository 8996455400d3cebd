package p2go

import (
	"context"
	"strings"
	"testing"

	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

// TestFacadeQuickstart exercises the whole public API surface the way the
// README's quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	prog, err := ParseProgram(programs.Quickstart)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseRules(programs.QuickstartRulesText)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Compile(prog, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Mapping.StagesUsed != 2 {
		t.Errorf("quickstart stages = %d, want 2", compiled.Mapping.StagesUsed)
	}
	trace := trafficgen.QuickstartTrace(500, 1)
	prof, err := RunProfile(context.Background(), prog, cfg, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prof.TotalPackets != 500 {
		t.Errorf("profiled %d packets, want 500", prof.TotalPackets)
	}
	res, err := Optimize(prog, cfg, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := VerifyEquivalence(res, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Equivalent() {
		t.Errorf("quickstart equivalence failed: %s", report)
	}
	if h := RenderHistory(res.History); !strings.Contains(h, "initial") {
		t.Errorf("RenderHistory output: %s", h)
	}
}

// TestFacadeEx1EndToEnd is the headline path through the facade: Table 2's
// 8 -> 3 plus equivalence and controller construction.
func TestFacadeEx1EndToEnd(t *testing.T) {
	prog, err := ParseProgram(programs.Ex1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := programs.Ex1Config()
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(prog, cfg, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore() != 8 || res.StagesAfter() != 3 {
		t.Fatalf("stages %d -> %d, want 8 -> 3", res.StagesBefore(), res.StagesAfter())
	}
	report, err := VerifyEquivalence(res, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Equivalent() {
		t.Fatalf("equivalence failed: %s", report)
	}
	ctl, err := NewController(res.ControllerProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctl == nil {
		t.Fatal("nil controller")
	}
	// Round-trip the optimized artifacts.
	if _, err := ParseProgram(PrintProgram(res.Optimized)); err != nil {
		t.Errorf("optimized program round trip: %v", err)
	}
	if _, err := ParseRules(FormatRules(res.OptimizedConfig)); err != nil {
		t.Errorf("optimized config round trip: %v", err)
	}
}

func TestParseProgramRejectsBadSource(t *testing.T) {
	if _, err := ParseProgram("table t {}"); err == nil {
		t.Error("expected parse/check error")
	}
	if _, err := ParseProgram("action a() { no_op(); } table t { actions { a; } } control egress { apply(t); }"); err == nil {
		t.Error("expected check error (no ingress)")
	}
}
