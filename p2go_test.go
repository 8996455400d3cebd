package p2go

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
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

// TestTableSetDefaultSurvivesOptimize: a table_set_default override is part
// of the configuration every step runs under — the Phase 1 profile, the
// optimized program's configuration, and the behaviour check.
func TestTableSetDefaultSurvivesOptimize(t *testing.T) {
	prog, err := ParseProgram(programs.Quickstart)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseRules(programs.QuickstartRulesText + "table_set_default routes route 3\n")
	if err != nil {
		t.Fatal(err)
	}
	trace := trafficgen.QuickstartTrace(2000, 1)
	want, err := RunProfile(context.Background(), prog, cfg, trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(prog, cfg, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Drops != want.Drops {
		t.Errorf("Phase 1 profile drops %d packets, the full configuration drops %d", res.Profile.Drops, want.Drops)
	}
	if d := res.OptimizedConfig.DefaultFor("routes"); d == nil || d.Action != "route" || len(d.Args) != 1 || d.Args[0] != 3 {
		t.Errorf("optimized configuration's routes default = %+v, want route 3", d)
	}
	eq, err := VerifyEquivalence(res, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Mismatches != 0 {
		t.Errorf("behaviour check: %s", eq)
	}
}

// TestForeignTableRuleRefusedEverywhere: a rule for a table the program does
// not declare is refused by every surface that takes the rules as given,
// with one error: Optimize validates them against the original program
// before it profiles, as the profile and the behaviour check do.
func TestForeignTableRuleRefusedEverywhere(t *testing.T) {
	const want = `rt: rule 3: unknown table "nosuch"`
	prog, err := ParseProgram(programs.Quickstart)
	if err != nil {
		t.Fatal(err)
	}
	good, err := ParseRules(programs.QuickstartRulesText)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := ParseRules(programs.QuickstartRulesText + "table_add nosuch nop\n")
	if err != nil {
		t.Fatal(err)
	}
	trace := trafficgen.QuickstartTrace(500, 1)
	if _, err := Optimize(prog, bad, trace, Options{}); err == nil || err.Error() != want {
		t.Errorf("Optimize: err = %v, want %s", err, want)
	}
	if _, err := RunProfile(context.Background(), prog, bad, trace, 1); err == nil || err.Error() != want {
		t.Errorf("RunProfile: err = %v, want %s", err, want)
	}
	res, err := Optimize(prog, good, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyEquivalence(res, bad, trace); err == nil || err.Error() != want {
		t.Errorf("VerifyEquivalence: err = %v, want %s", err, want)
	}
}

// TestOffloadFreeRunChecksEquivalent: a schedule that offloads nothing
// leaves the program's own CPU sends to the data plane: the check counts
// them as the notifications they are and hands them to no controller, so
// failure under phase2 alone (its alarms are CPU sends) is equivalent.
func TestOffloadFreeRunChecksEquivalent(t *testing.T) {
	w, err := workloads.Get("failure")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	res, err := Optimize(p4.MustParse(w.Source), cfg, trace, Options{Passes: []string{"phase2"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ControllerProgram != nil {
		t.Fatal("phase2 alone offloaded a segment")
	}
	if res.Profile.ToCPU == 0 {
		t.Fatal("failure sent nothing to the CPU: the check below shows nothing")
	}
	eq, err := VerifyEquivalence(res, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Equivalent() || eq.Redirected != 0 {
		t.Errorf("behavior check: %s, want equivalent with 0 via controller", eq)
	}
}

// TestOwnStandardMetadataRefused: a program that declares standard_metadata
// unlike the builtin is refused when it is checked. An 8-bit egress_spec
// would mask drop()'s 511 to the CPU port, and a 16-bit one would route to
// ports no outcome holds. The builtin declaration itself is accepted.
func TestOwnStandardMetadataRefused(t *testing.T) {
	declare := func(egressSpec int) string {
		return fmt.Sprintf(`
header_type standard_metadata_t {
    fields {
        ingress_port : 9;
        egress_spec : %d;
        egress_port : 9;
        packet_length : 16;
        instance_type : 8;
    }
}
metadata standard_metadata_t standard_metadata;
`, egressSpec)
	}
	const want = "header_type standard_metadata_t: field 1 must be the builtin egress_spec : 9"
	for _, width := range []int{8, 16} {
		if _, err := ParseProgram(declare(width) + programs.Quickstart); err == nil || err.Error() != want {
			t.Errorf("%d-bit egress_spec: err = %v, want %s", width, err, want)
		}
	}
	if _, err := ParseProgram(declare(9) + programs.Quickstart); err != nil {
		t.Errorf("the builtin declaration: %v", err)
	}
}
