package core

import (
	"fmt"
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/tofino"
)

// TestPhase4RedirectCapDisabled: a negative cap admits hot segments; the
// minimum-redirect rule still picks the DNS branch on Ex. 1, so the
// outcome matches the default — but the candidate pool is larger (covered
// via the ablation); here we pin that disabling the cap keeps Table 2.
func TestPhase4RedirectCapDisabled(t *testing.T) {
	res := optimizeEx1(t, Options{Phase4MaxRedirect: Float(-1)})
	if res.StagesAfter() != 3 {
		t.Errorf("stages after = %d, want 3", res.StagesAfter())
	}
}

// TestPhase4RedirectCapTight: a cap below the DNS share (2%) suppresses
// the offload entirely.
func TestPhase4RedirectCapTight(t *testing.T) {
	res := optimizeEx1(t, Options{Phase4MaxRedirect: Float(0.01)})
	if len(res.OffloadedTables) != 0 {
		t.Errorf("offloaded %v despite the 1%% cap", res.OffloadedTables)
	}
	if res.StagesAfter() != 6 {
		t.Errorf("stages after = %d, want 6 (phases 2+3 only)", res.StagesAfter())
	}
}

// TestPhase4MinSavings: requiring 4+ saved stages rejects the DNS branch
// (which saves 3).
func TestPhase4MinSavings(t *testing.T) {
	res := optimizeEx1(t, Options{Phase4MinSavings: Int(4)})
	if len(res.OffloadedTables) != 0 {
		t.Errorf("offloaded %v despite MinSavings=4", res.OffloadedTables)
	}
}

// TestOptionsResolution: nil pointer fields resolve to the documented
// defaults, and an explicit zero is honored as zero — historically
// Phase4MaxRedirect: 0 silently became the 10% default, which made "no
// redirected traffic at all" inexpressible.
func TestOptionsResolution(t *testing.T) {
	m, err := newManager(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.minSavings != 1 {
		t.Errorf("default minSavings = %d, want 1", m.minSavings)
	}
	if m.maxRedirect != defaultPhase4MaxRedirect {
		t.Errorf("default maxRedirect = %v, want %v", m.maxRedirect, defaultPhase4MaxRedirect)
	}
	m, err = newManager(Options{Phase4MinSavings: Int(0), Phase4MaxRedirect: Float(0)})
	if err != nil {
		t.Fatal(err)
	}
	if m.minSavings != 0 {
		t.Errorf("explicit Int(0) minSavings = %d, want 0", m.minSavings)
	}
	if m.maxRedirect != 0 {
		t.Errorf("explicit Float(0) maxRedirect = %v, want 0", m.maxRedirect)
	}
}

// TestPhase4RedirectCapZero: an explicit zero cap means zero — every
// candidate redirects at least the DNS share, so nothing is offloaded.
func TestPhase4RedirectCapZero(t *testing.T) {
	res := optimizeEx1(t, Options{Phase4MaxRedirect: Float(0)})
	if len(res.OffloadedTables) != 0 {
		t.Errorf("offloaded %v despite a zero redirect cap", res.OffloadedTables)
	}
	if res.StagesAfter() != 6 {
		t.Errorf("stages after = %d, want 6 (phases 2+3 only)", res.StagesAfter())
	}
}

// TestTargetOverride: a roomier target dissolves the memory pressure that
// makes IPv4 span stages, so the initial mapping shrinks.
func TestTargetOverride(t *testing.T) {
	tgt := tofino.DefaultTarget()
	tgt.StageSRAMBytes *= 4
	tgt.StageTCAMBytes *= 4
	res, err := New(Options{Target: tgt}).Optimize(p4.MustParse(programs.Ex1), programs.Ex1Config(), enterpriseTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	// IPv4 fits one stage; S1+S2 can share: the dependency structure
	// still forces SM after the sketches and DD after SM.
	if res.StagesBefore() >= 8 {
		t.Errorf("roomier target should start below 8 stages, got %d", res.StagesBefore())
	}
}

// TestObservationDetails: accepted observations carry machine-readable
// details.
func TestObservationDetails(t *testing.T) {
	res := optimizeEx1(t, Options{})
	for _, o := range res.Observations {
		if !o.Accepted {
			continue
		}
		switch o.Kind {
		case "reduce-table", "reduce-register":
			if o.Details["full"] == "" || o.Details["reduced"] == "" || o.Details["reduction"] == "" {
				t.Errorf("memory observation missing details: %v", o.Details)
			}
		case "offload-segment":
			if o.Details["redirected_fraction"] == "" || o.Details["stages_saved"] == "" {
				t.Errorf("offload observation missing details: %v", o.Details)
			}
		case "remove-dependency":
			if o.Details["from"] == "" || o.Details["to"] == "" {
				t.Errorf("dependency observation missing details: %v", o.Details)
			}
		}
	}
}

// TestPhaseLabels: the history labels follow the paper's phase names.
func TestPhaseLabels(t *testing.T) {
	res := optimizeEx1(t, Options{})
	want := []string{"initial", "removing-dependencies", "reducing-memory", "offloading-code"}
	for i, h := range res.History {
		if h.Label != want[i] {
			t.Errorf("history[%d] = %s, want %s", i, h.Label, want[i])
		}
	}
	if PhaseProfiling.String() != "profiling" || PhaseOffload.String() != "offloading-code" {
		t.Error("phase names drifted")
	}
}

// TestReportRendering: the operator-facing report carries the history,
// every observation with evidence, and the offload summary. The plain run
// shows the Sketch_1 rejection; the guard run shows the detectors (its
// extra guard table shifts Phase 3's binary-search landing point, so the
// engineered rejection does not reproduce there — a nice demonstration
// that the optimization trajectory depends on every byte in the stages).
func TestReportRendering(t *testing.T) {
	plain := optimizeEx1(t, Options{}).Report()
	for _, want := range []string{
		"pipeline stages: 8 -> 3",
		"APPLIED",
		"REJECTED",
		"evidence:",
		"offloaded to the controller",
		"Sketch_Min",
	} {
		if !strings.Contains(plain, want) {
			t.Errorf("plain report missing %q:\n%s", want, plain)
		}
	}
	guarded := optimizeEx1(t, Options{InsertDependencyGuards: true}).Report()
	for _, want := range []string{
		"runtime violation detectors",
		"p2go_viol_ACL_DHCP",
	} {
		if !strings.Contains(guarded, want) {
			t.Errorf("guarded report missing %q:\n%s", want, guarded)
		}
	}
}

// TestCompileKeysStable pins compile keys recorded before the hardware
// model's spelling moved into tofino.Target.Key: a moved key orphans every
// spilled "compile:" entry.
func TestCompileKeysStable(t *testing.T) {
	ast := p4.MustParse(programs.Quickstart)
	for _, g := range []struct {
		tgt  tofino.Target
		want string
	}{
		{tofino.DefaultTarget(), "0f0de55b09bdb0def892467bdd192f379a0b56c1c4d331d5bc3983114532b085"},
		{tofino.Target{Stages: 7, StageSRAMBytes: 1000, StageTCAMBytes: 200, MaxTablesPerStage: 3, StageALUs: 5},
			"3aa6b09d2bd8fb3b8bd217c668708e66030544773d28a3baa7ee733ea20e27f2"},
	} {
		if got := fmt.Sprintf("%x", compileKey(ast, g.tgt)); got != g.want {
			t.Errorf("compileKey(quickstart, %s) = %s, want %s", g.tgt.Key(), got, g.want)
		}
	}
}
