package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/packet"
	"p2go/internal/programs"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// phase4Pool is every offload candidate of the program Phases 2+3 leave on
// the trace: the pool Phase 4 picks its winner from.
func phase4Pool(t *testing.T, trace *trafficgen.Trace) []CandidateReport {
	t.Helper()
	ctx := context.Background()
	res, err := Optimize(ctx, p4.MustParse(programs.Ex1), programs.Ex1Config(), trace, Options{Passes: []string{"phase2", "phase3"}})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := OffloadCandidates(ctx, res.Optimized, res.OptimizedConfig, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestPhase4MinSavings: on Ex. 1, DNS_Drop alone redirects half the DNS
// branch's traffic but saves no stage, so Phase 4 must pass it over for the
// whole branch.
func TestPhase4MinSavings(t *testing.T) {
	trace := enterpriseTrace(t)
	var dropOnly *CandidateReport
	for _, rep := range phase4Pool(t, trace) {
		if len(rep.Segment.Tables) == 1 && rep.Segment.Tables[0] == "DNS_Drop" {
			dropOnly = &rep
		}
	}
	if dropOnly == nil || dropOnly.StagesSaved != 0 || dropOnly.Redirected != 200 {
		t.Fatalf("DNS_Drop candidate = %+v, want 0 stages saved and 200 packets redirected", dropOnly)
	}
	res := optimizeEx1(t, Options{})
	if got := res.OffloadedTables; len(got) != 4 || got[3] != "DNS_Drop" {
		t.Errorf("offloaded %v, want the whole DNS branch", got)
	}
	if res.StagesAfter() != 3 {
		t.Errorf("stages after = %d, want 3", res.StagesAfter())
	}
}

// TestPhase4RedirectCap: on a trace where DNS is a sixth of the traffic,
// the DNS branch still saves stages but is no longer rarely used, so
// nothing is offloaded.
func TestPhase4RedirectCap(t *testing.T) {
	trace := &trafficgen.Trace{}
	other := 0
	for _, p := range enterpriseTrace(t).Packets {
		v, err := packet.Decode(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		if v.DNS == nil {
			if other++; other%10 != 0 {
				continue
			}
		}
		trace.Packets = append(trace.Packets, p)
	}
	saving := 0
	for _, rep := range phase4Pool(t, trace) {
		if rep.StagesSaved >= 1 {
			saving++
			if rep.RedirectFrac <= phase4MaxRedirect {
				t.Errorf("candidate %v redirects only %.3f of the trace", rep.Segment.Tables, rep.RedirectFrac)
			}
		}
	}
	if saving == 0 {
		t.Fatal("no candidate saves a stage; the cap is not what rejects them")
	}
	res, err := Optimize(context.Background(), p4.MustParse(programs.Ex1), programs.Ex1Config(), trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OffloadedTables) != 0 {
		t.Errorf("offloaded %v despite the 10%% cap", res.OffloadedTables)
	}
}

// TestTargetOverride: a roomier target dissolves the memory pressure that
// makes IPv4 span stages, so the initial mapping shrinks.
func TestTargetOverride(t *testing.T) {
	tgt := tofino.DefaultTarget()
	tgt.StageSRAMBytes *= 4
	tgt.StageTCAMBytes *= 4
	res, err := Optimize(context.Background(), p4.MustParse(programs.Ex1), programs.Ex1Config(), enterpriseTrace(t), Options{Target: tgt})
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
