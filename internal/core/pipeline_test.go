package core

import (
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

func enterpriseTrace(t testing.TB) *trafficgen.Trace {
	t.Helper()
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return trace
}

func optimizeEx1(t testing.TB, opts Options) *Result {
	t.Helper()
	res, err := New(opts).Optimize(p4.MustParse(programs.Ex1), programs.Ex1Config(), enterpriseTrace(t))
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return res
}

// TestEx1FullPipeline reproduces the paper's Table 2: the Example 1
// firewall shrinks from 8 stages to 7 (dependency removal), 6 (memory
// reduction), and finally 3 (offloading the DNS branch).
func TestEx1FullPipeline(t *testing.T) {
	res := optimizeEx1(t, Options{})
	var stages []int
	var labels []string
	for _, h := range res.History {
		stages = append(stages, h.Stages)
		labels = append(labels, h.Label)
	}
	want := []int{8, 7, 6, 3}
	if len(stages) != 4 {
		t.Fatalf("history = %v %v, want 4 snapshots", labels, stages)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("Table 2 mismatch: %v %v, want %v\n%s", labels, stages, want, RenderHistory(res.History))
		}
	}
	if res.StagesBefore() != 8 || res.StagesAfter() != 3 {
		t.Errorf("before/after = %d/%d, want 8/3", res.StagesBefore(), res.StagesAfter())
	}
}

// TestEx1Phase2Observation pins §3.2's narrative: the ACL_UDP -> ACL_DHCP
// dependency is removed because the drop actions never co-occur.
func TestEx1Phase2Observation(t *testing.T) {
	res := optimizeEx1(t, Options{})
	var dep *Observation
	for i := range res.Observations {
		o := &res.Observations[i]
		if o.Phase == PhaseDependencies && o.Accepted {
			dep = o
			break
		}
	}
	if dep == nil {
		t.Fatal("no accepted dependency-removal observation")
	}
	if dep.Tables[0] != "ACL_UDP" || dep.Tables[1] != "ACL_DHCP" {
		t.Errorf("removed dependency %v, want ACL_UDP -> ACL_DHCP", dep.Tables)
	}
	if dep.StagesBefore != 8 || dep.StagesAfter != 7 {
		t.Errorf("stages %d -> %d, want 8 -> 7", dep.StagesBefore, dep.StagesAfter)
	}
	// The rewritten control flow applies ACL_DHCP in ACL_UDP's miss arm.
	src := p4.Print(res.Optimized)
	if !strings.Contains(src, "miss") {
		t.Errorf("optimized program has no miss arm:\n%s", src)
	}
}

// TestEx1Phase3Narrative pins §3.3: Sketch_1 is tried first (lowest hit
// rate), discarded because the CMS over-counts, then IPv4 is reduced and
// applied.
func TestEx1Phase3Narrative(t *testing.T) {
	res := optimizeEx1(t, Options{})
	var memObs []Observation
	for _, o := range res.Observations {
		if o.Phase == PhaseMemory {
			memObs = append(memObs, o)
		}
	}
	if len(memObs) < 2 {
		t.Fatalf("memory observations = %d, want >= 2 (Sketch_1 rejected + IPv4 applied): %v", len(memObs), memObs)
	}
	first := memObs[0]
	if first.Accepted || first.Tables[0] != "Sketch_1" {
		t.Errorf("first memory candidate = %+v, want rejected Sketch_1", first)
	}
	if !strings.Contains(first.Evidence, "DNS_Drop") {
		t.Errorf("Sketch_1 rejection evidence should cite the DNS_Drop change: %s", first.Evidence)
	}
	var accepted *Observation
	for i := range memObs {
		if memObs[i].Accepted {
			accepted = &memObs[i]
		}
	}
	if accepted == nil {
		t.Fatal("no accepted memory reduction")
	}
	if accepted.Tables[0] != "IPv4" {
		t.Errorf("accepted memory reduction on %v, want IPv4", accepted.Tables)
	}
	if accepted.Details["reduced"] != "8192" {
		t.Errorf("binary search landed at %s entries, want 8192", accepted.Details["reduced"])
	}
	// The optimized program carries the reduced size.
	if got := res.Optimized.Table("IPv4").Size; got != programs.Ex1IPv4ReducedSize {
		t.Errorf("optimized IPv4 size = %d, want %d", got, programs.Ex1IPv4ReducedSize)
	}
}

// TestEx1Phase4Offload pins §3.4 and footnote 3: the whole DNS branch
// (both sketch rows, the min, and the limiter) is offloaded, redirecting
// only the 2% of DNS traffic.
func TestEx1Phase4Offload(t *testing.T) {
	res := optimizeEx1(t, Options{})
	want := map[string]bool{"Sketch_1": true, "Sketch_2": true, "Sketch_Min": true, "DNS_Drop": true}
	if len(res.OffloadedTables) != len(want) {
		t.Fatalf("offloaded = %v, want the DNS branch", res.OffloadedTables)
	}
	for _, tbl := range res.OffloadedTables {
		if !want[tbl] {
			t.Errorf("unexpected offloaded table %s", tbl)
		}
	}
	if res.RedirectedFraction < 0.019 || res.RedirectedFraction > 0.021 {
		t.Errorf("redirected fraction = %.4f, want ~0.02", res.RedirectedFraction)
	}
	// The optimized program contains To_Ctl and none of the DNS tables.
	if res.Optimized.Table(ToCtlTable) == nil {
		t.Error("optimized program lacks To_Ctl")
	}
	for tbl := range want {
		if res.Optimized.Table(tbl) != nil {
			t.Errorf("offloaded table %s still declared", tbl)
		}
	}
	if res.Optimized.Register("cms_r1") != nil {
		t.Error("offloaded register cms_r1 still declared")
	}
	// Rules for offloaded tables are gone from the optimized config.
	for _, rule := range res.OptimizedConfig.Rules {
		if want[rule.Table] {
			t.Errorf("rule for offloaded table %s still present", rule.Table)
		}
	}
}

// TestEx1FinalProfileConsistent: the data-plane behavior of the surviving
// tables is unchanged, and DNS traffic goes to the CPU.
func TestEx1FinalProfileConsistent(t *testing.T) {
	res := optimizeEx1(t, Options{})
	for _, tbl := range []string{"IPv4", "ACL_UDP", "ACL_DHCP"} {
		if res.Profile.Hits[tbl] != res.FinalProfile.Hits[tbl] {
			t.Errorf("%s hits changed: %d -> %d", tbl, res.Profile.Hits[tbl], res.FinalProfile.Hits[tbl])
		}
	}
	if res.FinalProfile.Hits[ToCtlTable] != res.Profile.Hits["Sketch_1"] {
		t.Errorf("To_Ctl hits = %d, want the DNS share %d",
			res.FinalProfile.Hits[ToCtlTable], res.Profile.Hits["Sketch_1"])
	}
	if res.FinalProfile.ToCPU != res.FinalProfile.Hits[ToCtlTable] {
		t.Errorf("ToCPU = %d, want %d", res.FinalProfile.ToCPU, res.FinalProfile.Hits[ToCtlTable])
	}
}

// TestEx1OptimizedPrintsAndReparses: the optimized program is valid source.
func TestEx1OptimizedPrintsAndReparses(t *testing.T) {
	res := optimizeEx1(t, Options{})
	src := p4.Print(res.Optimized)
	reparsed, err := p4.Parse(src)
	if err != nil {
		t.Fatalf("optimized program does not reparse: %v\n%s", err, src)
	}
	if err := p4.Check(reparsed); err != nil {
		t.Fatalf("optimized program does not recheck: %v", err)
	}
}

// TestPhaseDisabling: each phase can be scheduled on its own (§2.2's re-run
// loop).
func TestPhaseDisabling(t *testing.T) {
	onlyP2 := optimizeEx1(t, Options{Passes: []string{"phase2"}})
	if onlyP2.StagesAfter() != 7 {
		t.Errorf("phase 2 only: %d stages, want 7", onlyP2.StagesAfter())
	}
	onlyP3 := optimizeEx1(t, Options{Passes: []string{"phase3"}})
	// Without the dependency removal, shrinking Sketch_1 cannot co-locate
	// it with the ACLs... it can still co-locate with ACL_DHCP's stage.
	// IPv4's reduction alone saves a stage: 8 -> 7.
	if onlyP3.StagesAfter() >= 8 {
		t.Errorf("phase 3 only: %d stages, want < 8", onlyP3.StagesAfter())
	}
	onlyP4 := optimizeEx1(t, Options{Passes: []string{"phase4"}})
	if onlyP4.StagesAfter() >= 8 {
		t.Errorf("phase 4 only: %d stages, want < 8", onlyP4.StagesAfter())
	}
	nothing := optimizeEx1(t, Options{Passes: []string{}})
	if nothing.StagesAfter() != 8 {
		t.Errorf("all phases off: %d stages, want 8", nothing.StagesAfter())
	}
	if len(nothing.Observations) != 0 {
		t.Errorf("all phases off: observations = %v", nothing.Observations)
	}
}

// TestMaxPhase2Removals: the strict one-change-at-a-time mode.
func TestMaxPhase2Removals(t *testing.T) {
	res := optimizeEx1(t, Options{MaxPhase2Removals: 1, Passes: []string{"phase2"}})
	accepted := 0
	for _, o := range res.Observations {
		if o.Phase == PhaseDependencies && o.Accepted {
			accepted++
		}
	}
	if accepted != 1 {
		t.Errorf("accepted removals = %d, want 1", accepted)
	}
}

// TestOffloadFirstAblation reproduces §2.2's phase-ordering argument:
// before dependency removal, offloading the two ACLs saves two stages;
// after Phases 2+3 they share one stage and offloading them saves at most
// one — while the DNS branch stays the minimum-redirect winner throughout.
func TestOffloadFirstAblation(t *testing.T) {
	trace := enterpriseTrace(t)
	opt := New(Options{})
	before, err := opt.OffloadCandidates(p4.MustParse(programs.Ex1), programs.Ex1Config(), trace)
	if err != nil {
		t.Fatal(err)
	}
	aclSavings := func(reports []CandidateReport) int {
		best := 0
		for _, rep := range reports {
			if len(rep.Segment.Tables) == 2 &&
				contains(rep.Segment.Tables, "ACL_UDP") && contains(rep.Segment.Tables, "ACL_DHCP") {
				if rep.StagesSaved > best {
					best = rep.StagesSaved
				}
			}
		}
		return best
	}
	savingsBefore := aclSavings(before)
	if savingsBefore < 2 {
		t.Errorf("offloading both ACLs before phase 2 saves %d stages, want >= 2", savingsBefore)
	}

	// Run phases 2+3, then measure again.
	res := optimizeEx1(t, Options{Passes: []string{"phase2", "phase3"}})
	after, err := opt.OffloadCandidates(res.Optimized, res.OptimizedConfig, trace)
	if err != nil {
		t.Fatal(err)
	}
	savingsAfter := aclSavings(after)
	if savingsAfter >= savingsBefore {
		t.Errorf("ACL offload savings: before=%d after=%d, want a decrease", savingsBefore, savingsAfter)
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestObservationStrings: observations render with their evidence.
func TestObservationStrings(t *testing.T) {
	res := optimizeEx1(t, Options{})
	for _, o := range res.Observations {
		s := o.String()
		if !strings.Contains(s, "evidence:") {
			t.Errorf("observation without evidence: %s", s)
		}
	}
	if len(res.Observations) < 3 {
		t.Errorf("observations = %d, want at least one per phase", len(res.Observations))
	}
}

func TestOptimizeRequiresTrace(t *testing.T) {
	_, err := New(Options{}).Optimize(p4.MustParse(programs.Ex1), programs.Ex1Config(), nil)
	if err == nil {
		t.Error("expected error without a trace")
	}
}
