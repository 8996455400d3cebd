package main

import (
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/tofino"
)

// TestP5AllFeaturesUsedSavesNothing pins the paper's comparison: when the
// operator needs every feature (the Ex. 1 situation), P5 cannot shorten
// the pipeline at all — while P2GO takes the same program from 8 to 3
// stages by profiling.
func TestP5AllFeaturesUsedSavesNothing(t *testing.T) {
	policy := newP5Policy(ex1Features())
	res, err := p5Optimize(p4.MustParse(programs.Ex1), policy, tofino.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore != 8 {
		t.Errorf("stages before = %d, want 8", res.StagesBefore)
	}
	if res.StagesAfter != res.StagesBefore {
		t.Errorf("P5 with all features used: %d -> %d, want no change", res.StagesBefore, res.StagesAfter)
	}
	if len(res.RemovedTables) != 0 {
		t.Errorf("removed = %v, want none", res.RemovedTables)
	}
}

// TestP5RemovesUnusedFeature: when the policy declares the DNS limiter
// unused, P5 deactivates the whole block — the coarse-grained case it does
// handle.
func TestP5RemovesUnusedFeature(t *testing.T) {
	policy := newP5Policy(ex1Features())
	if err := policy.SetUsed("dns-limit", false); err != nil {
		t.Fatal(err)
	}
	res, err := p5Optimize(p4.MustParse(programs.Ex1), policy, tofino.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesAfter >= res.StagesBefore {
		t.Errorf("stages %d -> %d, want a reduction", res.StagesBefore, res.StagesAfter)
	}
	// The DNS tables and the guarding condition are gone.
	for _, tbl := range []string{"Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"} {
		if res.Optimized.Table(tbl) != nil {
			t.Errorf("table %s should have been removed", tbl)
		}
	}
	src := p4.Print(res.Optimized)
	reparsed, err := p4.Parse(src)
	if err != nil {
		t.Fatalf("optimized program does not reparse: %v\n%s", err, src)
	}
	if err := p4.Check(reparsed); err != nil {
		t.Fatalf("optimized program does not recheck: %v", err)
	}
	// Removing the whole branch frees the four DNS stages: 8 -> 4.
	if res.StagesAfter != 4 {
		t.Errorf("stages after = %d, want 4", res.StagesAfter)
	}
}

// TestP5CannotRemoveManifestFreeDependency: deactivating nothing leaves the
// ACL dependency in place — P5 has no mechanism to reorder or predicate
// tables, which is exactly P2GO's Phase 2 advantage.
func TestP5CannotRemoveManifestFreeDependency(t *testing.T) {
	policy := newP5Policy(map[string][]string{
		"nat": {"nat"},
		"gre": {"gre"},
		"fwd": {"ipv4_fwd", "egress_acl"},
	})
	res, err := p5Optimize(p4.MustParse(programs.NATGRE), policy, tofino.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesAfter != 4 {
		t.Errorf("P5 on NAT&GRE: %d stages, want 4 (cannot remove the dependency)", res.StagesAfter)
	}
}

func TestPolicyUnknownFeature(t *testing.T) {
	policy := newP5Policy(ex1Features())
	if err := policy.SetUsed("nonexistent", false); err == nil {
		t.Error("expected error for unknown feature")
	}
}

// TestP5GuardedBlockRemoval: deactivating a feature nested under an if
// removes the now-empty condition too.
func TestP5GuardedBlockRemoval(t *testing.T) {
	policy := newP5Policy(ex1Features())
	if err := policy.SetUsed("dns-limit", false); err != nil {
		t.Fatal(err)
	}
	res, err := p5Optimize(p4.MustParse(programs.Ex1), policy, tofino.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	src := p4.Print(res.Optimized)
	if strings.Contains(src, "valid(dns)") {
		t.Errorf("empty valid(dns) guard should have been removed:\n%s", src)
	}
}

// BenchmarkP5Baseline (ABL3): the policy-driven baseline saves nothing on
// Ex. 1 while P2GO takes it from 8 to 3 stages.
func BenchmarkP5Baseline(b *testing.B) {
	policy := newP5Policy(ex1Features())
	var res *p5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = p5Optimize(p4.MustParse(programs.Ex1), policy, tofino.DefaultTarget())
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesAfter != res.StagesBefore {
			b.Fatalf("P5 changed the pipeline: %d -> %d", res.StagesBefore, res.StagesAfter)
		}
	}
	b.ReportMetric(float64(res.StagesBefore), "p5_stages_before")
	b.ReportMetric(float64(res.StagesAfter), "p5_stages_after")
}
