package core

import (
	"context"
	"strings"
	"testing"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/workloads"
)

const rewriteFixture = `
header_type m_t { fields { a : 8; b : 8; } }
metadata m_t m;
register reg { width : 32; instance_count : 100; }
field_list fl { m.a; }
field_list_calculation calc {
    input { fl; }
    algorithm : crc16;
    output_width : 16;
}
action act_a() { drop(); }
action act_b() { drop(); }
action act_c() { drop(); }
action act_reg() {
    modify_field_with_hash_based_offset(m.b, 0, calc, 100);
    register_write(reg, m.b, 1);
}
table t_a { reads { m.a : exact; } actions { act_a; } size : 4; }
table t_b { reads { m.a : exact; } actions { act_b; } size : 4; }
table t_c { reads { m.b : exact; } actions { act_c; } size : 4; }
table t_reg { actions { act_reg; } default_action : act_reg; }
control ingress {
    apply(t_a);
    if (m.a == 1) {
        apply(t_b);
    } else {
        if (m.b == 2) {
            apply(t_c);
        }
    }
    apply(t_reg);
}
`

func parseFixture(t *testing.T) *p4.Program {
	t.Helper()
	ast := p4.MustParse(rewriteFixture)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	return ast
}

func TestFindApplyPathDepths(t *testing.T) {
	ast := parseFixture(t)
	body := ast.Control(p4.IngressControl).Body
	if path := findApplyPath(body, "t_a"); len(path) != 1 {
		t.Errorf("t_a path depth = %d, want 1", len(path))
	}
	if path := findApplyPath(body, "t_b"); len(path) != 2 {
		t.Errorf("t_b path depth = %d, want 2", len(path))
	}
	path := findApplyPath(body, "t_c")
	if len(path) != 3 {
		t.Fatalf("t_c path depth = %d, want 3", len(path))
	}
	// t_c is reached through the else arm, then a then arm.
	if path[1].ifCond == nil || !path[1].negated {
		t.Error("t_c's first nested enclosure should be a negated if arm")
	}
	if path[2].ifCond == nil || path[2].negated {
		t.Error("t_c's second nested enclosure should be a plain then arm")
	}
	if findApplyPath(body, "ghost") != nil {
		t.Error("unknown table should yield nil path")
	}
}

func TestMoveIntoMissArmPreservesGuards(t *testing.T) {
	ast := parseFixture(t)
	// Move t_c (guarded by NOT(m.a==1) and m.b==2) into t_a's miss arm.
	if _, err := moveIntoMissArm(ast, "t_a", "t_c", false); err != nil {
		t.Fatal(err)
	}
	if err := p4.Check(ast); err != nil {
		t.Fatalf("rewritten program fails check: %v", err)
	}
	src := p4.Print(ast)
	if !strings.Contains(src, "miss") {
		t.Fatalf("no miss arm:\n%s", src)
	}
	// Both guards are preserved, the outer one negated.
	if !strings.Contains(src, "not (m.a == 1)") {
		t.Errorf("negated outer guard missing:\n%s", src)
	}
	if !strings.Contains(src, "m.b == 2") {
		t.Errorf("inner guard missing:\n%s", src)
	}
	// t_c is no longer in the else arm.
	path := findApplyPath(ast.Control(p4.IngressControl).Body, "t_c")
	foundMissArm := false
	for _, enc := range path {
		if enc.viaApply == "t_a" && !enc.onHit {
			foundMissArm = true
		}
	}
	if !foundMissArm {
		t.Error("t_c should now live in t_a's miss arm")
	}
}

func TestMoveIntoMissArmRejectsNesting(t *testing.T) {
	src := `
header_type m_t { fields { a : 8; } }
metadata m_t m;
action x() { drop(); }
action y() { drop(); }
table outer { reads { m.a : exact; } actions { x; } size : 4; }
table inner { reads { m.a : exact; } actions { y; } size : 4; }
control ingress {
    apply(outer) {
        hit { apply(inner); }
    }
}
`
	ast := p4.MustParse(src)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	if _, err := moveIntoMissArm(ast, "outer", "inner", false); err == nil {
		t.Error("nested tables must be rejected")
	}
}

func TestMoveIntoMissArmRejectsHitMissGuards(t *testing.T) {
	src := `
header_type m_t { fields { a : 8; } }
metadata m_t m;
action x() { drop(); }
action y() { drop(); }
action z() { drop(); }
table t0 { reads { m.a : exact; } actions { x; } size : 4; }
table t1 { reads { m.a : exact; } actions { y; } size : 4; }
table t2 { reads { m.a : exact; } actions { z; } size : 4; }
control ingress {
    apply(t0);
    apply(t1) {
        hit { apply(t2); }
    }
}
`
	ast := p4.MustParse(src)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	// t2 sits in t1's hit arm: not expressible as a condition at t0.
	if _, err := moveIntoMissArm(ast, "t0", "t2", false); err == nil {
		t.Error("hit/miss-guarded target must be rejected")
	}
}

func TestKnobForAndApply(t *testing.T) {
	ast := parseFixture(t)
	// Match-entry knob.
	knob, ok := knobFor(ast, "t_a")
	if !ok || knob.register != "" || knob.full != 4 {
		t.Fatalf("t_a knob = %+v, %v", knob, ok)
	}
	if err := applyKnob(ast, knob, 2); err != nil {
		t.Fatal(err)
	}
	if ast.Table("t_a").Size != 2 {
		t.Errorf("t_a size = %d, want 2", ast.Table("t_a").Size)
	}
	// Register knob rewrites the hash modulus too.
	rknob, ok := knobFor(ast, "t_reg")
	if !ok || rknob.register != "reg" || rknob.full != 100 {
		t.Fatalf("t_reg knob = %+v, %v", rknob, ok)
	}
	if err := applyKnob(ast, rknob, 60); err != nil {
		t.Fatal(err)
	}
	if ast.Register("reg").InstanceCount != 60 {
		t.Errorf("reg cells = %d, want 60", ast.Register("reg").InstanceCount)
	}
	var mod uint64
	for _, call := range ast.Action("act_reg").Body {
		if call.Name == p4.PrimHashOffset {
			mod = call.Args[3].(p4.IntLit).Value
		}
	}
	if mod != 60 {
		t.Errorf("hash modulus = %d, want 60 (must track the register size)", mod)
	}
	// No knob for a read-less, register-less table.
	srcTiny := `
action a() { no_op(); }
table t { actions { a; } default_action : a; }
control ingress { apply(t); }
`
	tiny := p4.MustParse(srcTiny)
	if err := p4.Check(tiny); err != nil {
		t.Fatal(err)
	}
	if _, ok := knobFor(tiny, "t"); ok {
		t.Error("read-less table without registers has no memory knob")
	}
}

func TestFixHashModulusMismatch(t *testing.T) {
	ast := parseFixture(t)
	// Corrupt the modulus so it no longer matches the register size.
	for _, call := range ast.Action("act_reg").Body {
		if call.Name == p4.PrimHashOffset {
			call.Args[3] = p4.IntLit{Value: 999}
		}
	}
	knob, _ := knobFor(ast, "t_reg")
	if err := applyKnob(ast, knob, 50); err == nil {
		t.Error("mismatched hash modulus must be rejected")
	}
}

// TestMaglevSharedHashIndexIsNotAKnob: maglev hashes one index,
// lb_meta.idx, in lb_hash's action and uses it for conn_sig and
// conn_backend in two other tables. Halving either register alone would
// leave that modulus behind and the replay out of range, so neither is a
// Phase 3 knob: no candidate reaches a verify replay, and no evidence
// blames the installed rules.
func TestMaglevSharedHashIndexIsNotAKnob(t *testing.T) {
	w, err := workloads.Get("maglev")
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
	for _, s := range col.Spans() {
		if s.Name == "phase3.verify" {
			t.Errorf("phase3.verify replayed a candidate: %v", s.Attrs)
		}
	}
	for _, o := range res.Observations {
		if strings.Contains(o.Evidence, "cannot run the provided configuration") {
			t.Errorf("observation %q: %s", o.Summary, o.Evidence)
		}
	}
}

func TestPruneUnused(t *testing.T) {
	ast := parseFixture(t)
	// Remove t_reg's apply: its action, register, calc, and field list
	// become unreachable.
	body := ast.Control(p4.IngressControl).Body
	body.Stmts = body.Stmts[:len(body.Stmts)-1]
	pruneUnused(ast)
	if ast.Table("t_reg") != nil {
		t.Error("unapplied table survived pruning")
	}
	if ast.Action("act_reg") != nil {
		t.Error("unreferenced action survived pruning")
	}
	if ast.Register("reg") != nil {
		t.Error("unreferenced register survived pruning")
	}
	if ast.Calculation("calc") != nil || ast.FieldList("fl") != nil {
		t.Error("unreferenced calculation/field list survived pruning")
	}
	// Still a valid program.
	if err := p4.Check(ast); err != nil {
		t.Fatalf("pruned program fails check: %v", err)
	}
	if ast.Table("t_a") == nil || ast.Action("act_a") == nil {
		t.Error("pruning removed live declarations")
	}
}

func TestEnumerateSegmentsDeterministic(t *testing.T) {
	ast := p4.MustParse(programs.Ex1)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	a := enumerateSegments(ast)
	b := enumerateSegments(p4.Clone(ast))
	if len(a) != len(b) {
		t.Fatalf("segment counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if strings.Join(a[i].Tables, ",") != strings.Join(b[i].Tables, ",") || a[i].Desc != b[i].Desc {
			t.Fatalf("segment %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// locate agrees with the enumeration, in the program and in a clone.
	clone := p4.Clone(ast)
	for _, prog := range []*p4.Program{ast, clone} {
		for _, seg := range a {
			block, err := seg.locate(prog)
			if err != nil {
				t.Fatalf("locate(%s): %v", seg.Desc, err)
			}
			if got := strings.Join(tablesInRun(block, seg.lo, seg.hi), ","); got != strings.Join(seg.Tables, ",") {
				t.Fatalf("segment %s: located %s, enumerated %s", seg.Desc, got, strings.Join(seg.Tables, ","))
			}
		}
	}
}

// TestLocateRefusesDivergedClone is the clone-divergence guard: a segment
// whose recorded path or bounds name something else in the program it is
// located in — a deliberately wrong path, the other arm, bounds past the
// block, a clone whose control tree was edited — is an error,
// never a different segment.
func TestLocateRefusesDivergedClone(t *testing.T) {
	ast := p4.MustParse(programs.Ex1)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	segs := enumerateSegments(ast)
	var nested Segment
	for _, seg := range segs {
		if len(seg.path) > 0 {
			nested = seg
			break
		}
	}
	if nested.path == nil {
		t.Fatal("ex1 has no nested segment")
	}
	mutate := map[string]func(*Segment){
		"sibling statement":        func(s *Segment) { s.path = []blockStep{{s.path[0].stmt + 1, s.path[0].child}} },
		"statement past the block": func(s *Segment) { s.path = []blockStep{{99, s.path[0].child}} },
		"the other arm":            func(s *Segment) { s.path = []blockStep{{s.path[0].stmt, 1 - s.path[0].child}} },
		"deeper than the tree":     func(s *Segment) { s.path = append(s.path[:len(s.path):len(s.path)], blockStep{0, 0}, blockStep{0, 0}) },
		"shifted bounds":           func(s *Segment) { s.lo, s.hi = s.lo+1, s.hi+1 },
		"bounds past the block":    func(s *Segment) { s.hi = 99 },
		"root instead of nested":   func(s *Segment) { s.path = nil },
	}
	for name, edit := range mutate {
		seg := nested
		edit(&seg)
		if _, err := seg.locate(ast); err == nil {
			t.Errorf("%s: locate found a segment for a wrong path", name)
		}
	}
	// A clone whose tree was edited after the enumeration.
	clone := p4.Clone(ast)
	body := clone.Control(p4.IngressControl).Body
	body.Stmts = body.Stmts[1:]
	refused := 0
	for _, seg := range segs {
		if _, err := seg.locate(clone); err != nil {
			if !strings.Contains(err.Error(), "diverged") {
				t.Errorf("%s: error %q does not name the divergence", seg.Desc, err)
			}
			refused++
		}
	}
	if refused == 0 {
		t.Error("no segment was refused in a clone with a statement removed")
	}
	r := &run{cur: clone}
	if _, err := r.rewriteOffload(nested); err == nil {
		t.Error("rewriteOffload rewrote a diverged clone")
	}
}

func TestGuardNamesAndBuild(t *testing.T) {
	ast := parseFixture(t)
	g, stmt, err := buildDependencyGuard(ast, "t_a", "t_b")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Table != g.Table {
		t.Error("guard apply references a different table")
	}
	if err := p4.Check(ast); err != nil {
		t.Fatalf("program with guard decls fails check: %v", err)
	}
	// Second guard for another pair shares the metadata header.
	if _, _, err := buildDependencyGuard(ast, "t_a", "t_c"); err != nil {
		t.Fatal(err)
	}
	ht := ast.HeaderType(guardMetaType)
	if ht == nil || len(ht.Fields) != 2 {
		t.Errorf("guard metadata fields = %v, want 2", ht)
	}
	// Duplicate guard is rejected.
	if _, _, err := buildDependencyGuard(ast, "t_a", "t_b"); err == nil {
		t.Error("duplicate guard must be rejected")
	}
}
