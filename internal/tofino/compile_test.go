package tofino

import (
	"fmt"
	"strings"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/programs"
)

func compileEx1(t *testing.T) *Result {
	t.Helper()
	res, err := CompileSource(programs.Ex1, DefaultTarget())
	if err != nil {
		t.Fatalf("compile ex1: %v", err)
	}
	return res
}

// TestEx1InitialMapping pins the paper's Table 2 "Initial Program" row:
// 8 stages, IPv4 spanning stages 1-2, one table per remaining stage.
func TestEx1InitialMapping(t *testing.T) {
	res := compileEx1(t)
	m := res.Mapping
	if m.StagesUsed != 8 {
		t.Fatalf("stages used = %d, want 8\n%s", m.StagesUsed, m.Render())
	}
	if !m.Fits {
		t.Fatal("ex1 should fit the 12-stage target")
	}
	want := map[string][2]int{
		"IPv4":       {1, 2},
		"ACL_UDP":    {3, 3},
		"ACL_DHCP":   {4, 4},
		"Sketch_1":   {5, 5},
		"Sketch_2":   {6, 6},
		"Sketch_Min": {7, 7},
		"DNS_Drop":   {8, 8},
	}
	for table, stages := range want {
		p := m.Placement(table)
		if p == nil {
			t.Fatalf("no placement for %s", table)
		}
		if p.First != stages[0] || p.Last != stages[1] {
			t.Errorf("%s at stages %d-%d, want %d-%d\n%s",
				table, p.First, p.Last, stages[0], stages[1], m.Render())
		}
	}
}

func TestEx1TableCosts(t *testing.T) {
	res := compileEx1(t)
	ipv4 := TableCost(res.IR, res.IR.Tables["IPv4"])
	if ipv4.TCAMBytes != programs.Ex1IPv4Size*8 {
		t.Errorf("IPv4 TCAM = %d, want %d", ipv4.TCAMBytes, programs.Ex1IPv4Size*8)
	}
	if ipv4.RegisterBytes != 0 {
		t.Errorf("IPv4 register bytes = %d, want 0", ipv4.RegisterBytes)
	}
	s1 := TableCost(res.IR, res.IR.Tables["Sketch_1"])
	wantReg := programs.Ex1SketchCells * 4
	if s1.RegisterBytes != wantReg {
		t.Errorf("Sketch_1 register bytes = %d, want %d", s1.RegisterBytes, wantReg)
	}
	if s1.SRAMBytes != wantReg+minTableBytes {
		t.Errorf("Sketch_1 SRAM = %d, want %d", s1.SRAMBytes, wantReg+minTableBytes)
	}
	acl := TableCost(res.IR, res.IR.Tables["ACL_UDP"])
	if acl.SRAMBytes != programs.Ex1ACLSize*6 {
		t.Errorf("ACL_UDP SRAM = %d, want %d", acl.SRAMBytes, programs.Ex1ACLSize*6)
	}
}

// TestEx1ReducedIPv4 verifies the Phase 3 geometry: shrinking IPv4 to 8192
// entries frees a stage (the table no longer spans two stages).
func TestEx1ReducedIPv4(t *testing.T) {
	ast := p4.MustParse(programs.Ex1)
	ast.Table("IPv4").Size = programs.Ex1IPv4ReducedSize
	res, err := Compile(ast, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.StagesUsed != 7 {
		t.Fatalf("stages used = %d, want 7\n%s", res.Mapping.StagesUsed, res.Mapping.Render())
	}
	p := res.Mapping.Placement("IPv4")
	if p.Stages() != 1 {
		t.Errorf("reduced IPv4 spans %d stages, want 1", p.Stages())
	}
	// One entry more and it still spans two stages.
	ast2 := p4.MustParse(programs.Ex1)
	ast2.Table("IPv4").Size = programs.Ex1IPv4ReducedSize + 1
	res2, err := Compile(ast2, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mapping.Placement("IPv4").Stages() != 2 {
		t.Error("IPv4 at reduced size + 1 should still span two stages")
	}
}

// TestEx1RegisterAtomicity: a register bigger than a stage is a hard error.
func TestEx1RegisterAtomicity(t *testing.T) {
	ast := p4.MustParse(programs.Ex1)
	ast.Register("cms_r1").InstanceCount = DefaultTarget().StageSRAMBytes // x4 bytes each: way over
	_, err := Compile(ast, DefaultTarget())
	if err == nil {
		t.Fatal("expected register-too-large error")
	}
	var tooBig *ErrRegisterTooLarge
	if !asErr(err, &tooBig) {
		t.Fatalf("error = %v, want ErrRegisterTooLarge", err)
	}
}

func asErr(err error, target **ErrRegisterTooLarge) bool {
	e, ok := err.(*ErrRegisterTooLarge)
	if ok {
		*target = e
	}
	return ok
}

// TestDoesNotFitStillCompiles: an oversized program yields a mapping with
// Fits == false instead of an error ("P2GO could compile and profile the
// program in simulation, independently of the required resources").
func TestDoesNotFitStillCompiles(t *testing.T) {
	tgt := DefaultTarget()
	tgt.Stages = 4
	res, err := CompileSource(programs.Ex1, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.Fits {
		t.Error("ex1 cannot fit 4 stages")
	}
	if res.Mapping.StagesUsed != 8 {
		t.Errorf("stages used = %d, want 8", res.Mapping.StagesUsed)
	}
}

func TestMappingRenderAndSummary(t *testing.T) {
	res := compileEx1(t)
	r := res.Mapping.Render()
	for _, want := range []string{"stages used: 8", "stage  1: IPv4", "stage  8: DNS_Drop"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
	}
	sum := res.Mapping.Summary()
	if !strings.HasPrefix(sum, "[IPv4][IPv4][ACL_UDP]") {
		t.Errorf("Summary = %s", sum)
	}
}

func TestOccupancy(t *testing.T) {
	res := compileEx1(t)
	occ := res.Mapping.Occupancy()
	if len(occ) != 8 {
		t.Fatalf("occupancy stages = %d, want 8", len(occ))
	}
	if occ[0].TCAMUsed != DefaultTarget().StageTCAMBytes {
		t.Errorf("stage 1 TCAM = %d, want full %d", occ[0].TCAMUsed, DefaultTarget().StageTCAMBytes)
	}
	if occ[4].SRAMUsed != programs.Ex1SketchCells*4+minTableBytes {
		t.Errorf("stage 5 SRAM = %d", occ[4].SRAMUsed)
	}
}

// TestMonotonePlacement: an independent tiny table later in control order
// never lands before the previous table's last stage.
func TestMonotonePlacement(t *testing.T) {
	src := `
header_type m_t { fields { a : 8; b : 8; } }
metadata m_t m;
action wa() { modify_field(m.a, 1); }
action wb() { modify_field(m.b, 1); }
action ra() { modify_field(m.b, m.a); }
table t1 { actions { wa; } default_action : wa; }
table t2 { reads { m.a : exact; } actions { ra; } size : 10000; }
table t3 { actions { wb; } default_action : wb; }
control ingress {
    apply(t1);
    apply(t2);
    apply(t3);
}
`
	res, err := CompileSource(src, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	// t2 depends on t1 (match reads m.a): stage 2. t3 writes m.b which
	// t2's action also writes: WAW, so t3 must be after t2.
	if m.Placement("t1").First != 1 || m.Placement("t2").First != 2 {
		t.Fatalf("placements: %s", m.Summary())
	}
	if m.Placement("t3").First <= m.Placement("t2").Last {
		t.Errorf("t3 must follow t2 (WAW): %s", m.Summary())
	}
}

// TestColocation: independent small tables share a stage.
func TestColocation(t *testing.T) {
	src := `
header_type m_t { fields { a : 8; b : 8; } }
metadata m_t m;
action wa() { modify_field(m.a, 1); }
action wb() { modify_field(m.b, 1); }
table t1 { actions { wa; } default_action : wa; }
table t2 { actions { wb; } default_action : wb; }
control ingress {
    apply(t1);
    apply(t2);
}
`
	res, err := CompileSource(src, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.StagesUsed != 1 {
		t.Errorf("independent tables should co-locate: %s", res.Mapping.Summary())
	}
}

func TestControlPathsInResult(t *testing.T) {
	res := compileEx1(t)
	paths, err := res.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no control paths")
	}
	// Every path that applies DNS_Drop must also apply all three sketch
	// tables (they dominate it in the control flow).
	for _, path := range paths {
		tables := map[string]bool{}
		for _, s := range path {
			tables[s.Table] = true
		}
		if tables["DNS_Drop"] && (!tables["Sketch_1"] || !tables["Sketch_Min"]) {
			t.Errorf("path %s applies DNS_Drop without the sketch", path)
		}
	}
}

// manyTablesSource is n independent tables applied one after another: a
// trivial mapping, and a control graph of 2^n paths.
func manyTablesSource(n int) string {
	var b strings.Builder
	b.WriteString("action a() { no_op(); }\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "table t%d { actions { a; } default_action : a; }\n", i)
	}
	b.WriteString("control ingress {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    apply(t%d);\n", i)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestCompileManyIndependentTables: compiling never enumerates the control
// graph, so a program whose path count exceeds ir.MaxPaths (2^17, 2^24)
// still compiles to its trivial mapping; only the on-demand Paths reports
// the bound.
func TestCompileManyIndependentTables(t *testing.T) {
	for _, n := range []int{17, 24} {
		res, err := CompileSource(manyTablesSource(n), DefaultTarget())
		if err != nil {
			t.Fatalf("%d tables: %v", n, err)
		}
		// 16 tables share a stage on the default target.
		if res.Mapping.StagesUsed != 2 || !res.Mapping.Fits {
			t.Errorf("%d tables: mapping %s, want two stages", n, res.Mapping.Summary())
		}
		if _, err := res.Paths(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%d tables: Paths() = %v, want the MaxPaths error", n, err)
		}
	}
	res, err := CompileSource(manyTablesSource(10), DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if paths, err := res.Paths(); err != nil || len(paths) != 1<<10 {
		t.Errorf("10 tables: %d paths, err %v; want 1024", len(paths), err)
	}
}

// TestPhase2GeometryAfterRewrite verifies that moving ACL_DHCP into
// ACL_UDP's miss arm lets the compiler put both ACLs in one stage,
// shortening the pipeline to 7 stages (Table 2 row 2).
func TestPhase2GeometryAfterRewrite(t *testing.T) {
	src := strings.Replace(programs.Ex1, `
        if (valid(udp)) {
            apply(ACL_UDP);
        }
        if (valid(dhcp)) {
            apply(ACL_DHCP);
        }`, `
        if (valid(udp)) {
            apply(ACL_UDP) {
                miss {
                    if (valid(dhcp)) {
                        apply(ACL_DHCP);
                    }
                }
            }
        }`, 1)
	if src == programs.Ex1 {
		t.Fatal("rewrite did not apply; test fixture out of sync with Ex1 source")
	}
	res, err := CompileSource(src, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mapping
	if m.StagesUsed != 7 {
		t.Fatalf("stages used = %d, want 7\n%s", m.StagesUsed, m.Render())
	}
	au, ad := m.Placement("ACL_UDP"), m.Placement("ACL_DHCP")
	if au.First != 3 || ad.First != 3 {
		t.Errorf("ACLs at %d and %d, want both at 3\n%s", au.First, ad.First, m.Render())
	}
}

// TestPhase3GeometryReducedSketch verifies the other Phase 3 candidate:
// after the Phase 2 rewrite, shrinking Sketch_1 to Ex1ReducedSketchCells
// lets it co-locate with the ACLs, also saving a stage.
func TestPhase3GeometryReducedSketch(t *testing.T) {
	src := strings.Replace(programs.Ex1, `
        if (valid(udp)) {
            apply(ACL_UDP);
        }
        if (valid(dhcp)) {
            apply(ACL_DHCP);
        }`, `
        if (valid(udp)) {
            apply(ACL_UDP) {
                miss {
                    if (valid(dhcp)) {
                        apply(ACL_DHCP);
                    }
                }
            }
        }`, 1)
	ast := p4.MustParse(src)
	ast.Register("cms_r1").InstanceCount = programs.Ex1ReducedSketchCells
	res, err := Compile(ast, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.StagesUsed != 6 {
		t.Fatalf("stages = %d, want 6\n%s", res.Mapping.StagesUsed, res.Mapping.Render())
	}
	if res.Mapping.Placement("Sketch_1").First != 3 {
		t.Errorf("reduced Sketch_1 should co-locate with the ACLs\n%s", res.Mapping.Render())
	}
	// One cell more and it no longer fits with the ACLs.
	ast2 := p4.MustParse(src)
	ast2.Register("cms_r1").InstanceCount = programs.Ex1ReducedSketchCells + 1
	res2, err := Compile(ast2, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mapping.StagesUsed != 7 {
		t.Errorf("sketch at reduced+1 cells should still need 7 stages, got %d", res2.Mapping.StagesUsed)
	}
}

func TestBuildIRFromResult(t *testing.T) {
	res := compileEx1(t)
	var names []string
	for _, tbl := range res.IR.Ordered {
		names = append(names, tbl.Name)
	}
	want := "IPv4,ACL_UDP,ACL_DHCP,Sketch_1,Sketch_2,Sketch_Min,DNS_Drop"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("table order = %s, want %s", got, want)
	}
	if res.Deps.Edge("ACL_UDP", "ACL_DHCP") == nil {
		t.Error("missing ACL dependency edge")
	}
	var _ ir.FieldSet = res.IR.Tables["IPv4"].MatchReads
}

// TestALUConstraint exercises the §6 multi-dimensional resource model: two
// independent tiny tables co-locate with unconstrained ALUs, but a
// per-stage ALU budget smaller than their combined primitive count forces
// a second stage.
func TestALUConstraint(t *testing.T) {
	src := `
header_type m_t { fields { a : 8; b : 8; c : 8; d : 8; } }
metadata m_t m;
action heavy_a() {
    modify_field(m.a, 1);
    modify_field(m.b, 2);
    modify_field(m.c, 3);
}
action heavy_b() {
    modify_field(m.d, 1);
    add_to_field(m.d, 2);
    bit_or(m.d, m.d, 4);
}
table t1 { actions { heavy_a; } default_action : heavy_a; }
table t2 { actions { heavy_b; } default_action : heavy_b; }
control ingress {
    apply(t1);
    apply(t2);
}
`
	// Unconstrained: both share stage 1.
	free, err := CompileSource(src, DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if free.Mapping.StagesUsed != 1 {
		t.Fatalf("unconstrained: %d stages, want 1", free.Mapping.StagesUsed)
	}
	// 4 ALUs per stage: each table needs 3, together 6 > 4.
	tgt := DefaultTarget()
	tgt.StageALUs = 4
	tight, err := CompileSource(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Mapping.StagesUsed != 2 {
		t.Fatalf("ALU-constrained: %d stages, want 2\n%s", tight.Mapping.StagesUsed, tight.Mapping.Render())
	}
	cost := TableCost(tight.IR, tight.IR.Tables["t1"])
	if cost.ALUs != 3 {
		t.Errorf("t1 ALUs = %d, want 3", cost.ALUs)
	}
}

// TestALUDefaultUnconstrained: the calibrated examples are unaffected by
// the ALU dimension at its default.
func TestALUDefaultUnconstrained(t *testing.T) {
	res := compileEx1(t)
	if res.Mapping.StagesUsed != 8 {
		t.Fatalf("ex1 = %d stages with default target, want 8", res.Mapping.StagesUsed)
	}
	if DefaultTarget().StageALUs != 0 {
		t.Error("default target should leave ALUs unconstrained")
	}
}
