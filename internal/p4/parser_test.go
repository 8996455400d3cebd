package p4

import (
	"strings"
	"testing"
)

const miniProgram = `
header_type ethernet_t {
    fields {
        dstAddr : 48;
        srcAddr : 48;
        etherType : 16;
    }
}
header_type ipv4_t {
    fields {
        version : 4;
        ihl : 4;
        diffserv : 8;
        totalLen : 16;
        identification : 16;
        flags : 3;
        fragOffset : 13;
        ttl : 8;
        protocol : 8;
        hdrChecksum : 16;
        srcAddr : 32;
        dstAddr : 32;
    }
}
header_type meta_t {
    fields {
        idx : 16;
        count : 32;
    }
}
header ethernet_t ethernet;
header ipv4_t ipv4;
metadata meta_t meta;

register counts {
    width : 32;
    instance_count : 1024;
}

field_list flow_fl {
    ipv4.srcAddr;
    ipv4.dstAddr;
}
field_list_calculation flow_hash {
    input {
        flow_fl;
    }
    algorithm : crc16;
    output_width : 16;
}

parser start {
    extract(ethernet);
    return select(ethernet.etherType) {
        0x800 : parse_ipv4;
        default : ingress;
    }
}
parser parse_ipv4 {
    extract(ipv4);
    return ingress;
}

action set_port(port) {
    modify_field(standard_metadata.egress_spec, port);
}
action do_drop() {
    drop();
}
action count_flow() {
    modify_field_with_hash_based_offset(meta.idx, 0, flow_hash, 1024);
    register_read(meta.count, counts, meta.idx);
    add_to_field(meta.count, 1);
    register_write(counts, meta.idx, meta.count);
}

table forward {
    reads {
        ipv4.dstAddr : lpm;
    }
    actions {
        set_port;
        do_drop;
    }
    size : 1024;
    default_action : do_drop;
}
table counter_tbl {
    actions {
        count_flow;
    }
    default_action : count_flow;
}

control ingress {
    if (valid(ipv4)) {
        apply(forward) {
            hit {
                apply(counter_tbl);
            }
        }
    }
}
`

func mustParseAndCheck(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return prog
}

func TestParseMiniProgram(t *testing.T) {
	prog := mustParseAndCheck(t, miniProgram)
	if got := len(prog.Tables); got != 2 {
		t.Fatalf("tables = %d, want 2", got)
	}
	if got := len(prog.Actions); got != 3 {
		t.Fatalf("actions = %d, want 3", got)
	}
	fwd := prog.Table("forward")
	if fwd == nil {
		t.Fatal("table forward not found")
	}
	if fwd.Size != 1024 {
		t.Errorf("forward size = %d, want 1024", fwd.Size)
	}
	if fwd.Reads[0].Kind != MatchLPM {
		t.Errorf("forward read kind = %q, want lpm", fwd.Reads[0].Kind)
	}
	if fwd.DefaultAction != "do_drop" {
		t.Errorf("forward default = %q, want do_drop", fwd.DefaultAction)
	}
	ipv4 := prog.HeaderType("ipv4_t")
	if ipv4 == nil || ipv4.Bits() != 160 {
		t.Errorf("ipv4_t bits = %v, want 160", ipv4)
	}
}

func TestParseHitMissBlocks(t *testing.T) {
	prog := mustParseAndCheck(t, miniProgram)
	ing := prog.Control("ingress")
	ifs, ok := ing.Body.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("first stmt is %T, want *IfStmt", ing.Body.Stmts[0])
	}
	ap, ok := ifs.Then.Stmts[0].(*ApplyStmt)
	if !ok {
		t.Fatalf("then stmt is %T, want *ApplyStmt", ifs.Then.Stmts[0])
	}
	if ap.Hit == nil || ap.Miss != nil {
		t.Fatalf("apply hit=%v miss=%v, want hit set, miss nil", ap.Hit, ap.Miss)
	}
	inner, ok := ap.Hit.Stmts[0].(*ApplyStmt)
	if !ok || inner.Table != "counter_tbl" {
		t.Fatalf("hit block = %#v, want apply(counter_tbl)", ap.Hit.Stmts[0])
	}
}

func TestPrintRoundTrip(t *testing.T) {
	prog := mustParseAndCheck(t, miniProgram)
	printed := Print(prog)
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse printed source: %v\nsource:\n%s", err, printed)
	}
	if err := Check(prog2); err != nil {
		t.Fatalf("recheck printed source: %v", err)
	}
	printed2 := Print(prog2)
	if printed != printed2 {
		t.Errorf("print is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
	if len(prog2.Tables) != len(prog.Tables) || len(prog2.Actions) != len(prog.Actions) {
		t.Errorf("round trip lost declarations")
	}
}

// TestCloneIsDeep states Clone's split: what rewrites edit (registers,
// actions, tables, controls) is copied all the way down, the declaration
// kinds nothing edits after parsing are the same pointers, and the per-kind
// slices are the clone's own either way.
func TestCloneIsDeep(t *testing.T) {
	prog := mustParseAndCheck(t, miniProgram)
	before := Print(prog)
	cp := Clone(prog)
	cp.Table("forward").Size = 7
	if prog.Table("forward").Size != 1024 {
		t.Error("mutating clone affected original table size")
	}
	ing := cp.Control("ingress")
	ing.Body.Stmts = nil
	if len(prog.Control("ingress").Body.Stmts) == 0 {
		t.Error("mutating clone affected original control body")
	}
	if Print(Clone(prog)) != Print(prog) {
		t.Error("clone does not print identically to original")
	}

	// Deep: every edit a pass or the instrumentation makes, in place and by
	// append, on a fresh clone.
	cp = Clone(prog)
	cp.Register("counts").InstanceCount = 1
	act := cp.Action("count_flow")
	act.Body[0].Args[3] = IntLit{Value: 1}
	act.Body[1].Name = PrimNoOp
	act.Body = append(act.Body, &PrimitiveCall{Name: PrimNoOp})
	act.Body[0].Args = append(act.Body[0].Args, IntLit{Value: 2})
	cp.Action("set_port").Params[0] = "p"
	tbl := cp.Table("forward")
	tbl.Reads[0].Kind = MatchExact
	tbl.Reads = append(tbl.Reads, &ReadEntry{Field: FieldRef{Instance: "ipv4", Field: "ttl"}, Kind: MatchExact})
	tbl.ActionNames[0] = "do_drop"
	tbl.ActionNames = append(tbl.ActionNames, "set_port")
	tbl.DefaultAction = "set_port"
	tbl.DefaultArgs = append(tbl.DefaultArgs, IntLit{Value: 3})
	ifs := cp.Control("ingress").Body.Stmts[0].(*IfStmt)
	ifs.Cond.(*ValidExpr).Instance = "ethernet"
	apply := ifs.Then.Stmts[0].(*ApplyStmt)
	apply.Hit.Stmts = append(apply.Hit.Stmts, &ApplyStmt{Table: "forward"})
	apply.Table = "counter_tbl"
	ifs.Then.Stmts = append(ifs.Then.Stmts, &ApplyStmt{Table: "forward"})
	if Print(prog) != before {
		t.Errorf("editing a clone's registers, actions, tables and controls changed the original:\n%s", Print(prog))
	}
	if Print(cp) == before {
		t.Error("the edits did not show in the clone")
	}

	// Shared: the kinds nothing edits are pointer-equal, in slices the clone
	// owns (dropping a declaration from the clone leaves the original whole).
	cp = Clone(prog)
	for _, h := range prog.HeaderTypes {
		if cp.HeaderType(h.Name) != h {
			t.Errorf("header type %s was copied", h.Name)
		}
	}
	for _, in := range prog.Instances {
		if cp.Instance(in.Name) != in {
			t.Errorf("instance %s was copied", in.Name)
		}
	}
	if cp.FieldList("flow_fl") != prog.FieldList("flow_fl") || cp.Calculation("flow_hash") != prog.Calculation("flow_hash") {
		t.Error("field list or calculation was copied")
	}
	for _, ps := range prog.ParserStates {
		if cp.ParserState(ps.Name) != ps {
			t.Errorf("parser state %s was copied", ps.Name)
		}
	}
	for i, d := range prog.Decls {
		switch d.(type) {
		case *Register, *ActionDecl, *TableDecl, *ControlDecl:
			if cp.Decls[i] == d {
				t.Errorf("declaration %s is shared, want a copy", d.declName())
			}
		default:
			if cp.Decls[i] != d {
				t.Errorf("declaration %s was copied, want it shared", d.declName())
			}
		}
	}
	cp.HeaderTypes = cp.HeaderTypes[:0]
	cp.ParserStates[0] = nil
	cp.Decls = cp.Decls[:1]
	if Print(prog) != before || prog.HeaderTypes[0] == nil || prog.ParserStates[0] == nil {
		t.Error("the clone's per-kind slices alias the original's")
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := Lex("table t { size : 0x1F; } // comment\n/* block */ 8w255 &&&")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var kinds []TokenKind
	var ints []uint64
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		if tok.Kind == TokInt {
			ints = append(ints, tok.Int)
		}
	}
	wantInts := []uint64{31, 255}
	if len(ints) != 2 || ints[0] != wantInts[0] || ints[1] != wantInts[1] {
		t.Errorf("ints = %v, want %v", ints, wantInts)
	}
	if kinds[len(kinds)-2] != TokMask {
		t.Errorf("expected &&& token before EOF, got %v", kinds)
	}
}

func TestLexerErrors(t *testing.T) {
	cases := []string{"=", "!", "&", "/* unterminated", "$", "99999999999999999999999999"}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): expected error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown decl":        "frobnicate x;",
		"bad field width":     "header_type h { fields { f : 65; } }",
		"missing actions":     "table t { size : 4; }",
		"bad match kind":      "header_type h { fields { f : 8; } } header h hi; action a() { no_op(); } table t { reads { hi.f : fuzzy; } actions { a; } }",
		"duplicate decl":      "header_type h { fields { f : 8; } } header_type h { fields { g : 8; } }",
		"apply without paren": "control ingress { apply t; }",
		"register no width":   "register r { instance_count : 4; }",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse(%q) expected error", name, src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := map[string]string{
		"unknown table in apply": `
action a() { no_op(); }
control ingress { apply(ghost); }`,
		"table applied twice": `
action a() { no_op(); }
table t { actions { a; } }
control ingress { apply(t); apply(t); }`,
		"unknown action in table": `
table t { actions { ghost; } }
control ingress { apply(t); }`,
		"default not in actions": `
action a() { no_op(); }
action b() { no_op(); }
table t { actions { a; } default_action : b; }
control ingress { apply(t); }`,
		"unknown field in reads": `
header_type h_t { fields { f : 8; } }
header h_t h;
action a() { no_op(); }
table t { reads { h.g : exact; } actions { a; } }
control ingress { apply(t); }`,
		"no ingress": `
action a() { no_op(); }
table t { actions { a; } }
control egress { apply(t); }`,
		"unknown primitive": `
action a() { launch_missiles(); }
control ingress { }`,
		"register_read non register": `
header_type m_t { fields { f : 8; } }
metadata m_t m;
action a() { register_read(m.f, m, 0); }
control ingress { }`,
		"valid on unknown instance": `
action a() { no_op(); }
table t { actions { a; } }
control ingress { if (valid(ghost)) { apply(t); } }`,
		"extract metadata": `
header_type m_t { fields { f : 8; } }
metadata m_t m;
parser start { extract(m); return ingress; }
control ingress { }`,
		"select without default": `
header_type e_t { fields { t : 16; } }
header e_t e;
parser start { extract(e); return select(e.t) { 0x800 : ingress; } }
control ingress { }`,
	}
	for name, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			t.Errorf("%s: unexpected parse error: %v", name, err)
			continue
		}
		if err := Check(prog); err == nil {
			t.Errorf("%s: Check expected error", name)
		}
	}
}

func TestEnsureBuiltinsIdempotent(t *testing.T) {
	prog := mustParseAndCheck(t, miniProgram)
	n := len(prog.Decls)
	EnsureBuiltins(prog)
	EnsureBuiltins(prog)
	if len(prog.Decls) != n {
		t.Errorf("EnsureBuiltins is not idempotent: %d -> %d decls", n, len(prog.Decls))
	}
	if prog.Instance("standard_metadata") == nil {
		t.Error("standard_metadata instance missing")
	}
}

func TestWalkStmtsVisitsNested(t *testing.T) {
	prog := mustParseAndCheck(t, miniProgram)
	tables := TablesInBlock(prog.Control("ingress").Body)
	want := []string{"forward", "counter_tbl"}
	if strings.Join(tables, ",") != strings.Join(want, ",") {
		t.Errorf("TablesInBlock = %v, want %v", tables, want)
	}
}

func TestBoolExprParsing(t *testing.T) {
	src := `
header_type m_t { fields { a : 8; b : 8; } }
metadata m_t m;
action x() { no_op(); }
table t1 { actions { x; } }
table t2 { actions { x; } }
control ingress {
    if ((m.a == 1) and (not (m.b < 2)) or valid(m)) {
        apply(t1);
    } else if (m.a != m.b) {
        apply(t2);
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ifs := prog.Control("ingress").Body.Stmts[0].(*IfStmt)
	or, ok := ifs.Cond.(*BinaryBoolExpr)
	if !ok || or.Op != "or" {
		t.Fatalf("top-level cond = %#v, want or-expression", ifs.Cond)
	}
	and, ok := or.Left.(*BinaryBoolExpr)
	if !ok || and.Op != "and" {
		t.Fatalf("or.Left = %#v, want and-expression", or.Left)
	}
	if _, ok := and.Right.(*NotExpr); !ok {
		t.Fatalf("and.Right = %#v, want not-expression", and.Right)
	}
	if ifs.Else == nil {
		t.Fatal("else branch missing")
	}
}
