package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/workloads"
)

// livenessCase is one hand-written program aimed at an edge of
// fieldLiveness: if the analysis drops a field the program can observe or
// change, the compiled engine's bytes diverge from the interpreter's, which
// re-serializes every field of every valid header.
type livenessCase struct {
	name   string
	source string
	rules  string // rt.Parse text installed at construction
	// install are rules added to both engines after construction, i.e. after
	// the extract and emit lists were built.
	install []rt.Rule
	trailer string
	// packets are the hand-made inputs; every prefix of each one is replayed
	// too (truncation mid-header), next to seeded random bytes.
	packets [][]byte
}

var livenessCases = []livenessCase{
	{
		// h.c is written only by rewrite, and no rule binds rewrite until the
		// Switch is already built.
		name: "write-reachable-only-through-InstallRule",
		source: `
header_type h_t { fields { a : 8; b : 8; c : 16; d : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action fwd(port) { modify_field(standard_metadata.egress_spec, port); }
action rewrite(port, v) { modify_field(h.c, v); modify_field(standard_metadata.egress_spec, port); }
table t { reads { h.a : exact; } actions { fwd; rewrite; } size : 16; }
control ingress { apply(t); }
`,
		rules: "table_add t fwd 1 => 3",
		install: []rt.Rule{{Table: "t", Action: "rewrite", Args: []uint64{4, 0xBEEF},
			Matches: []rt.FieldMatch{{Kind: p4.MatchExact, Value: 2}}}},
		packets: [][]byte{{1, 0x11, 0x22, 0x33, 0x44, 0x55}, {2, 0x11, 0x22, 0x33, 0x44, 0x55}},
	},
	{
		// h.d's only reader is the add_to_field that also writes it.
		name: "add_to_field-on-an-otherwise-unread-field",
		source: `
header_type h_t { fields { a : 8; d : 8; e : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action bump() { add_to_field(h.d, 3); subtract_from_field(h.e, 1); }
table t { actions { bump; } default_action : bump; }
control ingress { apply(t); }
`,
		packets: [][]byte{{9, 0xFE, 0x00, 0x77}, {9, 0x01, 0x80}},
	},
	{
		// Nothing but the checksum's field list reads x, y and z.
		name: "csum16-over-an-otherwise-dead-field-list",
		source: `
header_type h_t { fields { x : 16; y : 16; z : 16; csum : 16; tail : 8; } }
header h_t h;
field_list h_list { h.x; h.y; h.z; }
field_list_calculation h_csum { input { h_list; } algorithm : csum16; output_width : 16; }
calculated_field h.csum { update h_csum; }
parser start { extract(h); return ingress; }
action fwd() { modify_field(standard_metadata.egress_spec, 1); }
table t { actions { fwd; } default_action : fwd; }
control ingress { apply(t); }
`,
		packets: [][]byte{{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0, 0, 0xEE, 0xFF}},
	},
	{
		// One byte, two fields, one of them written: the write-back must not
		// disturb the other nibble, and the unwritten 3-bit neighbours of an
		// unaligned field must survive too.
		name: "nibble-pair-with-one-half-written",
		source: `
header_type n_t { fields { hi : 4; lo : 4; p : 3; q : 10; r : 3; } }
header n_t n;
parser start { extract(n); return ingress; }
action poke() { modify_field(n.lo, 0x5); bit_xor(n.q, n.q, 0x3FF); }
table t { actions { poke; } default_action : poke; }
control ingress { apply(t); }
`,
		packets: [][]byte{{0xA9, 0xC3, 0x5A, 0x01}, {0xFF, 0xFF, 0xFF}, {0x00, 0x00, 0x00}},
	},
	{
		// h is extracted at two different offsets depending on the path, and
		// twice in one packet on the third path: the later extent wins.
		name: "header-extracted-by-two-parser-states",
		source: `
header_type k_t { fields { kind : 8; } }
header_type pad_t { fields { a : 4; b : 12; } }
header_type h_t { fields { u : 8; v : 8; w : 8; } }
header k_t k;
header pad_t pad;
header h_t h;
parser start {
    extract(k);
    return select(k.kind) { 1 : padded; 2 : bare; 3 : twice; default : ingress; }
}
parser padded { extract(pad); extract(h); return ingress; }
parser bare { extract(h); return ingress; }
parser twice { extract(h); return bare; }
action mark() { modify_field(h.v, 0xEE); add_to_field(pad.b, 1); }
table t { actions { mark; } default_action : mark; }
control ingress { apply(t); }
`,
		packets: [][]byte{
			{1, 0xAB, 0xCD, 1, 2, 3, 0x99},
			{2, 1, 2, 3, 0x99},
			{3, 1, 2, 3, 4, 5, 6, 0x99},
			{7, 1, 2, 3},
		},
	},
	{
		// The widest field the parser admits sits unaligned next to a written
		// one, and a trailer that is not all bytes takes the bit-writer path.
		name: "widest-field-and-bitwise-trailer",
		source: `
header_type h_t { fields { a : 4; wide : 64; b : 12; } }
header_type mark_t { fields { x : 3; y : 13; z : 8; } }
header h_t h;
metadata mark_t mark;
parser start { extract(h); return ingress; }
action tag() { modify_field(mark.x, 5); modify_field(mark.y, h.b); modify_field(mark.z, 0x7E); add_to_field(h.a, 1); }
table t { actions { tag; } default_action : tag; }
control ingress { apply(t); }
`,
		trailer: "mark",
		packets: [][]byte{append(bytes.Repeat([]byte{0xC7}, 10), 0x42, 0x43)},
	},
}

// TestLivenessKeepsEnginesByteExact replays each edge-case program on the
// compiled engine and the interpreter: hand-made packets, every truncation
// of them, and seeded random bytes. Output — Data included — must be
// identical, through Process and through the arena-backed batch path.
func TestLivenessKeepsEnginesByteExact(t *testing.T) {
	for _, tc := range livenessCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ast := p4.MustParse(tc.source)
			if err := p4.Check(ast); err != nil {
				t.Fatal(err)
			}
			prog, err := ir.Build(ast)
			if err != nil {
				t.Fatal(err)
			}
			build := func(interpret bool) *Switch {
				cfg, err := rt.Parse(tc.rules)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := New(prog, cfg, Options{Trailer: tc.trailer, Interpret: interpret})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range tc.install {
					if err := sw.InstallRule(r); err != nil {
						t.Fatal(err)
					}
				}
				return sw
			}
			compiled, batch, interp := build(false), build(false), build(true)
			if engine, _ := compiled.Engine(); engine != "compiled" {
				t.Fatalf("engine = %s", engine)
			}

			var ins []Input
			for _, pkt := range tc.packets {
				for cut := 0; cut <= len(pkt); cut++ {
					ins = append(ins, Input{Port: 1, Data: pkt[:cut]})
				}
			}
			rng := rand.New(rand.NewSource(18))
			for i := 0; i < 200; i++ {
				data := make([]byte, rng.Intn(28))
				rng.Read(data)
				if len(data) > 0 && i%2 == 0 {
					data[0] = byte(1 + rng.Intn(3)) // steer the select-driven parsers
				}
				ins = append(ins, Input{Port: uint64(rng.Intn(8)), Data: data})
			}

			outs := make([]Output, len(ins))
			if _, err := batch.ProcessBatch(ins, outs, BatchOpts{SkipExec: true, ReuseData: true}); err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				diffProcess(t, compiled, interp, in, tc.name+" input "+itoa(i))
			}
			// The interpreter has seen every input once more; none of these
			// programs keeps state, so a second pass gives the batch reference.
			for i, in := range ins {
				want, err := interp.Process(in)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(outs[i].Data, want.Data) {
					t.Fatalf("input %d (% x): batch data % x, interpreter % x", i, in.Data, outs[i].Data, want.Data)
				}
			}
		})
	}
}

// TestPlanSkipsDeadFields keeps the optimisation from silently turning off:
// ex1 parses and re-emits full Ethernet/IPv4/TCP/UDP headers but reads and
// writes a handful of their fields, so its lowered extract and emit lists
// must be strictly shorter than the headers' field count.
func TestPlanSkipsDeadFields(t *testing.T) {
	w, err := workloads.Get("ex1")
	if err != nil {
		t.Fatal(err)
	}
	ast := p4.MustParse(w.Source)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlan(prog, w.Config(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := pl.c
	extracted, extractable := 0, 0
	for _, ps := range c.parser {
		for _, op := range ps.ops {
			if !op.extract {
				continue
			}
			extracted += len(op.fields)
			inst := ast.Instances[op.inst]
			extractable += len(ast.HeaderType(inst.TypeName).Fields)
		}
	}
	emitted, emittable := 0, 0
	for _, e := range c.emits {
		emitted += len(e.fields)
	}
	for _, inst := range ast.Instances {
		if !inst.Metadata {
			emittable += len(ast.HeaderType(inst.TypeName).Fields)
		}
	}
	t.Logf("ex1: extracts %d of %d header fields, emits %d of %d", extracted, extractable, emitted, emittable)
	if extracted == 0 || extracted >= extractable {
		t.Errorf("lowered parser extracts %d fields of %d: liveness is not filtering", extracted, extractable)
	}
	if emitted >= emittable {
		t.Errorf("lowered deparser emits %d fields of %d: liveness is not filtering", emitted, emittable)
	}
	if emitted > extracted {
		t.Errorf("emits %d fields but extracts %d: a written field must be extracted", emitted, extracted)
	}
}

// TestProcessAllocatesExecOnce: a caller that wants Output.Exec pays one
// allocation for it (sized from the plan's table count) and one for Data —
// not a slice regrown 1→2→4→8 as ex1's tables are applied.
func TestProcessAllocatesExecOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply to -race builds")
	}
	w, err := workloads.Get("ex1")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	compiled, _ := enginePair(t, w.Source, w.Config())
	var in Input
	applied := 0
	for _, pkt := range trace.Packets {
		out, err := compiled.Process(Input{Port: pkt.Port, Data: pkt.Data})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Exec) > applied {
			in, applied = Input{Port: pkt.Port, Data: pkt.Data}, len(out.Exec)
		}
	}
	if applied < 3 {
		t.Fatalf("ex1's longest path applies %d tables; the test needs a few", applied)
	}
	if allocs := testing.AllocsPerRun(100, func() { compiled.Process(in) }); allocs > 2 {
		t.Errorf("Process: %.0f allocations per packet, want 2 (Exec, Data)", allocs)
	}
}
