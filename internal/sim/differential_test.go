package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/workloads"
)

// enginePair builds a compiled and an interpreter Switch over the same
// program and rules, failing the test if the program did not lower (every
// bundled workload must).
func enginePair(t *testing.T, source string, cfg *rt.Config) (compiled, interp *Switch) {
	t.Helper()
	ast := p4.MustParse(source)
	if err := p4.Check(ast); err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := ir.Build(ast)
	if err != nil {
		t.Fatalf("ir: %v", err)
	}
	compiled, err = New(prog, cfg, Options{})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	if engine, reason := compiled.Engine(); engine != "compiled" {
		t.Fatalf("program did not lower: engine=%s reason=%q", engine, reason)
	}
	interp, err = New(prog, cfg, Options{Interpret: true})
	if err != nil {
		t.Fatalf("sim.New (interpret): %v", err)
	}
	if engine, reason := interp.Engine(); engine != "interpreter" || reason != "forced" {
		t.Fatalf("Interpret switch reports engine=%s reason=%q", engine, reason)
	}
	return compiled, interp
}

// diffProcess runs one input through both engines and fails on any
// divergence — output (including Data and Exec) or error string.
func diffProcess(t *testing.T, compiled, interp *Switch, in Input, label string) {
	t.Helper()
	co, cerr := compiled.Process(in)
	io, ierr := interp.Process(in)
	if (cerr == nil) != (ierr == nil) {
		t.Fatalf("%s: compiled err=%v, interpreter err=%v", label, cerr, ierr)
	}
	if cerr != nil {
		if cerr.Error() != ierr.Error() {
			t.Fatalf("%s: error strings diverge:\ncompiled:    %v\ninterpreter: %v", label, cerr, ierr)
		}
		return
	}
	if !reflect.DeepEqual(co, io) {
		t.Fatalf("%s: outputs diverge:\ncompiled:    %+v\ninterpreter: %+v", label, co, io)
	}
}

// TestCompiledMatchesInterpreterOnWorkloads is the primary differential
// harness: every bundled workload's calibrated trace, packet by packet,
// must produce bit-identical Output (port, data, drop flags, execution
// trace) from the compiled engine and the tree-walking interpreter.
// Register state evolves in lockstep, so stateful programs (sketches,
// Bloom filters) are covered too, not just stateless forwarding.
func TestCompiledMatchesInterpreterOnWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := w.Trace(1)
			if err != nil {
				t.Fatal(err)
			}
			compiled, interp := enginePair(t, w.Source, w.Config())
			for i, pkt := range trace.Packets {
				diffProcess(t, compiled, interp, Input{Port: pkt.Port, Data: pkt.Data},
					name+" packet "+itoa(i))
			}
		})
	}
}

// TestCompiledMatchesInterpreterOnRandomPackets feeds both engines inputs
// no calibrated trace contains: seeded random bytes of random lengths
// (most of which fail or truncate parsing) and trace packets truncated at
// every interesting boundary. Divergence in the error path is as much a
// bug as divergence in the happy path.
func TestCompiledMatchesInterpreterOnRandomPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			compiled, interp := enginePair(t, w.Source, w.Config())
			for i := 0; i < 200; i++ {
				data := make([]byte, rng.Intn(96))
				rng.Read(data)
				in := Input{Port: uint64(rng.Intn(512)), Data: data}
				diffProcess(t, compiled, interp, in, name+" random "+itoa(i))
			}
			trace, err := w.Trace(3)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50 && i < len(trace.Packets); i++ {
				pkt := trace.Packets[i]
				cut := rng.Intn(len(pkt.Data) + 1)
				in := Input{Port: pkt.Port, Data: pkt.Data[:cut]}
				diffProcess(t, compiled, interp, in, name+" truncated "+itoa(i))
			}
		})
	}
}

// TestReadWriteBitsFastMatchesReference cross-checks the compiled
// engine's windowed bit accessors against the interpreter's per-bit
// reference loops over random buffers, offsets, and widths. Reads are
// in-bounds (both implementations require it — the parser's truncation
// check runs first); writes additionally cover spans past the end of the
// buffer, where only the in-bounds prefix may be stored.
func TestReadWriteBitsFastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, 1+rng.Intn(24))
		rng.Read(buf)
		width := 1 + rng.Intn(64)
		if room := 8*len(buf) - width; room >= 0 {
			off := rng.Intn(room + 1)
			if got, want := readBitsFast(buf, off, width), readBits(buf, off, width); got != want {
				t.Fatalf("readBitsFast(len=%d, off=%d, width=%d) = %#x, reference %#x",
					len(buf), off, width, got, want)
			}
		}
		off := rng.Intn(8*len(buf) + 16)
		v := rng.Uint64()
		fast := append([]byte(nil), buf...)
		ref := append([]byte(nil), buf...)
		writeBitsFast(fast, off, width, v)
		writeBits(ref, off, width, v)
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("writeBitsFast(len=%d, off=%d, width=%d, v=%#x):\nfast %x\nref  %x",
				len(buf), off, width, v, fast, ref)
		}
	}
}

// TestProcessBatchSkipExecAndReuseData pins the batch-mode contracts:
// SkipExec produces outputs identical to Process except Exec is nil, and
// ReuseData produces identical Data contents that stay valid until the
// next batch on the same Switch.
func TestProcessBatchSkipExecAndReuseData(t *testing.T) {
	w, err := workloads.Get("ex1")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	ins := make([]Input, n)
	for i := 0; i < n; i++ {
		ins[i] = Input{Port: trace.Packets[i].Port, Data: trace.Packets[i].Data}
	}

	// Reference outputs from a fresh Switch via Process (ex1 is stateful,
	// so each engine run needs its own register state).
	ref, _ := enginePair(t, w.Source, w.Config())
	want := make([]Output, n)
	for i, in := range ins {
		out, err := ref.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	batch, _ := enginePair(t, w.Source, w.Config())
	outs := make([]Output, n)
	if _, err := batch.ProcessBatch(ins, outs, BatchOpts{SkipExec: true, ReuseData: true}); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].Exec != nil {
			t.Fatalf("packet %d: SkipExec left Exec=%v", i, outs[i].Exec)
		}
		got, exp := outs[i], want[i]
		exp.Exec = nil
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("packet %d: batch output %+v, want %+v", i, got, exp)
		}
	}

	// A second batch on the same Switch may overwrite the previous
	// batch's Data (the documented arena contract) — but the new outputs
	// must again match a sequential reference continued from the same
	// register state.
	for i, in := range ins {
		out, err := ref.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
		want[i].Exec = nil
	}
	if _, err := batch.ProcessBatch(ins, outs, BatchOpts{SkipExec: true, ReuseData: true}); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i], want[i]) {
			t.Fatalf("second batch packet %d: %+v, want %+v", i, outs[i], want[i])
		}
	}
}

// TestInstallRuleKeepsEnginesEquivalent installs a rule at runtime on
// both engines and re-checks differential equality: the compiled Switch
// must lower the new rule (staying on the compiled engine) and behave
// exactly like the interpreter with the same rule installed.
func TestInstallRuleKeepsEnginesEquivalent(t *testing.T) {
	w, err := workloads.Get("natgre")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	compiled, interp := enginePair(t, w.Source, w.Config())
	rule := w.Config().Rules[0]
	rule.Priority += 100
	if err := compiled.InstallRule(rule); err != nil {
		t.Fatal(err)
	}
	if err := interp.InstallRule(rule); err != nil {
		t.Fatal(err)
	}
	if engine, reason := compiled.Engine(); engine != "compiled" {
		t.Fatalf("InstallRule knocked out the compiled engine: %s (%s)", engine, reason)
	}
	for i := 0; i < 500 && i < len(trace.Packets); i++ {
		pkt := trace.Packets[i]
		diffProcess(t, compiled, interp, Input{Port: pkt.Port, Data: pkt.Data},
			"post-install packet "+itoa(i))
	}
}

// TestInstallRuleLoweringErrorLeavesSwitchUntouched: a rule that passes
// rt.Validate but fails lowering is an InstallRule error, and the Switch
// is left exactly as it was — same rule count, same engine, and the next
// 100 packets leave as they would have. p4.Check rejects every program
// whose rules could fail to lower, so the test builds its IR from an
// unchecked AST: action "bad" reads a register nobody declared, and no
// initial rule reaches it.
func TestInstallRuleLoweringErrorLeavesSwitchUntouched(t *testing.T) {
	ast := p4.MustParse(`
header_type h_t { fields { a : 8; b : 8; } }
header h_t h;
header_type m_t { fields { x : 8; } }
metadata m_t m;
parser start { extract(h); return ingress; }
action fwd(port) { modify_field(standard_metadata.egress_spec, port); }
action bad(port) { register_read(m.x, nosuch, 0); modify_field(standard_metadata.egress_spec, port); }
table t { reads { h.a : exact; } actions { fwd; bad; } size : 16; }
control ingress { apply(t); }
`)
	p4.EnsureBuiltins(ast)
	prog, err := ir.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	rule := func(action string, key, port uint64) rt.Rule {
		return rt.Rule{Table: "t", Action: action, Args: []uint64{port},
			Matches: []rt.FieldMatch{{Kind: p4.MatchExact, Value: key}}}
	}
	cfg := &rt.Config{}
	cfg.Add(rule("fwd", 1, 3))
	build := func() *Switch {
		sw, err := New(prog, &rt.Config{Rules: append([]rt.Rule(nil), cfg.Rules...)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	sw, untouched := build(), build()

	if err := sw.InstallRule(rule("bad", 2, 4)); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("InstallRule of an unlowerable rule: err = %v, want the lowering error", err)
	}
	if got := len(sw.tables["t"].rules); got != 1 {
		t.Errorf("failed install left %d rules in the table, want 1", got)
	}
	if got := len(sw.cfg.Rules); got != 1 {
		t.Errorf("failed install left %d rules in the config, want 1", got)
	}
	if engine, reason := sw.Engine(); engine != "compiled" || reason != "" {
		t.Errorf("engine after a failed install = %s (%q), want compiled", engine, reason)
	}
	for i := 0; i < 100; i++ {
		in := Input{Port: uint64(i % 4), Data: []byte{byte(i % 3), byte(i)}}
		diffProcess(t, sw, untouched, in, "packet "+itoa(i))
	}
	// A rule that does lower still installs, and takes effect.
	if err := sw.InstallRule(rule("fwd", 2, 4)); err != nil {
		t.Fatal(err)
	}
	if out, err := sw.Process(Input{Data: []byte{2, 0}}); err != nil || out.Port != 4 {
		t.Errorf("installed rule not applied: out=%+v err=%v", out, err)
	}
}

// itoa avoids importing strconv into half the failure messages.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
