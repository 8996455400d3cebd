package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/workloads"
)

// The generated-program seed count of TestObservePlansAgree; CI's deeper
// sweep raises it:
//
//	go test ./internal/sim/ -run TestObservePlansAgree -generator-seeds 256
var generatorSeeds = flag.Int("generator-seeds", 64, "seed count for the generated programs of TestObservePlansAgree")

// instrumentedIR instruments a program the way profile.PrepareContext does
// and builds the IR of the program and of its instrumented clone.
func instrumentedIR(t testing.TB, source string) (plain, prog *ir.Program, ins *profile.Instrumented) {
	t.Helper()
	ast, err := p4.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	if ins, err = profile.Instrument(ast); err != nil {
		t.Fatal(err)
	}
	if prog, err = ir.Build(ins.AST); err != nil {
		t.Fatal(err)
	}
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	if plain, err = ir.Build(ast); err != nil {
		t.Fatal(err)
	}
	return plain, prog, ins
}

// observed is one engine's run over a trace: the Outputs of the packets it
// processed (Data copied out of the arena), and where and how it stopped.
type observed struct {
	outs   []sim.Output
	failed int // index of the failing packet, or -1
	err    string
	sw     *sim.Switch
}

func runObserved(t *testing.T, prog *ir.Program, cfg *rt.Config, opts sim.Options, ins []sim.Input) *observed {
	t.Helper()
	sw, err := sim.New(prog, cfg, opts)
	if err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
	o := &observed{failed: -1, sw: sw}
	outs := make([]sim.Output, sim.ReplayBatchSize)
	for lo := 0; lo < len(ins) && o.failed < 0; lo += sim.ReplayBatchSize {
		batch := ins[lo:min(lo+sim.ReplayBatchSize, len(ins))]
		k, err := sw.ProcessBatch(batch, outs, sim.BatchOpts{})
		for _, out := range outs[:k] {
			out.Data = bytes.Clone(out.Data)
			o.outs = append(o.outs, out)
		}
		if err != nil {
			o.failed, o.err = lo+k, err.Error()
		}
	}
	return o
}

// observePlansAgree runs the instrumented program over the inputs on the
// packet-level interpreter — the byte-exact reference — and on a compiled
// plan of each observation level, and the program itself at the fate level
// on both engines (the profiler's plans), and holds every plan to what it
// promises: the same fate fields per packet, the same profiling header (the
// packet plan's whole Data and Exec equal to the interpreter's, a fate
// plan's execution marks equal to the header's bytes), the same register
// and counter end state, and the same failing packet and error. The two
// fate plans of the program itself are so held to each other, too.
func observePlansAgree(t *testing.T, source string, cfg *rt.Config, ins []sim.Input, neutralize bool) *observed {
	t.Helper()
	plain, prog, inst := instrumentedIR(t, source)
	with := func(opts sim.Options, o sim.Observation, interpret bool) sim.Options {
		opts.Observe, opts.Interpret = o, interpret
		return opts
	}
	trailer := sim.Options{Trailer: profile.TrailerName, NeutralizeDrops: neutralize}
	bare := sim.Options{NeutralizeDrops: neutralize}
	ref := runObserved(t, prog, cfg, with(trailer, sim.ObservePacket, true), ins)
	n := len(inst.Fields)
	plans := []struct {
		name string
		prog *ir.Program
		opts sim.Options
	}{
		{"packet", prog, with(trailer, sim.ObservePacket, false)},
		{"fate", prog, with(trailer, sim.ObserveFate, false)},
		{"uninstrumented fate", plain, with(bare, sim.ObserveFate, false)},
		{"interpreter fate", plain, with(bare, sim.ObserveFate, true)},
	}
	for _, p := range plans {
		got := runObserved(t, p.prog, cfg, p.opts, ins)
		want := "compiled"
		if p.opts.Interpret {
			want = "interpreter"
		}
		if engine, _ := got.sw.Engine(); engine != want {
			t.Fatalf("%s plan runs on the %s", p.name, engine)
		}
		if got.failed != ref.failed || got.err != ref.err {
			t.Fatalf("%s plan stopped at packet %d (%q), the interpreter at %d (%q)",
				p.name, got.failed, got.err, ref.failed, ref.err)
		}
		for i := range ref.outs {
			g, w := &got.outs[i], &ref.outs[i]
			if g.Port != w.Port || g.Dropped != w.Dropped || g.WouldDrop != w.WouldDrop ||
				g.ToCPU != w.ToCPU || g.ForwardPort != w.ForwardPort {
				t.Fatalf("%s plan, packet %d: fate %+v, interpreter %+v", p.name, i, *g, *w)
			}
			want := w.Data
			if p.opts.Observe == sim.ObserveFate {
				want = w.Data[len(w.Data)-n:]
			}
			if !bytes.Equal(g.Data, want) {
				t.Fatalf("%s plan, packet %d: data % x, want % x", p.name, i, g.Data, want)
			}
			if p.opts.Observe == sim.ObservePacket {
				if !slices.Equal(g.Exec, w.Exec) {
					t.Fatalf("packet plan, packet %d: exec %v, interpreter %v", i, g.Exec, w.Exec)
				}
			} else if g.Exec != nil {
				t.Fatalf("%s plan, packet %d: carries an execution trace", p.name, i)
			}
		}
		for _, r := range prog.AST.Registers {
			if !slices.Equal(got.sw.Register(r.Name), ref.sw.Register(r.Name)) {
				t.Fatalf("%s plan: register %s ends differently from the interpreter's", p.name, r.Name)
			}
		}
		for _, c := range prog.AST.Counters {
			if !slices.Equal(got.sw.Counter(c.Name), ref.sw.Counter(c.Name)) {
				t.Fatalf("%s plan: counter %s ends differently from the interpreter's", p.name, c.Name)
			}
		}
	}
	return ref
}

// TestObservePlansAgree holds Options.Observe to its contract: lowering a
// program for a caller that reads less changes nothing that caller, or
// anyone looking at the Switch's state afterwards, can see. Every bundled
// workload and the generated programs, each instrumented and on its own
// trace, with drops as they are and neutralized; then three inputs that make
// a packet fail, where the failing packet and the error text must not depend
// on the level either.
func TestObservePlansAgree(t *testing.T) {
	type program struct {
		name, source string
		cfg          *rt.Config
		ins          []sim.Input
	}
	var progs []program
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		p := program{name: name, source: w.Source, cfg: w.Config()}
		for _, pkt := range trace.Packets {
			p.ins = append(p.ins, sim.Input{Port: pkt.Port, Data: pkt.Data})
		}
		progs = append(progs, p)
	}
	for seed := int64(1); seed <= int64(*generatorSeeds); seed++ {
		g := programs.Generate(seed)
		cfg, err := rt.Parse(g.Rules)
		if err != nil {
			t.Fatal(err)
		}
		p := program{name: fmt.Sprintf("generated-seed%d", seed), source: g.Source, cfg: cfg}
		for _, pkt := range g.Packets {
			p.ins = append(p.ins, sim.Input{Port: pkt.Port, Data: pkt.Data})
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, neutralize := range []bool{false, true} {
				if ref := observePlansAgree(t, p.source, p.cfg, p.ins, neutralize); ref.failed >= 0 {
					t.Fatalf("packet %d fails: %s", ref.failed, ref.err)
				}
			}
		})
	}

	maglev, err := workloads.Get("maglev")
	if err != nil {
		t.Fatal(err)
	}
	maglevTrace, err := maglev.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	var maglevIns []sim.Input
	for _, pkt := range maglevTrace.Packets {
		maglevIns = append(maglevIns, sim.Input{Port: pkt.Port, Data: pkt.Data})
	}
	const sigCells = "register conn_sig {\n    width : 16;\n    instance_count : conn_cells;"
	if !strings.Contains(maglev.Source, sigCells) {
		t.Fatal("maglev no longer declares conn_sig the way this test shrinks it")
	}
	const deadPrelude = `
header_type h_t { fields { a : 8; b : 8; } }
header_type m_t { fields { unread : 16; idx : 16; } }
header h_t h;
metadata m_t m;
register r { width : 16; instance_count : 4; }
field_list fl { h.a; h.b; }
field_list_calculation calc { input { fl; } algorithm : crc16; output_width : 16; }
parser start { extract(h); return ingress; }
action fwd() { modify_field(standard_metadata.egress_spec, 1); }
table first { actions { fwd; } default_action : fwd; }
`
	faulting := []struct {
		name, source, rules string
		ins                 []sim.Input
		want                string
	}{
		{
			// Phase 3's evidence when a reduction breaks the configuration.
			name:   "maglev-with-conn_sig-shrunk",
			source: strings.Replace(maglev.Source, sigCells, strings.Replace(sigCells, "conn_cells", "90000", 1), 1),
			rules:  rt.Format(maglev.Config()),
			ins:    maglevIns,
			want:   "register_read: index",
		},
		{
			// Nothing reads m.unread at any level, and h.b — only the index —
			// would not be extracted if the read were dropped with it.
			name: "register_read-into-a-never-read-field",
			source: deadPrelude + `
action peek() { register_read(m.unread, r, h.b); }
table t { actions { peek; } default_action : peek; }
control ingress { apply(first); apply(t); }
`,
			ins:  []sim.Input{{Port: 1, Data: []byte{0, 3}}, {Port: 1, Data: []byte{0, 2}}, {Port: 1, Data: []byte{0, 4}}, {Port: 1, Data: []byte{0, 1}}},
			want: "sim: action peek: register_read: index 4 out of range for r[4]",
		},
		{
			// The size is a rule's argument: zero for h.a == 2 only.
			name: "zero-size-hash-into-a-never-read-field",
			source: deadPrelude + `
action spread(size) { modify_field_with_hash_based_offset(m.unread, 0, calc, size); }
table t { reads { h.a : exact; } actions { spread; } }
control ingress { apply(first); apply(t); }
`,
			rules: "table_add t spread 1 => 8\ntable_add t spread 2 => 0\n",
			ins:   []sim.Input{{Port: 1, Data: []byte{1, 9}}, {Port: 1, Data: []byte{3, 9}}, {Port: 1, Data: []byte{2, 9}}, {Port: 1, Data: []byte{1, 9}}},
			want:  "sim: action spread: modify_field_with_hash_based_offset: zero size",
		},
	}
	for _, f := range faulting {
		f := f
		t.Run(f.name, func(t *testing.T) {
			cfg, err := rt.Parse(f.rules)
			if err != nil {
				t.Fatal(err)
			}
			for _, neutralize := range []bool{false, true} {
				ref := observePlansAgree(t, f.source, cfg, f.ins, neutralize)
				if ref.failed < 0 || !strings.Contains(ref.err, f.want) {
					t.Fatalf("stopped at packet %d with %q, want an error containing %q", ref.failed, ref.err, f.want)
				}
				if ref.failed == 0 {
					t.Fatalf("the first packet fails: nothing ran before the error")
				}
			}
		})
	}
}

// TestObservationElidesWhatNobodyReads pins what each level leaves of two
// programs — instrumented at the packet level, as bench and the
// byte-exactness tests lower them, and as they are at the fate level, the
// profiler's and the verifier's plan — so the analysis cannot quietly stop
// finding dead work, or start finding live work dead. natgre is the case
// the levels were built for: its ipv4_checksum_list names 11 IPv4 fields,
// and with no checksum to emit the fate plan needs etherType (the parser's
// select) and dstAddr (ipv4_fwd's key) — which nat_translate therefore
// still stores, while its srcAddr store goes. ex1 is the other kind: every
// store its sketch makes feeds a register or a match key, so no level finds
// anything to drop.
func TestObservationElidesWhatNobodyReads(t *testing.T) {
	cases := []struct {
		workload string
		observe  sim.Observation
		want     sim.Lowering
		calcs    int
		action   string
		stores   []string
	}{
		{workload: "natgre", observe: sim.ObservePacket, calcs: 1,
			want:   sim.Lowering{FieldsExtracted: 13, FieldsTotal: 15},
			action: "nat_translate", stores: []string{"ipv4.srcAddr", "ipv4.dstAddr", "p2go_prof.m0"}},
		{workload: "natgre", observe: sim.ObserveFate,
			want:   sim.Lowering{FieldsExtracted: 2, FieldsTotal: 15, OpsElided: 3, CalcsElided: 1},
			action: "nat_translate", stores: []string{"ipv4.dstAddr"}},
		{workload: "ex1", observe: sim.ObservePacket,
			want:   sim.Lowering{FieldsExtracted: 5, FieldsTotal: 30},
			action: "sketch1_count", stores: []string{"fw_meta.idx1", "fw_meta.count1", "fw_meta.count1", "", "p2go_prof.m6"}},
		{workload: "ex1", observe: sim.ObserveFate,
			want:   sim.Lowering{FieldsExtracted: 5, FieldsTotal: 30},
			action: "sketch1_count", stores: []string{"fw_meta.idx1", "fw_meta.count1", "fw_meta.count1", ""}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.workload+"/"+tc.observe.String(), func(t *testing.T) {
			w, err := workloads.Get(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			plain, prog, _ := instrumentedIR(t, w.Source)
			opts := sim.Options{Trailer: profile.TrailerName, NeutralizeDrops: true}
			if tc.observe == sim.ObserveFate {
				prog, opts = plain, sim.Options{Observe: sim.ObserveFate}
			}
			pl, err := sim.NewPlan(prog, w.Config(), opts)
			if err != nil {
				t.Fatal(err)
			}
			tc.want.Observe = tc.observe
			if got := pl.Lowering(); got != tc.want {
				t.Errorf("lowering = %+v, want %+v", got, tc.want)
			}
			if got := pl.LoweredCalcs(); got != tc.calcs {
				t.Errorf("%d calculated-field updates lowered, want %d", got, tc.calcs)
			}
			stores, ok := pl.LoweredStores(tc.action)
			if !ok {
				t.Fatalf("no installed rule or default invokes %s", tc.action)
			}
			if !reflect.DeepEqual(stores, tc.stores) {
				t.Errorf("%s stores %q, want %q", tc.action, stores, tc.stores)
			}
		})
	}
}
