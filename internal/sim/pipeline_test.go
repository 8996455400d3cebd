package sim

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/workloads"
)

// replayed is what a replay of a packet sequence leaves: each output (Data
// copied out of the arena), the first error and its position, and the
// Switch's register and counter state.
type replayed struct {
	outs   []Output
	failed int
	err    string
	regs   [][]uint64
	ctrs   [][]CounterCell
}

func (r *replayed) keep(outs []Output) {
	for _, o := range outs {
		o.Data = bytes.Clone(o.Data)
		r.outs = append(r.outs, o)
	}
}

func (r *replayed) state(sw *Switch) {
	for _, reg := range sw.prog.AST.Registers {
		r.regs = append(r.regs, sw.Register(reg.Name))
	}
	for _, c := range sw.prog.AST.Counters {
		r.ctrs = append(r.ctrs, sw.Counter(c.Name))
	}
}

// TestPipelinedMatchesBatches: ProcessPipelined is ProcessBatch over
// consecutive batches, run on two goroutines. On every bundled workload and
// generated program, at both observation levels, with and without
// parse-time hashes, the outputs, the failing packet and its error, and the
// registers and counters at the end are those of the batch loop.
func TestPipelinedMatchesBatches(t *testing.T) {
	defer func(h func(int) bool) { hashAhead = h }(hashAhead)
	type program struct {
		name, source string
		cfg          *rt.Config
		ins          []Input
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
			p.ins = append(p.ins, Input{Port: pkt.Port, Data: pkt.Data})
		}
		progs = append(progs, p)
	}
	for seed := int64(1); seed <= 32; seed++ {
		g := programs.Generate(seed)
		cfg, err := rt.Parse(g.Rules)
		if err != nil {
			t.Fatal(err)
		}
		p := program{name: fmt.Sprintf("generated-seed%d", seed), source: g.Source, cfg: cfg}
		// Three batches and a part at least, so that every stage runs
		// beside the others.
		for len(p.ins) < 3*ReplayBatchSize+100 {
			for _, pkt := range g.Packets {
				p.ins = append(p.ins, Input{Port: pkt.Port, Data: pkt.Data})
			}
		}
		progs = append(progs, p)
	}
	ctx := context.Background()
	hashed := 0
	for _, p := range progs {
		for _, observe := range []Observation{ObserveFate, ObservePacket} {
			pl, err := NewPlanFromAST(p4.MustParse(p.source), p.cfg, Options{Observe: observe})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if pl.c.nPre > 0 {
				hashed++
			}
			want := replayed{failed: -1}
			sw := NewFromPlan(pl)
			for lo := 0; lo < len(p.ins); lo += ReplayBatchSize {
				ins := p.ins[lo:min(lo+ReplayBatchSize, len(p.ins))]
				outs := make([]Output, len(ins))
				k, err := sw.ProcessBatch(ins, outs, BatchOpts{SkipExec: true, ReuseData: true})
				want.keep(outs[:k])
				if err != nil {
					want.failed, want.err = lo+k, err.Error()
					break
				}
			}
			want.state(sw)
			sw.Release()
			for _, ahead := range []bool{false, true} {
				hashAhead = func(int) bool { return ahead }
				label := fmt.Sprintf("%s, observing the %s, parse-time hashes %v", p.name, observe, ahead)
				got := replayed{failed: -1}
				sw := NewFromPlan(pl)
				next := 0
				k, err := sw.ProcessPipelined(ctx, 0, len(p.ins), func(from int, ins []Input) {
					copy(ins, p.ins[from:])
				}, func(from int, outs []Output) {
					if from != next {
						t.Errorf("%s: folded the batch at %d, want the one at %d", label, from, next)
					}
					next = from + len(outs)
					got.keep(outs)
				})
				if err != nil {
					got.failed, got.err = k, err.Error()
				} else if k != len(p.ins) {
					t.Errorf("%s: returned %d, want %d", label, k, len(p.ins))
				}
				got.state(sw)
				sw.Release()
				if got.failed != want.failed || got.err != want.err {
					t.Fatalf("%s: failed at %d (%q), the batch loop at %d (%q)", label, got.failed, got.err, want.failed, want.err)
				}
				// A failing batch is not folded, so the pipelined replay
				// hands out a prefix of the batch loop's outputs.
				if len(got.outs) > len(want.outs) {
					t.Fatalf("%s: %d outputs, the batch loop %d", label, len(got.outs), len(want.outs))
				}
				for i := range got.outs {
					g, w := got.outs[i], want.outs[i]
					if g.Port != w.Port || g.Dropped != w.Dropped || g.WouldDrop != w.WouldDrop || g.ToCPU != w.ToCPU ||
						g.ForwardPort != w.ForwardPort || !bytes.Equal(g.Data, w.Data) {
						t.Fatalf("%s: packet %d: %+v, the batch loop %+v", label, i, g, w)
					}
				}
				if want.failed < 0 && len(got.outs) != len(want.outs) {
					t.Fatalf("%s: %d outputs, the batch loop %d", label, len(got.outs), len(want.outs))
				}
				for i := range want.regs {
					if !slices.Equal(got.regs[i], want.regs[i]) {
						t.Fatalf("%s: register %s ends differently", label, pl.prog.AST.Registers[i].Name)
					}
				}
				for i := range want.ctrs {
					if !slices.Equal(got.ctrs[i], want.ctrs[i]) {
						t.Fatalf("%s: counter %s ends differently", label, pl.prog.AST.Counters[i].Name)
					}
				}
			}
		}
	}
	if hashed == 0 {
		t.Error("no plan has a hash to compute at parse time: the hashes-ahead runs test nothing")
	}
	t.Logf("%d of %d plans compute hashes at parse time", hashed, 2*len(progs))
}
