package sim_test

import (
	"context"
	"reflect"
	"testing"

	"p2go/internal/controller"
	"p2go/internal/core"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

type loaded struct {
	ast   *p4.Program
	w     workloads.Workload
	trace *trafficgen.Trace
}

func load(t *testing.T, name string) loaded {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	return loaded{ast: p4.MustParse(w.Source), w: w, trace: trace}
}

// replayRegisters runs the trace through a Switch of the program, packet by
// packet, and returns every fate and the final contents of every register.
func replayRegisters(t *testing.T, l loaded, opts sim.Options) (fates []uint64, regs map[string][]uint64) {
	t.Helper()
	sw, err := sim.NewFromAST(l.ast, l.w.Config(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Release()
	for i, pkt := range l.trace.Packets {
		out, err := sw.Process(sim.Input{Port: pkt.Port, Data: pkt.Data})
		if err != nil {
			t.Fatalf("%s: packet %d: %v", l.w.Name, i, err)
		}
		fates = append(fates, out.Port)
	}
	regs = map[string][]uint64{}
	for _, r := range l.ast.Registers {
		regs[r.Name] = sw.Register(r.Name)
	}
	return fates, regs
}

// TestRecycledRegistersStartZero: a Switch built on a recycled slab is
// indistinguishable from one built on fresh memory. Each program is run
// three ways — a bare Switch (fates and final register contents), the
// profiler, and VerifyEquivalence over its optimization — first with the
// free list emptied before every step, then with the free list holding what
// replays of failure and sourceguard left in their registers.
func TestRecycledRegistersStartZero(t *testing.T) {
	failure, sourceguard := load(t, "failure"), load(t, "sourceguard")
	dirty := func() {
		sim.DropFreeSlabs()
		// sourceguard's slab is the largest here, so failure reuses it and
		// every program below fits in it.
		replayRegisters(t, sourceguard, sim.Options{})
		replayRegisters(t, failure, sim.Options{})
		if slabs, cells := sim.FreeSlabs(); slabs != 1 || cells != 2*262080 {
			t.Fatalf("free list holds %d slabs, %d cells after the released replays; want sourceguard's one slab", slabs, cells)
		}
	}
	for _, name := range []string{"sourceguard", "ex1"} {
		l := load(t, name)
		res, err := core.New(core.Options{}).Optimize(l.ast, l.w.Config(), l.trace)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := profile.PrepareContext(context.Background(), l.ast, l.w.Config())
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			fates, interpFates []uint64
			regs, interpRegs   map[string][]uint64
			prof               *profile.Profile
			verify             controller.EquivalenceReport
		}
		run := func(before func()) (o outcome) {
			before()
			o.fates, o.regs = replayRegisters(t, l, sim.Options{})
			before()
			o.interpFates, o.interpRegs = replayRegisters(t, l, sim.Options{Interpret: true})
			before()
			if o.prof, err = prep.Profiler().RunWith(context.Background(), l.trace, profile.RunOptions{Shards: 1}); err != nil {
				t.Fatal(err)
			}
			before()
			rep, err := controller.VerifyEquivalence(context.Background(), res.Original, l.w.Config(),
				res.Optimized, res.OptimizedConfig, res.ControllerProgram, l.trace)
			if err != nil {
				t.Fatal(err)
			}
			o.verify = *rep
			return o
		}
		fresh, recycled := run(sim.DropFreeSlabs), run(dirty)

		if !reflect.DeepEqual(fresh.fates, recycled.fates) || !reflect.DeepEqual(fresh.interpFates, recycled.interpFates) {
			t.Errorf("%s: packet fates differ on a recycled slab", name)
		}
		if !reflect.DeepEqual(fresh.regs, recycled.regs) || !reflect.DeepEqual(fresh.interpRegs, recycled.interpRegs) {
			t.Errorf("%s: final register contents differ on a recycled slab", name)
		}
		if !reflect.DeepEqual(fresh.regs, fresh.interpRegs) {
			t.Errorf("%s: engines disagree on final register contents", name)
		}
		if !fresh.prof.Equal(recycled.prof) {
			t.Errorf("%s: profile differs on a recycled slab: %s", name, fresh.prof.Diff(recycled.prof))
		}
		if fresh.verify != recycled.verify || !recycled.verify.Equivalent() {
			t.Errorf("%s: VerifyEquivalence on recycled slabs: %s; on fresh memory: %s", name, &recycled.verify, &fresh.verify)
		}
	}
	sim.DropFreeSlabs()
}
