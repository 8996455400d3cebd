package sim_test

import (
	"bytes"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/sim"
	"p2go/internal/workloads"
)

// levelPair is two Switches every packet goes through from the same state:
// one program lowered at two observation levels, the instrumented clone
// beside the program's fate plan, or the program's fate plans on both
// engines. marks, when set, is the execution marks' length: the second
// Switch's marks must be the bytes ending the first one's Data — the
// clone's profiling header, or the interpreter's marks.
type levelPair struct {
	name  string
	plans [2]string
	sws   [2]*sim.Switch
	marks int
}

// fuzzPairs lowers every workload's plain program at ObservePacket and
// ObserveFate (the verifier's and the profiler's), and pairs the fate plan
// with the instrumented program at ObservePacket and with the interpreter's
// fate plan of the plain program, drops as they are.
func fuzzPairs(f *testing.F) []levelPair {
	var pairs []levelPair
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		ast, err := p4.Parse(w.Source)
		if err != nil {
			f.Fatal(err)
		}
		plain := levelPair{name: name, plans: [2]string{"packet", "fate"}}
		for i, level := range []sim.Observation{sim.ObservePacket, sim.ObserveFate} {
			if plain.sws[i], err = sim.NewFromAST(ast, w.Config(), sim.Options{Observe: level}); err != nil {
				f.Fatal(err)
			}
		}
		_, prog, ins := instrumentedIR(f, w.Source)
		inst := levelPair{name: name + "/instrumented", plans: [2]string{"instrumented packet", "fate"}, marks: len(ins.Fields)}
		if inst.sws[0], err = sim.New(prog, w.Config(), sim.Options{Trailer: profile.TrailerName}); err != nil {
			f.Fatal(err)
		}
		if inst.sws[1], err = sim.NewFromAST(ast, w.Config(), sim.Options{Observe: sim.ObserveFate}); err != nil {
			f.Fatal(err)
		}
		interp := levelPair{name: name + "/interpreter", plans: [2]string{"interpreter fate", "fate"}, marks: len(ins.Fields)}
		if interp.sws[0], err = sim.NewFromAST(ast, w.Config(), sim.Options{Observe: sim.ObserveFate, Interpret: true}); err != nil {
			f.Fatal(err)
		}
		if interp.sws[1], err = sim.NewFromAST(ast, w.Config(), sim.Options{Observe: sim.ObserveFate}); err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, plain, inst, interp)
	}
	return pairs
}

// FuzzObserveLevels: a packet of any bytes on any port, truncated ones
// above all, goes through every workload lowered at each observation level
// its callers use, through its instrumented clone, and through the
// interpreter at the fate level. Nothing may panic; the plans must accept
// or reject it alike, with the same error; and where they accept, they must
// agree on everything a fate reads: their sim.Outcome and ForwardPort,
// and the fate plan's execution marks must be the clone's profiling header
// and the interpreter's marks. The
// committed corpus (testdata/fuzz/FuzzObserveLevels: the first packet of
// every workload's trace and truncations of it) also runs as plain subtests
// in every `go test`.
func FuzzObserveLevels(f *testing.F) {
	pairs := fuzzPairs(f)
	f.Fuzz(func(t *testing.T, port uint64, data []byte) {
		in := sim.Input{Port: port, Data: data}
		for _, p := range pairs {
			var outs [2]sim.Output
			var errs [2]string
			for i, sw := range p.sws {
				sw.Reset() // every input starts from the same state
				out, err := sw.Process(in)
				if err != nil {
					errs[i] = err.Error()
				}
				outs[i] = out
			}
			if errs[0] != errs[1] {
				t.Fatalf("%s: %s plan: %q, %s plan: %q", p.name, p.plans[0], errs[0], p.plans[1], errs[1])
			}
			if errs[0] != "" {
				continue
			}
			a, b := &outs[0], &outs[1]
			if a.Outcome() != b.Outcome() || a.ForwardPort != b.ForwardPort {
				t.Fatalf("%s: %s plan outcome %#x forward %d, %s plan outcome %#x forward %d",
					p.name, p.plans[0], a.Outcome(), a.ForwardPort, p.plans[1], b.Outcome(), b.ForwardPort)
			}
			if p.marks > 0 && !bytes.Equal(a.Data[len(a.Data)-p.marks:], b.Data) {
				t.Fatalf("%s: %s plan's marks % x, %s plan's % x", p.name, p.plans[0], a.Data[len(a.Data)-p.marks:], p.plans[1], b.Data)
			}
		}
	})
}
