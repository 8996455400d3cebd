package sim_test

import (
	"testing"

	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/sim"
	"p2go/internal/workloads"
)

// levelPair is one program lowered at two observation levels: what one
// caller reads and what another reads less of. Every packet goes through
// both from the same state.
type levelPair struct {
	name   string
	levels [2]sim.Observation
	sws    [2]*sim.Switch
}

// fuzzPairs lowers every workload's plain program at ObservePacket and
// ObserveFate (the verifier's), and its instrumented program at
// ObservePacket and ObserveTrailer (the profiler's, drops neutralized).
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
		plain := levelPair{name: name, levels: [2]sim.Observation{sim.ObservePacket, sim.ObserveFate}}
		for i, level := range plain.levels {
			if plain.sws[i], err = sim.NewFromAST(ast, w.Config(), sim.Options{Observe: level}); err != nil {
				f.Fatal(err)
			}
		}
		prog, _ := instrumentedIR(f, w.Source)
		inst := levelPair{name: name + "/instrumented", levels: [2]sim.Observation{sim.ObservePacket, sim.ObserveTrailer}}
		for i, level := range inst.levels {
			opts := sim.Options{Trailer: profile.TrailerName, NeutralizeDrops: true, Observe: level}
			if inst.sws[i], err = sim.New(prog, w.Config(), opts); err != nil {
				f.Fatal(err)
			}
		}
		pairs = append(pairs, plain, inst)
	}
	return pairs
}

// FuzzObserveLevels: a packet of any bytes on any port, truncated ones
// above all, goes through every workload lowered at each observation level
// its callers use. Nothing may panic; the levels must accept or reject it
// alike, with the same error; and where they accept, they must agree on
// everything a fate reads: Port, Dropped, ToCPU and ForwardPort. The
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
				t.Fatalf("%s: %s plan: %q, %s plan: %q", p.name, p.levels[0], errs[0], p.levels[1], errs[1])
			}
			if errs[0] != "" {
				continue
			}
			a, b := &outs[0], &outs[1]
			if a.Port != b.Port || a.Dropped != b.Dropped || a.ToCPU != b.ToCPU || a.ForwardPort != b.ForwardPort {
				t.Fatalf("%s: %s plan %+v forward %d, %s plan %+v forward %d",
					p.name, p.levels[0], a.Fate(), a.ForwardPort, p.levels[1], b.Fate(), b.ForwardPort)
			}
		}
	})
}
