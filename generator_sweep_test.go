package p2go

import (
	"flag"
	"fmt"
	"testing"

	"p2go/internal/programs"
)

// The differential sweep's seed count. The default keeps `go test ./...`
// fast while still covering every generator dimension several times over;
// raise it for a deeper sweep:
//
//	go test -run TestGeneratedDifferential -generator-seeds 512 .
var generatorSeeds = flag.Int("generator-seeds", 64, "seed count for the generated-program differential sweep")

// genTrace converts the generator's neutral packets to a Trace.
func genTrace(g *programs.Generated) *Trace {
	tr := &Trace{}
	for _, p := range g.Packets {
		tr.Packets = append(tr.Packets, TracePacket{Port: p.Port, Data: p.Data})
	}
	return tr
}

// TestGeneratedDifferential is the whole-optimizer differential harness:
// for every generated program, the full default pipeline must produce an
// optimized program (plus controller, when Phase 4 offloaded) whose
// per-packet fates match the original on the matched trace. A failing seed
// is a complete reproducer (the generator is deterministic — see
// TestGeneratorDeterminism).
func TestGeneratedDifferential(t *testing.T) {
	for seed := int64(0); seed < int64(*generatorSeeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			g := programs.Generate(seed)
			prog, err := ParseProgram(g.Source)
			if err != nil {
				t.Fatalf("generated program does not parse:\n%s\nerror: %v", g.Source, err)
			}
			cfg, err := ParseRules(g.Rules)
			if err != nil {
				t.Fatalf("generated rules do not parse:\n%s\nerror: %v", g.Rules, err)
			}
			trace := genTrace(g)

			res, err := Optimize(prog, cfg, trace, Options{})
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			if res.StagesAfter() > res.StagesBefore() {
				t.Errorf("optimizer grew the pipeline: %d -> %d stages", res.StagesBefore(), res.StagesAfter())
			}
			rep, err := VerifyEquivalence(res, cfg, trace)
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if !rep.Equivalent() {
				t.Errorf("default pipeline not equivalent: %d mismatches over %d packets (first: %s)\nprogram:\n%s",
					rep.Mismatches, rep.Packets, rep.First, g.Source)
			}

			// Tunable programs additionally go through the tune pass. The
			// tuned program intentionally trades accuracy within the floor,
			// so the assertion is on the search contract, not equivalence:
			// bindings stay in range and the pipeline never grows.
			if len(prog.Tunables) == 0 {
				return
			}
			tuned, err := Optimize(prog, cfg, trace, Options{
				Passes:            append([]string{"tune"}, DefaultPassIDs()...),
				TuneAccuracyTable: "gen_limit",
			})
			if err != nil {
				t.Fatalf("optimize with tune: %v", err)
			}
			if tuned.StagesAfter() > res.StagesAfter() {
				t.Errorf("tune made the pipeline worse: %d -> %d stages", res.StagesAfter(), tuned.StagesAfter())
			}
			for _, k := range tuned.Tunables {
				v, ok := tuned.Bindings[k.Name]
				if !ok {
					t.Errorf("tuned result missing binding for %s", k.Name)
					continue
				}
				if v < k.Min || v > k.Max {
					t.Errorf("tuned %s = %d outside [%d, %d]", k.Name, v, k.Min, k.Max)
				}
			}
		})
	}
}
