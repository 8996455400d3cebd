package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"p2go/internal/controller"
	"p2go/internal/p4"
	"p2go/internal/trafficgen"
)

// genFuzzProgram builds a random metadata-only program: actions over a
// shared field pool create organic WAW/RAW/control dependencies, and the
// control tree nests applies under random conditions. No parser: the
// simulator runs on raw payloads, so any byte string is a valid packet.
func genFuzzProgram(rng *rand.Rand) string {
	var b strings.Builder
	nFields := 3 + rng.Intn(4)
	b.WriteString("header_type fz_t {\n    fields {\n")
	for i := 0; i < nFields; i++ {
		b.WriteString(fmt.Sprintf("        f%d : 16;\n", i))
	}
	b.WriteString("    }\n}\nmetadata fz_t fz;\n")

	field := func() string { return fmt.Sprintf("fz.f%d", rng.Intn(nFields)) }
	nTables := 2 + rng.Intn(5)
	for i := 0; i < nTables; i++ {
		// One action per table (gives the dependency analysis precise
		// action pairs).
		b.WriteString(fmt.Sprintf("action fza%d() {\n", i))
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			switch rng.Intn(4) {
			case 0:
				b.WriteString(fmt.Sprintf("    modify_field(%s, %d);\n", field(), rng.Intn(50)))
			case 1:
				b.WriteString(fmt.Sprintf("    add_to_field(%s, %d);\n", field(), 1+rng.Intn(5)))
			case 2:
				b.WriteString("    drop();\n")
			case 3:
				b.WriteString(fmt.Sprintf("    modify_field(standard_metadata.egress_spec, %d);\n", 1+rng.Intn(8)))
			}
		}
		b.WriteString("}\n")
		b.WriteString(fmt.Sprintf("table fzt%d {\n", i))
		if rng.Intn(2) == 0 {
			b.WriteString(fmt.Sprintf("    reads {\n        %s : exact;\n    }\n", field()))
		}
		b.WriteString(fmt.Sprintf("    actions {\n        fza%d;\n    }\n", i))
		if rng.Intn(2) == 0 || len(tableReads(i)) == 0 {
			b.WriteString(fmt.Sprintf("    default_action : fza%d;\n", i))
		}
		b.WriteString(fmt.Sprintf("    size : %d;\n", 4+rng.Intn(60)))
		b.WriteString("}\n")
	}

	b.WriteString("control ingress {\n")
	depth := 0
	for i := 0; i < nTables; i++ {
		if depth < 2 && rng.Intn(3) == 0 {
			b.WriteString(fmt.Sprintf("if (%s < %d) {\n", field(), 1+rng.Intn(40)))
			depth++
		}
		b.WriteString(fmt.Sprintf("apply(fzt%d);\n", i))
		if depth > 0 && rng.Intn(3) == 0 {
			b.WriteString("}\n")
			depth--
		}
	}
	for ; depth > 0; depth-- {
		b.WriteString("}\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// tableReads is a placeholder so the generator above can reference it; the
// actual reads decision is re-randomized inline (default_action presence is
// what matters for checkability).
func tableReads(int) []string { return nil }

// fuzzTrace builds random raw-payload packets.
func fuzzTrace(rng *rand.Rand, n int) *trafficgen.Trace {
	out := &trafficgen.Trace{}
	for i := 0; i < n; i++ {
		data := make([]byte, 1+rng.Intn(32))
		rng.Read(data)
		out.Packets = append(out.Packets, trafficgen.Packet{Port: uint64(1 + rng.Intn(3)), Data: data})
	}
	return out
}

// TestFuzzPipelineInvariants runs the full optimizer on random programs and
// random traffic, asserting the invariants the paper promises:
//
//  1. optimization never errors and never lengthens the pipeline;
//  2. the optimized program is valid P4 that reparses;
//  3. the optimized data plane (+ controller, when something was
//     offloaded) behaves exactly like the original on the trace.
func TestFuzzPipelineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < 75; i++ {
		src := genFuzzProgram(rng)
		ast, err := p4.Parse(src)
		if err != nil {
			t.Fatalf("program %d: parse: %v\n%s", i, err, src)
		}
		if err := p4.Check(ast); err != nil {
			t.Fatalf("program %d: check: %v\n%s", i, err, src)
		}
		trace := fuzzTrace(rng, 400)
		res, err := Optimize(context.Background(), ast, nil, trace, Options{})
		if err != nil {
			t.Fatalf("program %d: optimize: %v\n%s", i, err, src)
		}
		if res.StagesAfter() > res.StagesBefore() {
			t.Fatalf("program %d: pipeline grew %d -> %d\n%s",
				i, res.StagesBefore(), res.StagesAfter(), src)
		}
		printed := p4.Print(res.Optimized)
		reparsed, err := p4.Parse(printed)
		if err != nil {
			t.Fatalf("program %d: optimized does not reparse: %v\n%s", i, err, printed)
		}
		if err := p4.Check(reparsed); err != nil {
			t.Fatalf("program %d: optimized does not recheck: %v\n%s", i, err, printed)
		}
		original, optimized, err := Fates(context.Background(), res, res.OptimizedConfig, trace)
		if err != nil {
			t.Fatalf("program %d: equivalence: %v\n%s", i, err, src)
		}
		report, err := controller.VerifyChaosEquivalence(context.Background(), res.Original, res.OptimizedConfig,
			res.ControllerProgram, trace, controller.ResilientOptions{Replicas: 1}, original, optimized)
		if err != nil {
			t.Fatalf("program %d: equivalence: %v\n%s", i, err, src)
		}
		if !report.Equivalent() {
			t.Fatalf("program %d: behavior diverged: %s\noriginal:\n%s\noptimized:\n%s",
				i, report, src, printed)
		}
	}
}
