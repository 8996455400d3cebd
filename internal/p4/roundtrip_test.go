package p4

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// genProgram builds a random but well-formed program: a metadata header, a
// register, a set of actions over random fields, tables with random reads
// and sizes, and a control tree with random nesting. Used to property-test
// the parse -> check -> print -> parse pipeline.
func genProgram(rng *rand.Rand) string {
	var b strings.Builder
	nFields := 2 + rng.Intn(6)
	b.WriteString("header_type gen_t {\n    fields {\n")
	for i := 0; i < nFields; i++ {
		b.WriteString(fmt.Sprintf("        f%d : %d;\n", i, 1+rng.Intn(32)))
	}
	b.WriteString("    }\n}\nmetadata gen_t gm;\n")
	b.WriteString("register gr { width : 32; instance_count : 64; }\n")
	b.WriteString("counter gc { type : packets; instance_count : 32; }\n")
	b.WriteString("field_list gfl { gm.f0; }\n")
	b.WriteString("field_list_calculation gcalc { input { gfl; } algorithm : crc16; output_width : 6; }\n")

	field := func() string { return fmt.Sprintf("gm.f%d", rng.Intn(nFields)) }
	nActions := 1 + rng.Intn(5)
	for i := 0; i < nActions; i++ {
		b.WriteString(fmt.Sprintf("action ga%d(", i))
		nParams := rng.Intn(3)
		for p := 0; p < nParams; p++ {
			if p > 0 {
				b.WriteString(", ")
			}
			b.WriteString(fmt.Sprintf("p%d", p))
		}
		b.WriteString(") {\n")
		nPrims := 1 + rng.Intn(4)
		for j := 0; j < nPrims; j++ {
			switch rng.Intn(7) {
			case 0:
				b.WriteString(fmt.Sprintf("    modify_field(%s, %d);\n", field(), rng.Intn(100)))
			case 1:
				if nParams > 0 {
					b.WriteString(fmt.Sprintf("    modify_field(%s, p%d);\n", field(), rng.Intn(nParams)))
				} else {
					b.WriteString(fmt.Sprintf("    add_to_field(%s, 1);\n", field()))
				}
			case 2:
				b.WriteString(fmt.Sprintf("    subtract_from_field(%s, %d);\n", field(), rng.Intn(5)))
			case 3:
				b.WriteString(fmt.Sprintf("    min(%s, %s, %s);\n", field(), field(), field()))
			case 4:
				b.WriteString("    drop();\n")
			case 5:
				b.WriteString("    no_op();\n")
			case 6:
				b.WriteString(fmt.Sprintf("    bit_xor(%s, %s, %d);\n", field(), field(), rng.Intn(64)))
			}
		}
		b.WriteString("}\n")
	}

	nTables := 1 + rng.Intn(4)
	kinds := []string{"exact", "lpm", "ternary", "range"}
	for i := 0; i < nTables; i++ {
		b.WriteString(fmt.Sprintf("table gt%d {\n", i))
		if rng.Intn(3) > 0 {
			b.WriteString("    reads {\n")
			nReads := 1 + rng.Intn(2)
			for j := 0; j < nReads; j++ {
				b.WriteString(fmt.Sprintf("        %s : %s;\n", field(), kinds[rng.Intn(len(kinds))]))
			}
			b.WriteString("    }\n")
		}
		act := rng.Intn(nActions)
		b.WriteString(fmt.Sprintf("    actions {\n        ga%d;\n    }\n", act))
		if rng.Intn(2) == 0 {
			b.WriteString(fmt.Sprintf("    size : %d;\n", 1+rng.Intn(1024)))
		}
		b.WriteString("}\n")
	}

	// Control tree: apply every table exactly once with random nesting.
	b.WriteString("control ingress {\n")
	depth := 0
	for i := 0; i < nTables; i++ {
		switch rng.Intn(3) {
		case 0:
			if depth < 3 {
				b.WriteString(fmt.Sprintf("if (%s == %d) {\n", field(), rng.Intn(10)))
				depth++
			}
			b.WriteString(fmt.Sprintf("apply(gt%d);\n", i))
		case 1:
			b.WriteString(fmt.Sprintf("apply(gt%d);\n", i))
			if depth > 0 {
				b.WriteString("}\n")
				depth--
			}
		default:
			b.WriteString(fmt.Sprintf("apply(gt%d);\n", i))
		}
	}
	for ; depth > 0; depth-- {
		b.WriteString("}\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// TestRandomProgramRoundTrip: for many random programs, parse+check
// succeeds and print is a fixed point under reparsing.
func TestRandomProgramRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	for i := 0; i < 200; i++ {
		src := genProgram(rng)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("program %d: parse: %v\n%s", i, err, src)
		}
		if err := Check(prog); err != nil {
			t.Fatalf("program %d: check: %v\n%s", i, err, src)
		}
		printed := Print(prog)
		prog2, err := Parse(printed)
		if err != nil {
			t.Fatalf("program %d: reparse: %v\n%s", i, err, printed)
		}
		if err := Check(prog2); err != nil {
			t.Fatalf("program %d: recheck: %v", i, err)
		}
		printed2 := Print(prog2)
		if printed != printed2 {
			t.Fatalf("program %d: print not a fixed point:\n--- a ---\n%s\n--- b ---\n%s", i, printed, printed2)
		}
		// Clone is faithful.
		if Print(Clone(prog)) != printed {
			t.Fatalf("program %d: clone print differs", i)
		}
		// Fprint streams the same text, here through a buffer far smaller
		// than the program.
		var sink bytes.Buffer
		bw := bufio.NewWriterSize(&sink, 64)
		Fprint(bw, prog)
		if err := bw.Flush(); err != nil || sink.String() != printed {
			t.Fatalf("program %d: Fprint differs from Print (flush error %v)", i, err)
		}
	}
}
