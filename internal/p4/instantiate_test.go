package p4

import (
	"strings"
	"testing"
)

const tunableSrc = `@tunable(cells, 1024, 65536, 16384);
@tunable(threshold, 1, 100, 25);
header_type meta_t {
    fields {
        idx : 32;
        count : 32;
    }
}
metadata meta_t md;
header_type ethernet_t {
    fields {
        dstAddr : 48;
        srcAddr : 48;
        etherType : 16;
    }
}
header ethernet_t ethernet;
register counts {
    width : 32;
    instance_count : cells;
}
field_list flow {
    ethernet.srcAddr;
}
field_list_calculation flow_hash {
    input {
        flow;
    }
    algorithm : crc32;
    output_width : 32;
}
parser start {
    extract(ethernet);
    return ingress;
}
action tally() {
    modify_field_with_hash_based_offset(md.idx, 0, flow_hash, cells);
    register_read(md.count, counts, md.idx);
    add_to_field(md.count, 1);
    register_write(counts, md.idx, md.count);
}
action mark() {
    no_op();
}
table tally_t {
    actions {
        tally;
    }
    size : threshold;
}
table alarm {
    actions {
        mark;
    }
}
control ingress {
    apply(tally_t);
    if (md.count >= threshold) {
        apply(alarm);
    }
}
`

func TestTunableRoundTrip(t *testing.T) {
	prog, err := Parse(tunableSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(prog.Tunables) != 2 {
		t.Fatalf("tunables = %d, want 2", len(prog.Tunables))
	}
	cells := prog.Tunable("cells")
	if cells == nil || cells.Min != 1024 || cells.Max != 65536 || cells.Default != 16384 {
		t.Fatalf("cells = %+v", cells)
	}
	if reg := prog.Register("counts"); reg.CountSym != "cells" || reg.InstanceCount != 16384 {
		t.Fatalf("register counts = %+v", reg)
	}
	if tbl := prog.Table("tally_t"); tbl.SizeSym != "threshold" || tbl.Size != 25 {
		t.Fatalf("table tally_t = %+v", tbl)
	}

	// Print/reparse must preserve the symbolic structure.
	printed := Print(prog)
	again, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if Print(again) != printed {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", printed, Print(again))
	}
	if again.Register("counts").CountSym != "cells" {
		t.Fatal("reparse lost register CountSym")
	}
	call := again.Action("tally").Body[0]
	if sym, ok := call.Args[3].(SymRef); !ok || sym.Name != "cells" || sym.Value != 16384 {
		t.Fatalf("hash modulus arg = %#v", call.Args[3])
	}
}

func TestInstantiate(t *testing.T) {
	prog := MustParse(tunableSrc)
	inst, err := Instantiate(prog, map[string]int{"cells": 2048})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if len(inst.Tunables) != 0 {
		t.Fatal("instantiated program still declares tunables")
	}
	if reg := inst.Register("counts"); reg.CountSym != "" || reg.InstanceCount != 2048 {
		t.Fatalf("register counts = %+v", reg)
	}
	// Unbound tunable takes its default.
	if tbl := inst.Table("tally_t"); tbl.SizeSym != "" || tbl.Size != 25 {
		t.Fatalf("table tally_t = %+v", tbl)
	}
	call := inst.Action("tally").Body[0]
	if lit, ok := call.Args[3].(IntLit); !ok || lit.Value != 2048 {
		t.Fatalf("hash modulus arg = %#v", call.Args[3])
	}
	// The if-condition threshold is concrete too.
	if strings.Contains(Print(inst), "threshold") {
		t.Fatalf("instantiated print still mentions the symbol:\n%s", Print(inst))
	}
	if err := Check(inst); err != nil {
		t.Fatalf("check instantiated: %v", err)
	}

	// Distinct bindings must print distinct source (the cache-key
	// property the tune pass relies on).
	other, err := Instantiate(prog, map[string]int{"cells": 4096})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if Print(other) == Print(inst) {
		t.Fatal("distinct bindings printed identical source")
	}

	// The original is untouched.
	if prog.Register("counts").CountSym != "cells" {
		t.Fatal("instantiate mutated its input")
	}
}

// TestTableSizeTunable: a table size written as a tunable survives Clone as
// the symbol and is bound by Instantiate. cloneDecl used to drop SizeSym, so
// a clone printed the default as a literal and no binding ever reached the
// table.
func TestTableSizeTunable(t *testing.T) {
	prog := MustParse(strings.Replace(tunableSrc, "@tunable(threshold, 1, 100, 25);",
		"@tunable(threshold, 1, 100, 25);\n@tunable(tsize, 16, 4096, 1024);", 1))
	prog.Table("alarm").Size, prog.Table("alarm").SizeSym = 1024, "tsize"
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	cp := Clone(prog)
	if got := cp.Table("alarm"); got.SizeSym != "tsize" || got.Size != 1024 {
		t.Errorf("clone's table alarm = %+v, want SizeSym tsize", got)
	}
	if !strings.Contains(Print(cp), "size : tsize;") || Print(cp) != Print(prog) {
		t.Errorf("clone does not print the symbolic size:\n%s", Print(cp))
	}
	inst, err := Instantiate(prog, map[string]int{"tsize": 64, "threshold": 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Table("alarm"); got.Size != 64 || got.SizeSym != "" {
		t.Errorf("table alarm at tsize=64 = %+v, want Size 64", got)
	}
	if got := inst.Table("tally_t"); got.Size != 9 || got.SizeSym != "" {
		t.Errorf("table tally_t at threshold=9 = %+v, want Size 9", got)
	}
	if strings.Contains(Print(inst), "tsize") {
		t.Errorf("instantiated print still mentions the symbol:\n%s", Print(inst))
	}
	for _, v := range []int{15, 4097} {
		if _, err := Instantiate(prog, map[string]int{"tsize": v}); err == nil {
			t.Errorf("tsize=%d: out-of-range table size accepted", v)
		}
	}
	if got := prog.Table("alarm"); got.SizeSym != "tsize" || got.Size != 1024 {
		t.Errorf("instantiate edited its input: %+v", got)
	}
}

func TestInstantiateErrors(t *testing.T) {
	prog := MustParse(tunableSrc)
	if _, err := Instantiate(prog, map[string]int{"nope": 1}); err == nil {
		t.Fatal("unknown binding accepted")
	}
	if _, err := Instantiate(prog, map[string]int{"cells": 512}); err == nil {
		t.Fatal("below-min binding accepted")
	}
	if _, err := Instantiate(prog, map[string]int{"cells": 1 << 20}); err == nil {
		t.Fatal("above-max binding accepted")
	}
}

func TestTunableParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad range":   "@tunable(x, 10, 5, 7);",
		"default out": "@tunable(x, 1, 5, 9);",
		"zero min":    "@tunable(x, 0, 5, 3);",
		"duplicate":   "@tunable(x, 1, 5, 3);\n@tunable(x, 1, 5, 3);",
		"use before declaration": `register r {
    width : 8;
    instance_count : later;
}
@tunable(later, 1, 10, 5);`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestBindingsHelpers(t *testing.T) {
	b, err := ParseBindings(" cells=2048, threshold=9 ")
	if err != nil {
		t.Fatalf("parse bindings: %v", err)
	}
	if b["cells"] != 2048 || b["threshold"] != 9 {
		t.Fatalf("bindings = %v", b)
	}
	if got := FormatBindings(b); got != "cells=2048,threshold=9" {
		t.Fatalf("format = %q", got)
	}
	if FormatBindings(nil) != "" {
		t.Fatal("nil bindings should format empty")
	}
	for _, bad := range []string{"cells", "=5", "cells=abc"} {
		if _, err := ParseBindings(bad); err == nil {
			t.Errorf("ParseBindings(%q): expected error", bad)
		}
	}

	prog := MustParse(tunableSrc)
	resolved, err := ResolveBindings(prog, map[string]int{"cells": 2048})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if resolved["cells"] != 2048 || resolved["threshold"] != 25 {
		t.Fatalf("resolved = %v", resolved)
	}
}
