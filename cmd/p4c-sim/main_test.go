package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWorkload(t *testing.T) {
	if err := run("natgre", "", false, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run("ex1", "", true, true, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunProgramFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.p4")
	src := `
action a() { no_op(); }
table t { actions { a; } default_action : a; }
control ingress { apply(t); }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", path, false, false, 4); err != nil {
		t.Fatal(err)
	}
}

// TestRunPathsBeyondBound: a program whose control graph exceeds the
// enumeration bound still prints its mapping and dependency graph; -paths
// reports the bound in its own section instead of failing the run.
func TestRunPathsBeyondBound(t *testing.T) {
	var src strings.Builder
	src.WriteString("action a() { no_op(); }\n")
	for i := 0; i < 17; i++ {
		fmt.Fprintf(&src, "table t%d { actions { a; } default_action : a; }\n", i)
	}
	src.WriteString("control ingress {\n")
	for i := 0; i < 17; i++ {
		fmt.Fprintf(&src, "    apply(t%d);\n", i)
	}
	src.WriteString("}\n")
	path := filepath.Join(t.TempDir(), "wide.p4")
	if err := os.WriteFile(path, []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", path, false, true, 0); err != nil {
		t.Fatalf("-paths on a 2^17-path program failed the run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("no-such-workload", "", false, false, 0); err == nil {
		t.Error("unknown workload should fail")
	}
	if err := run("", "/nonexistent/file.p4", false, false, 0); err == nil {
		t.Error("missing file should fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.p4")
	if err := os.WriteFile(bad, []byte("not p4"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", bad, false, false, 0); err == nil {
		t.Error("invalid program should fail")
	}
}
