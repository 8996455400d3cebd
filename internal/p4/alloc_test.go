package p4_test

import (
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
)

func checkedEx1(t *testing.T) *p4.Program {
	t.Helper()
	ast := p4.MustParse(programs.Ex1)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	return ast
}

// TestAppendProgramAllocs: printing into a buffer that is large enough
// allocates nothing, which is what keying every candidate on its printed
// text rests on (the fmt-based printer made 280 allocations for ex1).
func TestAppendProgramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not apply under -race")
	}
	ast := checkedEx1(t)
	buf := make([]byte, 0, 2*len(p4.Print(ast)))
	allocs := testing.AllocsPerRun(20, func() { buf = p4.AppendProgram(buf[:0], ast) })
	if string(buf) != p4.Print(ast) {
		t.Error("AppendProgram into a reused buffer differs from Print")
	}
	if allocs != 0 {
		t.Errorf("AppendProgram(ex1) made %.0f allocations into a large buffer, want 0", allocs)
	}
}

// TestCloneAllocCeiling: Clone shares the declarations nothing edits and
// carves the rest out of slabs. The clone that deep-copied every declaration
// through addDecl made 261 allocations for ex1; the ceiling is half of that.
func TestCloneAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not apply under -race")
	}
	ast := checkedEx1(t)
	var cp *p4.Program
	allocs := testing.AllocsPerRun(20, func() { cp = p4.Clone(ast) })
	if p4.Print(cp) != p4.Print(ast) {
		t.Error("clone prints differently")
	}
	t.Logf("Clone(ex1): %.0f allocations", allocs)
	if allocs > 130 {
		t.Errorf("Clone(ex1) made %.0f allocations, ceiling 130", allocs)
	}
}
