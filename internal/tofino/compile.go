package tofino

import (
	"fmt"
	"sort"
	"strings"

	"p2go/internal/deps"
	"p2go/internal/ir"
	"p2go/internal/p4"
)

// Result bundles the compiler outputs P2GO consumes: "(i) the actual
// mapping of the program to the physical stages; (ii) the dependency
// graph; and (iii) the control graph, containing all possible execution
// paths packets may take through the program". The first two are computed
// by Compile; the control graph is enumerated on demand by Paths, because
// no optimizer decision reads it and it grows exponentially with the
// number of sequentially applied tables.
type Result struct {
	AST     *p4.Program
	IR      *ir.Program
	Deps    *deps.Graph
	Mapping *Mapping
}

// Paths enumerates the control graph: every execution path through the
// ingress control, sorted. It fails when the graph exceeds ir.MaxPaths.
func (r *Result) Paths() ([]ir.Path, error) {
	paths, err := r.IR.EnumeratePaths()
	if err != nil {
		return nil, fmt.Errorf("tofino: %w", err)
	}
	return paths, nil
}

// Compile checks, lowers, analyzes, and stage-allocates a program against
// the target. Compilation succeeds even when the program does not fit the
// physical stage count (Mapping.Fits == false) so that P2GO can profile
// oversized programs in simulation.
func Compile(ast *p4.Program, tgt Target) (*Result, error) {
	if err := p4.Check(ast); err != nil {
		return nil, fmt.Errorf("tofino: %w", err)
	}
	prog, err := ir.Build(ast)
	if err != nil {
		return nil, fmt.Errorf("tofino: %w", err)
	}
	g := deps.Build(prog)
	mapping, err := Allocate(prog, g, tgt)
	if err != nil {
		return nil, err
	}
	return &Result{AST: ast, IR: prog, Deps: g, Mapping: mapping}, nil
}

// CompileSource parses src and compiles it.
func CompileSource(src string, tgt Target) (*Result, error) {
	ast, err := p4.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("tofino: %w", err)
	}
	return Compile(ast, tgt)
}

// Render prints the mapping in the style of the paper's Table 2: one column
// per stage, listing the tables whose memory lives there.
func (m *Mapping) Render() string {
	var b strings.Builder
	fits := "fits"
	if !m.Fits {
		fits = fmt.Sprintf("DOES NOT FIT (%d physical stages)", m.Target.Stages)
	}
	fmt.Fprintf(&b, "stages used: %d (%s)\n", m.StagesUsed, fits)
	for s := 1; s <= m.StagesUsed; s++ {
		tables := m.TablesInStage(s)
		fmt.Fprintf(&b, "  stage %2d: %s\n", s, strings.Join(tables, ", "))
	}
	if m.EgressStagesUsed > 0 {
		fmt.Fprintf(&b, "egress stages used: %d\n", m.EgressStagesUsed)
		for s := 1; s <= m.EgressStagesUsed; s++ {
			tables := m.TablesInStageOf(p4.EgressControl, s)
			fmt.Fprintf(&b, "  egress stage %2d: %s\n", s, strings.Join(tables, ", "))
		}
	}
	return b.String()
}

// Summary returns a compact one-line mapping like
// "[IPv4][IPv4][ACL_UDP ACL_DHCP][Sketch_1]..." for logs and tests.
func (m *Mapping) Summary() string {
	var parts []string
	for s := 1; s <= m.StagesUsed; s++ {
		parts = append(parts, "["+strings.Join(m.TablesInStage(s), " ")+"]")
	}
	return strings.Join(parts, "")
}

// StageOccupancy reports per-stage memory utilization, for the memory
// experiments and observability.
type StageOccupancy struct {
	Stage    int
	SRAMUsed int
	TCAMUsed int
	Tables   []string
}

// Occupancy computes per-stage utilization from the placements.
func (m *Mapping) Occupancy() []StageOccupancy {
	occ := map[int]*StageOccupancy{}
	for _, p := range m.Placements {
		for s, n := range p.SRAMByStage {
			o := occ[s]
			if o == nil {
				o = &StageOccupancy{Stage: s}
				occ[s] = o
			}
			o.SRAMUsed += n
		}
		for s, n := range p.TCAMByStage {
			o := occ[s]
			if o == nil {
				o = &StageOccupancy{Stage: s}
				occ[s] = o
			}
			o.TCAMUsed += n
		}
		for s := p.First; s <= p.Last; s++ {
			o := occ[s]
			if o == nil {
				o = &StageOccupancy{Stage: s}
				occ[s] = o
			}
			o.Tables = append(o.Tables, p.Table)
		}
	}
	var out []StageOccupancy
	for _, o := range occ {
		sort.Strings(o.Tables)
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}
