// Package tofino models an RMT-style switch target (a stand-in for the
// Barefoot Tofino compiler backend, whose real memory model is under NDA)
// and implements the table-to-stage allocator. It produces the three
// compiler outputs P2GO consumes: the stage mapping, the dependency graph,
// and the control graph.
//
// The memory model is deliberately simple and fully documented (DESIGN.md
// §2): each stage has an SRAM and a TCAM budget; exact-match entries and
// action data consume SRAM, lpm/ternary keys consume TCAM (key+mask),
// register arrays consume SRAM and are atomic (a register lives in exactly
// one stage). Only relative effects matter for the paper's experiments — a
// table narrowly exceeding a stage forces an extra stage — and those
// crossovers are what the model reproduces.
package tofino

import (
	"fmt"

	"p2go/internal/ir"
	"p2go/internal/p4"
)

// Target describes the hardware resources of the switch pipeline.
type Target struct {
	// Stages is the number of physical ingress stages.
	Stages int
	// StageSRAMBytes is the SRAM budget per stage (exact-match entries,
	// action data, register cells).
	StageSRAMBytes int
	// StageTCAMBytes is the TCAM budget per stage (lpm/ternary keys).
	StageTCAMBytes int
	// MaxTablesPerStage bounds how many logical tables may share a stage.
	MaxTablesPerStage int
	// StageALUs bounds the action units available per stage (each
	// primitive call of a table's widest action consumes one). Zero
	// means unconstrained — the default, matching the paper's focus on
	// stages as the one optimized resource. Setting it exercises the
	// multi-dimensional optimization space of §6.
	StageALUs int
}

// Key renders the hardware model the way every content-addressed cache key
// spells it (core's compile keys, fleet's device keys): all fields, in
// declaration order, "/"-separated. The spelling is part of the on-disk
// key format — changing it orphans every spilled entry.
func (t Target) Key() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", t.Stages, t.StageSRAMBytes, t.StageTCAMBytes,
		t.MaxTablesPerStage, t.StageALUs)
}

// DefaultTarget returns the target model used throughout the reproduction:
// 12 stages, 256 KiB SRAM and 64 KiB TCAM per stage, 16 tables per stage.
func DefaultTarget() Target {
	return Target{
		Stages:            12,
		StageSRAMBytes:    256 * 1024,
		StageTCAMBytes:    64 * 1024,
		MaxTablesPerStage: 16,
	}
}

// Cost is the memory footprint of a table, split by resource.
type Cost struct {
	SRAMBytes int // exact keys + action data + overhead + registers
	TCAMBytes int // lpm/ternary keys (stored as key+mask)
	// RegisterBytes is the portion of SRAMBytes owned by register arrays;
	// it is atomic and cannot span stages.
	RegisterBytes int
	// ALUs is the action-unit demand: the primitive count of the
	// table's widest action.
	ALUs int
}

// Per-entry cost constants of the model.
const (
	entryOverheadBytes = 4  // pointers, next-table, validity
	actionParamBytes   = 4  // action data per parameter
	minTableBytes      = 64 // bookkeeping for a table with no match entries
)

// TableCost computes the memory cost of a table under this model.
func TableCost(prog *ir.Program, t *ir.Table) Cost {
	var c Cost
	exactKey := 0
	tcamKey := 0
	for _, r := range t.Decl.Reads {
		var bytes int
		if r.Kind == p4.MatchValid {
			bytes = 1
		} else {
			bytes = fieldBytes(prog.AST, r.Field)
		}
		switch r.Kind {
		case p4.MatchLPM, p4.MatchTernary, p4.MatchRange:
			tcamKey += bytes
		default:
			exactKey += bytes
		}
	}
	actionData := 0
	for _, a := range t.Actions {
		if n := len(a.Decl.Params) * actionParamBytes; n > actionData {
			actionData = n
		}
		if n := len(a.Decl.Body); n > c.ALUs {
			c.ALUs = n
		}
	}
	if c.ALUs == 0 {
		c.ALUs = 1 // even a no-op table occupies an action slot
	}
	size := t.Decl.Size
	if size <= 0 {
		size = 1
	}
	if tcamKey > 0 {
		c.TCAMBytes = size * tcamKey * 2 // key + mask
		c.SRAMBytes = size * (actionData + entryOverheadBytes)
	} else if exactKey > 0 {
		c.SRAMBytes = size * (exactKey + actionData + entryOverheadBytes)
	} else {
		c.SRAMBytes = minTableBytes
	}
	if c.SRAMBytes < minTableBytes {
		c.SRAMBytes = minTableBytes
	}
	for _, reg := range t.Registers {
		r := prog.AST.Register(reg)
		if r == nil {
			continue
		}
		bytes := r.InstanceCount * ((r.Width + 7) / 8)
		c.RegisterBytes += bytes
		c.SRAMBytes += bytes
	}
	for _, ctr := range t.Counters {
		cd := prog.AST.Counter(ctr)
		if cd == nil {
			continue
		}
		bytes := cd.InstanceCount * counterCellBytes
		c.RegisterBytes += bytes // counters are stateful: atomic like registers
		c.SRAMBytes += bytes
	}
	return c
}

// counterCellBytes is the per-cell cost of a counter (64-bit count).
const counterCellBytes = 8

func fieldBytes(ast *p4.Program, ref p4.FieldRef) int {
	inst := ast.Instance(ref.Instance)
	if inst == nil {
		return 4
	}
	ht := ast.HeaderType(inst.TypeName)
	if ht == nil {
		return 4
	}
	f := ht.Field(ref.Field)
	if f == nil {
		return 4
	}
	return (f.Width + 7) / 8
}

// Placement records where one table landed.
type Placement struct {
	Table string
	// Pipeline is the physical pipeline (p4.IngressControl or
	// p4.EgressControl) the stages below refer to.
	Pipeline string
	First    int // first stage (1-based)
	Last     int // last stage (inclusive)
	// SRAMByStage / TCAMByStage give the bytes consumed in each stage.
	SRAMByStage map[int]int
	TCAMByStage map[int]int
	Cost        Cost
}

// Stages returns the number of stages the placement spans.
func (p *Placement) Stages() int { return p.Last - p.First + 1 }

// Mapping is the result of stage allocation.
type Mapping struct {
	Target     Target
	Placements []*Placement // control order
	// StagesUsed is the number of ingress stages the program needs — the
	// resource the paper optimizes. It may exceed Target.Stages, in which
	// case Fits is false ("P2GO could compile and profile the program in
	// simulation, independently of the required resources").
	StagesUsed int
	// EgressStagesUsed is the egress pipeline's stage count (0 when the
	// program has no egress control).
	EgressStagesUsed int
	Fits             bool

	byTable map[string]*Placement
}

// Placement returns the placement of the named table, or nil.
func (m *Mapping) Placement(table string) *Placement { return m.byTable[table] }

// TablesInStage lists the ingress tables occupying the given stage, in
// control order.
func (m *Mapping) TablesInStage(stage int) []string {
	return m.TablesInStageOf(p4.IngressControl, stage)
}

// TablesInStageOf lists the tables of one pipeline occupying the given
// stage, in control order.
func (m *Mapping) TablesInStageOf(pipeline string, stage int) []string {
	var out []string
	for _, p := range m.Placements {
		if p.Pipeline == pipeline && p.First <= stage && stage <= p.Last {
			out = append(out, p.Table)
		}
	}
	return out
}

// stageState tracks remaining capacity while allocating.
type stageState struct {
	sramFree   int
	tcamFree   int
	tableSlots int
	aluFree    int // -1 when unconstrained
}

// ErrRegisterTooLarge is returned when a register array exceeds one stage's
// SRAM: registers are atomic in RMT and cannot span stages.
type ErrRegisterTooLarge struct {
	Table string
	Bytes int
	Limit int
}

func (e *ErrRegisterTooLarge) Error() string {
	return fmt.Sprintf("tofino: table %s needs %d bytes of atomic stage memory but a stage has %d",
		e.Table, e.Bytes, e.Limit)
}

// Allocate maps the program's tables to stages. Placement is monotone in
// control order (a table never lands before the previous table's last
// stage), dependency edges force strictly later stages than the
// predecessor's last stage, and tables without conflicting dependencies
// co-locate when stage memory and table slots allow. Tables whose match
// memory exceeds a stage span consecutive stages; tables with register
// arrays are atomic.
//
// Allocation always succeeds with a mapping (possibly Fits == false) unless
// an atomic table exceeds single-stage memory.
func Allocate(prog *ir.Program, g DependencyEdges, tgt Target) (*Mapping, error) {
	const maxStages = 256 // simulation headroom beyond the physical target
	newStates := func() []stageState {
		states := make([]stageState, maxStages+1) // 1-based
		for i := range states {
			states[i] = stageState{
				sramFree:   tgt.StageSRAMBytes,
				tcamFree:   tgt.StageTCAMBytes,
				tableSlots: tgt.MaxTablesPerStage,
				aluFree:    tgt.StageALUs,
			}
			if tgt.StageALUs == 0 {
				states[i].aluFree = -1
			}
		}
		return states
	}
	// Ingress and egress are physically separate pipelines.
	pipelineStates := map[string][]stageState{
		p4.IngressControl: newStates(),
		p4.EgressControl:  newStates(),
	}
	m := &Mapping{Target: tgt, byTable: map[string]*Placement{}}
	lastStage := map[string]int{}
	prevLast := map[string]int{}
	for _, t := range prog.Ordered {
		cost := TableCost(prog, t)
		atomicBytes := cost.RegisterBytes
		if atomicBytes > 0 {
			// Registers pin the whole table to one stage.
			atomicBytes = cost.SRAMBytes
		}
		if atomicBytes > tgt.StageSRAMBytes {
			return nil, &ErrRegisterTooLarge{Table: t.Name, Bytes: atomicBytes, Limit: tgt.StageSRAMBytes}
		}
		minStage := 1
		if prevLast[t.Pipeline] > minStage {
			minStage = prevLast[t.Pipeline]
		}
		for _, pred := range g.Predecessors(t.Name) {
			if s, ok := lastStage[pred]; ok && s+1 > minStage {
				minStage = s + 1
			}
		}
		pl, err := place(t.Name, cost, atomicBytes > 0, pipelineStates[t.Pipeline], minStage, maxStages)
		if err != nil {
			return nil, err
		}
		pl.Pipeline = t.Pipeline
		m.Placements = append(m.Placements, pl)
		m.byTable[t.Name] = pl
		lastStage[t.Name] = pl.Last
		switch t.Pipeline {
		case p4.EgressControl:
			if pl.Last > m.EgressStagesUsed {
				m.EgressStagesUsed = pl.Last
			}
		default:
			if pl.Last > m.StagesUsed {
				m.StagesUsed = pl.Last
			}
		}
		prevLast[t.Pipeline] = pl.Last
	}
	m.Fits = m.StagesUsed <= tgt.Stages && m.EgressStagesUsed <= tgt.Stages
	return m, nil
}

// place finds the first feasible stage >= minStage and consumes memory.
func place(name string, cost Cost, atomic bool, states []stageState, minStage, maxStages int) (*Placement, error) {
	aluOK := func(st *stageState) bool { return st.aluFree < 0 || st.aluFree >= cost.ALUs }
	takeALU := func(st *stageState) {
		if st.aluFree >= 0 {
			st.aluFree -= cost.ALUs
		}
	}
	for s := minStage; s <= maxStages; s++ {
		if atomic {
			st := &states[s]
			if st.tableSlots >= 1 && st.sramFree >= cost.SRAMBytes && st.tcamFree >= cost.TCAMBytes && aluOK(st) {
				st.tableSlots--
				st.sramFree -= cost.SRAMBytes
				st.tcamFree -= cost.TCAMBytes
				takeALU(st)
				return &Placement{
					Table: name, First: s, Last: s, Cost: cost,
					SRAMByStage: map[int]int{s: cost.SRAMBytes},
					TCAMByStage: map[int]int{s: cost.TCAMBytes},
				}, nil
			}
			continue
		}
		// Spanning placement: start here if the stage has any usable
		// capacity in every dimension the table needs, then spill.
		st := &states[s]
		if st.tableSlots < 1 || !aluOK(st) {
			continue
		}
		if (cost.SRAMBytes > 0 && st.sramFree <= 0) || (cost.TCAMBytes > 0 && st.tcamFree <= 0) {
			continue
		}
		// The match+action logic lives in the first stage; spill stages
		// hold overflow memory only.
		takeALU(st)
		pl := &Placement{Table: name, First: s, Cost: cost,
			SRAMByStage: map[int]int{}, TCAMByStage: map[int]int{}}
		sram, tcam := cost.SRAMBytes, cost.TCAMBytes
		last := s
		for cur := s; cur <= maxStages && (sram > 0 || tcam > 0); cur++ {
			cs := &states[cur]
			if cur > s && cs.tableSlots < 1 {
				// Cannot continue the span through a full stage.
				return nil, fmt.Errorf("tofino: table %s cannot span through full stage %d", name, cur)
			}
			took := false
			if sram > 0 && cs.sramFree > 0 {
				n := min(sram, cs.sramFree)
				cs.sramFree -= n
				sram -= n
				pl.SRAMByStage[cur] += n
				took = true
			}
			if tcam > 0 && cs.tcamFree > 0 {
				n := min(tcam, cs.tcamFree)
				cs.tcamFree -= n
				tcam -= n
				pl.TCAMByStage[cur] += n
				took = true
			}
			if took {
				cs.tableSlots--
				last = cur
			}
		}
		if sram > 0 || tcam > 0 {
			return nil, fmt.Errorf("tofino: table %s does not fit in %d simulated stages", name, maxStages)
		}
		pl.Last = last
		return pl, nil
	}
	return nil, fmt.Errorf("tofino: no feasible stage for table %s", name)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DependencyEdges abstracts the dependency graph for the allocator; the
// deps package's Graph satisfies it via an adapter to avoid an import
// cycle-free but concrete coupling.
type DependencyEdges interface {
	// Predecessors returns the tables that must finish in an earlier
	// stage than the given table.
	Predecessors(table string) []string
}
