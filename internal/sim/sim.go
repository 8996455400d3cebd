// Package sim is a behavioral simulator for the P4 subset: it parses
// packets with the program's parser, matches installed rules
// (exact/lpm/ternary/range/valid), executes primitive actions including
// register arrays and hash computations, and emits the possibly modified
// packet. It stands in for the Tofino behavioral simulator P2GO profiles
// against; drops follow RMT semantics (a drop marks the packet but the
// rest of the pipeline still executes).
package sim

import (
	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/rt"
)

// Port values with special meaning, mirroring internal/programs.
const (
	// DropPort is the egress_spec value drop() installs.
	DropPort = 511
	// CPUPort redirects a packet to the controller.
	CPUPort = 255
)

// Options tunes a Switch.
type Options struct {
	// Trailer names a header instance that is appended to every outgoing
	// packet (under ObservePacket only). Empty means none. Only bench's
	// plans of profile.Instrument's clone and tests set it.
	Trailer string
	// NeutralizeDrops rewrites drop semantics so marked packets still
	// egress; the drop is still recorded in Output.WouldDrop. Only bench
	// and tests set it.
	NeutralizeDrops bool
	// Interpret forces the tree-walking interpreter — the reference engine
	// for differential tests and the bench harness's before/after rows.
	// It is the only way to run it: without Interpret a program that does
	// not lower is a construction error.
	Interpret bool
	// Observe says how much of a processed packet the plan's only caller
	// reads, and neither engine computes more than that: at ObserveFate the
	// interpreter, too, returns execution marks and skips serialization (at
	// ObservePacket it stays the byte-exact reference). It is set in code by
	// the two replay loops that read less than the packet — the profile
	// collector and the controller's verdict loops — and by nothing a user
	// can reach.
	Observe Observation
}

// Observation is what the caller of a compiled plan reads off each Output.
// Whatever the level, Port, Dropped, WouldDrop, ToCPU and ForwardPort, the
// register and counter state, and every packet-time error are exact.
type Observation uint8

const (
	// ObservePacket: all of Output. Data is the whole outgoing packet.
	ObservePacket Observation = iota
	// ObserveFate: Data is the packet's execution marks (see Marks), Exec
	// is nil.
	ObserveFate
)

func (o Observation) String() string {
	if o == ObserveFate {
		return "fate"
	}
	return "packet"
}

// Switch is an instantiated data plane: a compiled program plus installed
// rules and register state.
type Switch struct {
	prog *ir.Program
	cfg  *rt.Config
	opts Options

	widths map[ir.FieldKey]int
	// slab backs every register array (registers and regArr hold sub-slices
	// of it); it comes from the free list in slab.go and goes back on
	// Release.
	slab      []uint64
	registers map[string][]uint64
	counters  map[string][]CounterCell
	tables    map[string]*tableState

	// plan is the shared immutable execution plan; unless it was built
	// with Options.Interpret (plan.c == nil) Process runs the flat bytecode
	// engine in exec.go instead of the tree-walking interpreter.
	plan *Plan
	// regArr/ctrArr alias the registers/counters maps by the plan's dense
	// ids; crules holds per-Switch rule lists (shared with the plan until
	// InstallRule copies on write).
	regArr [][]uint64
	ctrArr [][]CounterCell
	crules [][]cRule
	// cst is the compiled engine's per-packet state, reused across calls.
	cst cstate

	// scratch is the per-packet evaluation state, reused across Process
	// calls so the hot replay path does not rebuild three maps per
	// packet. Process was already not safe for concurrent use on one
	// Switch (register and counter state); replay parallelism runs one
	// Switch per worker instead.
	scratch state
}

// CounterCell is one counter entry.
type CounterCell struct {
	Packets uint64
	Bytes   uint64
}

// tableState holds the installed rules of one table, pre-indexed.
type tableState struct {
	decl  *p4.TableDecl
	rules []rt.Rule
	// defaultOverride is the runtime table_set_default entry, if any.
	defaultOverride *rt.DefaultEntry
}

// effectiveDefault returns the action and argument source to run on a
// miss: the runtime override when present, otherwise the declared default
// (with its expression arguments).
func (ts *tableState) effectiveDefault() (action string, argValues []uint64, argExprs []p4.Expr) {
	if ts.defaultOverride != nil {
		return ts.defaultOverride.Action, ts.defaultOverride.Args, nil
	}
	return ts.decl.DefaultAction, nil, ts.decl.DefaultArgs
}

// New builds a Switch. The configuration is validated against the program.
// Equivalent to NewPlan followed by NewFromPlan; callers replaying the
// same (program, config, options) on several Switches — sharded replay,
// repeated optimizer phases — should build the Plan once and share it.
func New(prog *ir.Program, cfg *rt.Config, opts Options) (*Switch, error) {
	pl, err := NewPlan(prog, cfg, opts)
	if err != nil {
		return nil, err
	}
	return NewFromPlan(pl), nil
}

// NewFromAST boots a Switch from a parsed program: NewPlanFromAST followed
// by NewFromPlan.
func NewFromAST(ast *p4.Program, cfg *rt.Config, opts Options) (*Switch, error) {
	pl, err := NewPlanFromAST(ast, cfg, opts)
	if err != nil {
		return nil, err
	}
	return NewFromPlan(pl), nil
}

// NewPlanFromAST builds a Plan from a parsed program: it type-checks a clone
// (p4.Check declares the intrinsic standard_metadata the pipeline reads, so
// an AST that never went through it would not lower), builds the IR, and
// calls NewPlan. The caller's AST is left untouched.
func NewPlanFromAST(ast *p4.Program, cfg *rt.Config, opts Options) (*Plan, error) {
	ast = p4.Clone(ast)
	if err := p4.Check(ast); err != nil {
		return nil, err
	}
	prog, err := ir.Build(ast)
	if err != nil {
		return nil, err
	}
	return NewPlan(prog, cfg, opts)
}

// NewFromPlan instantiates a Switch over a shared execution plan. Only
// mutable state (registers, counters, scratch) is allocated; the lowered
// program, rule sets, and widths are shared with the plan. Register state
// is zeroed memory recycled from Switches that were Released; a caller done
// with a Switch should Release it (one that is not is simply collected).
func NewFromPlan(pl *Plan) *Switch {
	s := &Switch{
		prog:      pl.prog,
		cfg:       pl.cfg,
		opts:      pl.opts,
		plan:      pl,
		widths:    pl.widths,
		registers: map[string][]uint64{},
		counters:  map[string][]CounterCell{},
		tables:    map[string]*tableState{},
	}
	prog := pl.prog
	cells := 0
	for _, r := range prog.AST.Registers {
		cells += r.InstanceCount
	}
	s.slab = takeSlab(cells)
	off := 0
	for _, r := range prog.AST.Registers {
		end := off + r.InstanceCount
		s.registers[r.Name] = s.slab[off:end:end]
		off = end
	}
	for _, c := range prog.AST.Counters {
		s.counters[c.Name] = make([]CounterCell, c.InstanceCount)
	}
	for _, t := range prog.AST.Tables {
		s.tables[t.Name] = &tableState{
			decl:            t,
			rules:           pl.tableRules[t.Name],
			defaultOverride: pl.defaults[t.Name],
		}
	}
	if c := pl.c; c != nil {
		s.regArr = make([][]uint64, len(c.regs))
		for i, r := range c.regs {
			s.regArr[i] = s.registers[r.name]
		}
		s.ctrArr = make([][]CounterCell, len(c.ctrs))
		for i, ct := range c.ctrs {
			s.ctrArr[i] = s.counters[ct.name]
		}
		s.crules = make([][]cRule, len(c.tables))
		for i := range c.tables {
			s.crules[i] = c.tables[i].rules
		}
		s.cst.init(c)
	}
	return s
}

// Reset clears all register and counter state.
func (s *Switch) Reset() {
	clear(s.slab)
	for _, c := range s.counters {
		clear(c)
	}
}

// Release hands the Switch's register memory back for the next NewFromPlan
// to reuse. The Switch is finished: it has no registers any more, so any
// register access a later packet makes is an error. Calling Release again
// does nothing.
func (s *Switch) Release() {
	putSlab(s.slab)
	s.slab = nil
	clear(s.registers)
	clear(s.regArr)
}

// Register returns a copy of a register array's contents (for tests and
// the controller's equivalence checks).
func (s *Switch) Register(name string) []uint64 {
	r, ok := s.registers[name]
	if !ok {
		return nil
	}
	return append([]uint64(nil), r...)
}

// Counter returns a copy of a counter array's contents.
func (s *Switch) Counter(name string) []CounterCell {
	c, ok := s.counters[name]
	if !ok {
		return nil
	}
	return append([]CounterCell(nil), c...)
}

// Input is one packet entering the pipeline.
type Input struct {
	Port uint64
	Data []byte
}

// Executed records one table application.
type Executed struct {
	Table  string
	Action string
	Hit    bool
}

// Output is the result of processing one packet.
type Output struct {
	// Port is the final egress_spec.
	Port uint64
	// Data is the serialized outgoing packet (with field modifications
	// written back and the trailer appended, when configured), or under
	// ObserveFate the execution marks.
	Data []byte
	// Dropped is true when the packet was dropped (egress_spec ==
	// DropPort and drops are not neutralized).
	Dropped bool
	// WouldDrop is true when a drop primitive executed, even if drops
	// are neutralized.
	WouldDrop bool
	// ToCPU is true when the packet was redirected to the controller.
	ToCPU bool
	// ForwardPort is the last egress_spec value written that was not the
	// CPU port: the forwarding decision the pipeline made before (or
	// independent of) a controller redirect. Real switches preserve it
	// across copy-to-CPU; the composed deployment (optimized data plane
	// + controller) uses it to forward packets the controller passes.
	ForwardPort uint64
	// Exec lists the tables applied, in order, with the chosen action.
	Exec []Executed
}

// Outcome is what a verdict reads of an Output, in two bytes: the dropped
// and to-CPU flags and a nine-bit port, Port or, for a packet redirected to
// the controller, ForwardPort (ToCPU means Port is CPUPort, so it need not
// be kept). Both ports are egress_spec values, which p4.Check holds to the
// builtin nine bits. A replay records one per packet, so a later check of
// the same program on the same trace reads the fates instead of replaying
// them.
type Outcome uint16

const (
	outcomeDropped Outcome = 1 << 15
	outcomeToCPU   Outcome = 1 << 14
	outcomePort    Outcome = 1<<9 - 1
)

// Outcome packs the output.
func (o *Output) Outcome() Outcome {
	var c Outcome
	port := o.Port
	if o.ToCPU {
		port, c = o.ForwardPort, outcomeToCPU
	}
	if o.Dropped {
		c |= outcomeDropped
	}
	return c | Outcome(port)&outcomePort
}

// Output unpacks the outcome into the fields a verdict reads: Port, Dropped,
// ToCPU and, for a redirected packet, ForwardPort.
func (c Outcome) Output() Output {
	out := Output{Port: uint64(c & outcomePort), Dropped: c&outcomeDropped != 0, ToCPU: c&outcomeToCPU != 0}
	if out.ToCPU {
		out.Port, out.ForwardPort = CPUPort, out.Port
	}
	return out
}

// state is the per-packet evaluation state.
type state struct {
	fields  map[ir.FieldKey]uint64
	valid   map[string]bool
	extents map[string]headerExtent
	exec    []Executed
	// arena backs a fate plan's execution marks, like the compiled
	// engine's.
	arena     []byte
	wouldDrop bool
	// forwardPort tracks the last non-CPU egress_spec write.
	forwardPort uint64
}

// headerExtent records where an extracted header lives in the packet.
type headerExtent struct {
	bitOffset int
}

// Process runs one packet through parser and ingress control. It is not
// safe for concurrent use on one Switch (register, counter, and scratch
// state); run one Switch per goroutine instead.
func (s *Switch) Process(in Input) (Output, error) {
	if !s.useCompiled() {
		s.scratch.arena = s.scratch.arena[:0]
		return s.processInterp(in)
	}
	var out Output
	s.cst.arena = s.cst.arena[:0]
	err := s.processCompiled(&in, &out, false, false)
	return out, err
}

// processInterp is the tree-walking reference engine. On a fate plan it
// reads the packet's execution marks off its exec list and serializes
// nothing: no packet copy, write-back or calculated-field update changes a
// fate.
func (s *Switch) processInterp(in Input) (Output, error) {
	st := &s.scratch
	fate := s.plan.markOf != nil
	if st.fields == nil {
		st.fields = make(map[ir.FieldKey]uint64, 32)
		st.valid = make(map[string]bool, 8)
		st.extents = make(map[string]headerExtent, 8)
	} else {
		clear(st.fields)
		clear(st.valid)
		clear(st.extents)
	}
	// Exec escapes into a packet-level Output, so there it alone is
	// allocated per packet; a fate plan keeps it.
	if fate {
		st.exec = st.exec[:0]
	} else {
		st.exec = nil
	}
	st.wouldDrop = false
	st.forwardPort = 0
	st.fields[ir.FieldKey(p4.StandardMetadataName+"."+p4.FieldIngressPort)] = in.Port
	st.fields[ir.FieldKey(p4.StandardMetadataName+"."+p4.FieldPacketLength)] = uint64(len(in.Data))

	if len(s.prog.AST.ParserStates) > 0 {
		if err := s.runParser(st, in.Data); err != nil {
			return Output{}, err
		}
	}
	if err := s.runBlock(st, s.prog.Ingress.Body); err != nil {
		return Output{}, err
	}
	// Egress pipeline: runs after ingress for packets that survive it
	// (dropped and controller-bound packets skip egress, as on real
	// hardware). egress_port carries the queued forwarding decision.
	if s.prog.Egress != nil {
		spec := st.fields[ir.FieldKey(p4.StandardMetadataName+"."+p4.FieldEgressSpec)]
		skip := spec == CPUPort || (spec == DropPort && !s.opts.NeutralizeDrops)
		if !skip {
			s.setField(st, ir.FieldKey(p4.StandardMetadataName+"."+p4.FieldEgressPort), spec)
			if err := s.runBlock(st, s.prog.Egress.Body); err != nil {
				return Output{}, err
			}
		}
	}

	out := Output{WouldDrop: st.wouldDrop, ForwardPort: st.forwardPort}
	out.Port = st.fields[ir.FieldKey(p4.StandardMetadataName+"."+p4.FieldEgressSpec)]
	if out.Port == DropPort && !s.opts.NeutralizeDrops {
		out.Dropped = true
	}
	if out.Port == CPUPort {
		out.ToCPU = true
	}
	if fate {
		out.Data = s.plan.takeMarks(&st.arena)
		for _, e := range st.exec {
			if m, ok := s.plan.markOf[[2]string{e.Table, e.Action}]; ok {
				out.Data[m] = 1
			}
		}
		return out, nil
	}
	out.Exec = st.exec
	out.Data = s.serialize(st, in.Data)
	return out, nil
}

// serialize applies calculated-field updates (e.g. the IPv4 header
// checksum), writes modified header fields back into a copy of the packet,
// and appends the trailer header, if configured.
func (s *Switch) serialize(st *state, original []byte) []byte {
	s.applyCalculatedFields(st)
	data := append([]byte(nil), original...)
	for _, inst := range s.prog.AST.Instances {
		if inst.Metadata || !st.valid[inst.Name] {
			continue
		}
		ext, ok := st.extents[inst.Name]
		if !ok {
			continue
		}
		ht := s.prog.AST.HeaderType(inst.TypeName)
		bit := ext.bitOffset
		for _, f := range ht.Fields {
			v := st.fields[ir.FieldKey(inst.Name+"."+f.Name)]
			writeBits(data, bit, f.Width, v)
			bit += f.Width
		}
	}
	if s.opts.Trailer != "" {
		inst := s.prog.AST.Instance(s.opts.Trailer)
		ht := s.prog.AST.HeaderType(inst.TypeName)
		trailer := make([]byte, (ht.Bits()+7)/8)
		bit := 0
		for _, f := range ht.Fields {
			v := st.fields[ir.FieldKey(inst.Name+"."+f.Name)]
			writeBits(trailer, bit, f.Width, v)
			bit += f.Width
		}
		data = append(data, trailer...)
	}
	return data
}

// applyCalculatedFields recomputes every calculated field whose header
// instance is valid — the deparser-side "update" clause of P4_14
// calculated_field declarations.
func (s *Switch) applyCalculatedFields(st *state) {
	for _, cf := range s.prog.AST.CalcFields {
		if cf.Update == "" || !st.valid[cf.Field.Instance] {
			continue
		}
		v, err := s.computeHash(st, cf.Update)
		if err != nil {
			continue // checked at build time; defensive only
		}
		s.setField(st, ir.Key(cf.Field), v)
	}
}
