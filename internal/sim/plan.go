package sim

import (
	"fmt"

	"p2go/internal/hashes"
	"p2go/internal/ir"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/rt"
)

// Plan is an immutable, pre-lowered execution plan for one (program,
// config, options) triple. Building a Plan validates the configuration
// and — unless Options.Interpret is set — compiles the parser, both
// controls, every table, and every reachable action body into flat
// arrays: field
// references become dense slot indexes, match keys become pre-shifted
// comparisons, action bodies become straight-line op lists, and hit/miss
// and if/else arms become jump targets. A Plan holds no mutable state, so
// one Plan is shared by every worker Switch of a sharded replay; Switch
// construction from a Plan only allocates register/counter/scratch state.
//
// Lowering is total: a program that uses a construct the lowerer does not
// cover fails NewPlan. Only a Plan built with Options.Interpret runs the
// tree-walking interpreter, and Engine says so.
type Plan struct {
	prog   *ir.Program
	cfg    *rt.Config
	opts   Options
	widths map[ir.FieldKey]int
	// tableRules and defaults snapshot the config at plan time so every
	// Switch built from this plan — and both engines inside one Switch —
	// sees the same rule set.
	tableRules map[string][]rt.Rule
	defaults   map[string]*rt.DefaultEntry
	// markOf maps (table, action) to its execution-mark slot (Marks), the
	// miss slot under an empty action; nil unless the plan observes the
	// fate. Both engines number a packet's marks by it.
	markOf map[[2]string]int32

	c *compiled // nil: Options.Interpret
}

// Engine reports the execution engine Switches built from this plan use:
// "compiled" with an empty reason, or "interpreter" with the reason
// "forced" (Options.Interpret).
func (pl *Plan) Engine() (engine, reason string) {
	if pl.c != nil {
		return "compiled", ""
	}
	return "interpreter", "forced"
}

// NewPlan validates the configuration against the program and lowers the
// pipeline, returning validation and lowering errors alike. With
// Options.Interpret nothing is lowered: the interpreter runs (and fails at
// packet time with its own diagnostics) for any program that type-checks.
func NewPlan(prog *ir.Program, cfg *rt.Config, opts Options) (*Plan, error) {
	if cfg == nil {
		cfg = &rt.Config{}
	}
	if err := rt.Validate(cfg, prog); err != nil {
		return nil, err
	}
	if opts.Trailer != "" && prog.AST.Instance(opts.Trailer) == nil {
		return nil, fmt.Errorf("sim: trailer instance %q not declared", opts.Trailer)
	}
	pl := &Plan{
		prog:       prog,
		cfg:        cfg,
		opts:       opts,
		widths:     map[ir.FieldKey]int{},
		tableRules: map[string][]rt.Rule{},
		defaults:   map[string]*rt.DefaultEntry{},
	}
	for _, inst := range prog.AST.Instances {
		ht := prog.AST.HeaderType(inst.TypeName)
		for _, f := range ht.Fields {
			pl.widths[ir.FieldKey(inst.Name+"."+f.Name)] = f.Width
		}
	}
	for _, t := range prog.AST.Tables {
		pl.tableRules[t.Name] = cfg.ForTable(t.Name)
		pl.defaults[t.Name] = cfg.DefaultFor(t.Name)
	}
	if opts.Observe == ObserveFate {
		marks := Marks(prog.AST)
		pl.markOf = make(map[[2]string]int32, len(marks))
		for i, m := range marks {
			pl.markOf[[2]string{m.Table, m.Action}] = int32(i)
		}
	}
	if opts.Interpret {
		return pl, nil
	}
	c, err := compilePlan(pl)
	if err != nil {
		return nil, err
	}
	pl.c = c
	return pl, nil
}

// cexpr is a lowered arithmetic expression. The P4_14 subset has no
// compound arithmetic, so every expression is either a constant (integer
// literal, or an action parameter bound to an installed rule's argument)
// or a field slot read.
type cexpr struct {
	isConst bool
	c       uint64
	slot    int32
}

func constExpr(v uint64) cexpr  { return cexpr{isConst: true, c: v} }
func slotExpr(slot int32) cexpr { return cexpr{slot: slot} }
func (e cexpr) eval(st *cstate) uint64 {
	if e.isConst {
		return e.c
	}
	return st.fields[e.slot]
}

// cBool is a lowered boolean expression tree. Unlike the interpreter's
// evalBool it cannot fail at packet time: every operand was resolved at
// plan time.
type cBool struct {
	kind uint8 // bValid, bCmp, bAnd, bOr, bNot
	inst int32 // bValid
	op   uint8 // bCmp: cmpEq..cmpGe
	l, r cexpr
	a, b *cBool
}

const (
	bValid = iota
	bCmp
	bAnd
	bOr
	bNot
)

const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

// cInstr is one bytecode instruction of a lowered control block.
type cInstr struct {
	op   uint8 // ciApply, ciBrMiss, ciBrFalse, ciJump
	tbl  int32 // ciApply: table id
	tgt  int32 // branch/jump target pc
	cond *cBool
}

const (
	ciApply = iota
	ciBrMiss
	ciBrFalse
	ciJump
)

// cOp is one straight-line primitive of a lowered action body.
type cOp struct {
	kind uint8
	dst  int32 // destination field slot
	a, b cexpr
	res  int32  // register/counter/hash id
	mask uint64 // oRegWrite: register cell mask
}

const (
	oSet = iota
	oAdd
	oSub
	oAnd
	oOr
	oXor
	oMin
	oMax
	oDrop
	oRegRead
	oRegWrite
	oCount
	oHash
	// oBind evaluates a default-action argument expression into a scratch
	// slot at action entry, preserving the interpreter's bind-then-execute
	// order when an argument reads a field the body later modifies.
	oBind
)

// cBody is a lowered action invocation: the ops of one action with one
// specific argument binding (an installed rule's constants, or a default
// declaration's expressions).
type cBody struct {
	actionName string
	ops        []cOp
}

// cMatch is one pre-resolved match of an installed rule.
type cMatch struct {
	kind  uint8 // mExact, mAny, mLPM, mTernary, mRange
	value uint64
	mask  uint64
	hi    uint64
	shift uint8
}

const (
	mExact = iota
	mAny
	mLPM
	mTernary
	mRange
)

// cRecord is one apply's precomputed record: the Executed entry, and the
// execution-mark slot it sets in a fate plan (-1: none, or not a fate plan).
type cRecord struct {
	exec Executed
	mark int32
}

// cRule is one installed rule, lowered: matches pre-shifted/pre-masked,
// the LPM prefix sum and the apply record precomputed, the action body
// constant-folded over the rule's arguments.
type cRule struct {
	matches  []cMatch
	prefix   int
	priority int
	body     cBody
	rec      cRecord
}

// cKey is one component of a table's lookup key.
type cKey struct {
	valid bool  // valid-kind match: read the instance's validity bit
	inst  int32 // cKey.valid: instance id
	slot  int32 // otherwise: field slot
}

// cTable is one lowered table.
type cTable struct {
	name  string
	keys  []cKey // nil: read-less, always "hits"
	rules []cRule
	// def is the effective default action body (runtime override or
	// declared default); hasDef is false when the table has no default.
	hasDef  bool
	def     cBody
	defRec  cRecord // read-less apply record (Hit true)
	missRec cRecord // keyed-table miss record (Hit false)
}

// cPField is a (slot, width) pair used by parser extracts, select keys,
// hash inputs, and serialization. Extract and emit lists hold only the
// fields fieldLiveness kept, so each also carries its bit offset inside the
// header.
type cPField struct {
	slot  int32
	width int
	off   int
}

// cParserOp is one statement of a lowered parser state.
type cParserOp struct {
	extract bool
	inst    int32     // extract: instance id
	bits    int       // extract: header width
	fields  []cPField // extract: the live fields
	dst     int32     // set_metadata
	val     cexpr
}

// Parser next-state sentinels.
const (
	// nextIngress ends parsing and hands off to the ingress control.
	nextIngress = -1
	// nextStop ends parsing with no match and no default: the pipeline
	// still runs over whatever was parsed, exactly like the interpreter.
	nextStop = -2
)

// cSelCase is one lowered select arm.
type cSelCase struct {
	hasMask bool
	value   uint64
	mask    uint64
	next    int32
}

// cParserState is one lowered parser state.
type cParserState struct {
	ops []cParserOp
	// isSelect distinguishes the two return forms; plain returns use next.
	isSelect bool
	next     int32
	selOn    []cPField
	selCases []cSelCase
	// selDefault is the default arm's state, or -2 for "no default" (stop
	// parsing, run the pipeline).
	selDefault int32
}

// chash is a lowered field_list_calculation.
type chash struct {
	alg      hashes.Algorithm
	outWidth int
	fields   []cPField
	widths   []int // same order as fields, for bit packing
	// pre indexes the hash among those a pipelined replay may compute
	// ahead, at parse time: -1 unless every input is a field nothing
	// stores to after the parser (see finalHashes).
	pre int32
}

// cCalc is one deparser-side calculated-field update.
type cCalc struct {
	inst int32
	dst  int32
	hash int32 // chash id
}

// cEmit is the serialization write-back list of one header instance: the
// fields something may write. The rest re-serialize to the bits they were
// parsed from, which the copy of the input packet already holds. Only an
// ObservePacket plan has any.
type cEmit struct {
	inst   int32
	fields []cPField
}

// cRegDecl mirrors one register array declaration.
type cRegDecl struct {
	name string
	mask uint64
	size int
}

// cCtrDecl mirrors one counter array declaration.
type cCtrDecl struct {
	name string
	size int
}

// compiled is the immutable lowered program shared by all Switches of a
// Plan.
type compiled struct {
	nSlots int
	// nLive: slots [0, nLive) are the fields fieldLiveness found live, the
	// only ones a packet's evaluation can read before it wrote them — so the
	// only ones reset between packets.
	nLive int
	mask  []uint64 // per-slot store mask (^0 for 64-bit fields)
	// observe is Options.Observe. Anything but ObservePacket implies
	// BatchOpts{SkipExec, ReuseData} and a Data without the packet's bytes.
	observe Observation

	slotIngressPort int32
	slotEgressSpec  int32
	slotEgressPort  int32
	slotPacketLen   int32

	nInsts int

	hasParser bool
	parser    []cParserState
	start     int32

	ingress []cInstr
	egress  []cInstr // nil when the program has no egress control
	hasEgr  bool

	tables []cTable
	// maxKeys sizes the per-Switch key scratch buffer.
	maxKeys int

	regs []cRegDecl
	ctrs []cCtrDecl

	hashes []chash
	// nPre counts the hashes a pipelined replay may compute at parse time.
	nPre  int
	calcs []cCalc

	emits []cEmit // ObservePacket: instances with at least one may-written field
	// ObservePacket with Options.Trailer: the trailer is appended as
	// trailerZero with trailer's fields written over it.
	trailer     *cEmit
	trailerZero []byte

	neutralizeDrops bool

	lowering Lowering

	// lower keeps the symbol tables so InstallRule can lower runtime rules
	// against the same slot/table ids. Read-only after compilation.
	lower *compiler
}

// compiler carries the symbol tables alive only during lowering.
type compiler struct {
	pl *Plan
	c  *compiled

	slotOf  map[ir.FieldKey]int32
	instOf  map[string]int32
	tableOf map[string]int32
	regOf   map[string]int32
	ctrOf   map[string]int32
	hashOf  map[string]int32

	// written is fieldLiveness's per-slot answer; its other one, live, is
	// slot < nLive once the slots are renumbered.
	written []bool
}

// live reports whether fieldLiveness found the slot's field live.
func (cc *compiler) live(slot int32) bool { return int(slot) < cc.c.nLive }

// Lowering says what a plan's lowering kept and skipped: the answer to "what
// did this replay compute" that the "sim.plan" span and p4c-sim print.
type Lowering struct {
	Observe Observation
	// FieldsExtracted of the FieldsTotal header fields the parser's extract
	// statements cover are read out of the packet.
	FieldsExtracted, FieldsTotal int
	// OpsElided counts the declared action primitives and parser
	// set_metadata statements whose destination nothing observable reads;
	// CalcsElided the calculated-field updates no one sees the result of.
	OpsElided, CalcsElided int
}

// Lowering reports the plan's Lowering; the zero value (observing the
// packet) for an interpreter plan, which lowers nothing.
func (pl *Plan) Lowering() Lowering {
	if pl.c == nil {
		return Lowering{}
	}
	return pl.c.lowering
}

// Attrs renders the Lowering as span attributes.
func (l Lowering) Attrs() []obs.Attr {
	return []obs.Attr{
		obs.String("observe", l.Observe.String()),
		obs.Int("fields_extracted", l.FieldsExtracted),
		obs.Int("fields_total", l.FieldsTotal),
		obs.Int("ops_elided", l.OpsElided),
		obs.Int("calcs_elided", l.CalcsElided),
	}
}

// compilePlan lowers the plan's program. Any unsupported construct aborts
// compilation with an error describing it; the caller falls back to the
// interpreter, which reproduces the interpreter's packet-time diagnostics
// for genuinely broken programs.
func compilePlan(pl *Plan) (*compiled, error) {
	ast := pl.prog.AST
	cc := &compiler{
		pl:      pl,
		c:       &compiled{neutralizeDrops: pl.opts.NeutralizeDrops, observe: pl.opts.Observe},
		slotOf:  map[ir.FieldKey]int32{},
		instOf:  map[string]int32{},
		tableOf: map[string]int32{},
		regOf:   map[string]int32{},
		ctrOf:   map[string]int32{},
		hashOf:  map[string]int32{},
	}
	c := cc.c

	// Field slots and instance ids, in declaration order.
	for _, inst := range ast.Instances {
		cc.instOf[inst.Name] = int32(c.nInsts)
		c.nInsts++
		ht := ast.HeaderType(inst.TypeName)
		for _, f := range ht.Fields {
			key := ir.FieldKey(inst.Name + "." + f.Name)
			if _, dup := cc.slotOf[key]; dup {
				return nil, fmt.Errorf("sim: duplicate field %s", key)
			}
			cc.slotOf[key] = int32(c.nSlots)
			c.nSlots++
			m := ^uint64(0)
			if f.Width < 64 {
				m = 1<<uint(f.Width) - 1
			}
			c.mask = append(c.mask, m)
		}
	}
	// Renumber so the live slots come first: resetting a packet's state is
	// then one clear of a prefix.
	live, written, elided := cc.fieldLiveness()
	c.lowering.Observe, c.lowering.OpsElided = c.observe, elided
	perm := make([]int32, c.nSlots)
	for s, l := range live {
		if l {
			perm[s] = int32(c.nLive)
			c.nLive++
		}
	}
	next := int32(c.nLive)
	for s, l := range live {
		if !l {
			perm[s] = next
			next++
		}
	}
	mask := make([]uint64, c.nSlots)
	cc.written = make([]bool, c.nSlots)
	for s, to := range perm {
		mask[to], cc.written[to] = c.mask[s], written[s]
	}
	c.mask = mask
	for k, s := range cc.slotOf {
		cc.slotOf[k] = perm[s]
	}
	var err error
	std := p4.StandardMetadataName
	if c.slotIngressPort, err = cc.slot(p4.FieldRef{Instance: std, Field: p4.FieldIngressPort}); err != nil {
		return nil, err
	}
	if c.slotEgressSpec, err = cc.slot(p4.FieldRef{Instance: std, Field: p4.FieldEgressSpec}); err != nil {
		return nil, err
	}
	if c.slotEgressPort, err = cc.slot(p4.FieldRef{Instance: std, Field: p4.FieldEgressPort}); err != nil {
		return nil, err
	}
	if c.slotPacketLen, err = cc.slot(p4.FieldRef{Instance: std, Field: p4.FieldPacketLength}); err != nil {
		return nil, err
	}

	// Register and counter arrays.
	for _, r := range ast.Registers {
		cc.regOf[r.Name] = int32(len(c.regs))
		m := ^uint64(0)
		if r.Width < 64 {
			m = 1<<uint(r.Width) - 1
		}
		c.regs = append(c.regs, cRegDecl{name: r.Name, mask: m, size: r.InstanceCount})
	}
	for _, ct := range ast.Counters {
		cc.ctrOf[ct.Name] = int32(len(c.ctrs))
		c.ctrs = append(c.ctrs, cCtrDecl{name: ct.Name, size: ct.InstanceCount})
	}

	// Tables (ids in declaration order), then controls referencing them.
	for _, t := range ast.Tables {
		cc.tableOf[t.Name] = int32(len(c.tables))
		ct, err := cc.lowerTable(t)
		if err != nil {
			return nil, err
		}
		if len(ct.keys) > c.maxKeys {
			c.maxKeys = len(ct.keys)
		}
		c.tables = append(c.tables, ct)
	}
	if pl.prog.Ingress == nil {
		return nil, fmt.Errorf("sim: program has no ingress control")
	}
	if c.ingress, err = cc.lowerBlock(pl.prog.Ingress.Body, nil); err != nil {
		return nil, err
	}
	if pl.prog.Egress != nil {
		c.hasEgr = true
		if c.egress, err = cc.lowerBlock(pl.prog.Egress.Body, nil); err != nil {
			return nil, err
		}
	}

	// Parser.
	if len(ast.ParserStates) > 0 {
		c.hasParser = true
		if err := cc.lowerParser(); err != nil {
			return nil, err
		}
	}

	// Deparser: calculated fields, header write-back and the trailer when
	// the caller observes the packet.
	for _, cf := range ast.CalcFields {
		if cf.Update == "" {
			continue
		}
		if c.observe != ObservePacket {
			c.lowering.CalcsElided++
			continue
		}
		hi, err := cc.hash(cf.Update)
		if err != nil {
			return nil, err
		}
		inst, ok := cc.instOf[cf.Field.Instance]
		if !ok {
			return nil, fmt.Errorf("sim: calculated field on unknown instance %q", cf.Field.Instance)
		}
		dst, err := cc.slot(cf.Field)
		if err != nil {
			return nil, err
		}
		c.calcs = append(c.calcs, cCalc{inst: inst, dst: dst, hash: hi})
	}
	for _, inst := range ast.Instances {
		if inst.Metadata || c.observe != ObservePacket {
			continue
		}
		if fields := cc.instFields(inst, func(s int32) bool { return cc.written[s] }); len(fields) > 0 {
			c.emits = append(c.emits, cEmit{inst: cc.instOf[inst.Name], fields: fields})
		}
	}
	if pl.opts.Trailer != "" && c.observe == ObservePacket {
		inst := ast.Instance(pl.opts.Trailer)
		c.trailer = &cEmit{inst: cc.instOf[inst.Name], fields: cc.instFields(inst, nil)}
		c.trailerZero = make([]byte, (ast.HeaderType(inst.TypeName).Bits()+7)/8)
	}
	cc.finalHashes()
	c.lower = cc
	return c, nil
}

// finalHashes numbers the hashes whose value is known once the packet is
// parsed: every input is a field no action primitive or parser statement
// stores to, and not one the pipeline itself sets after parsing
// (egress_spec, egress_port). Such a hash reads the same values wherever
// the packet's execution computes it.
func (cc *compiler) finalHashes() {
	c := cc.c
	for i := range c.hashes {
		h := &c.hashes[i]
		final := true
		for _, f := range h.fields {
			final = final && !cc.written[f.slot] && f.slot != c.slotEgressSpec && f.slot != c.slotEgressPort
		}
		if final {
			h.pre = int32(c.nPre)
			c.nPre++
		}
	}
}

// slot resolves a field reference to its slot.
func (cc *compiler) slot(ref p4.FieldRef) (int32, error) {
	s, ok := cc.slotOf[ir.Key(ref)]
	if !ok {
		return 0, fmt.Errorf("sim: unknown field %s", ir.Key(ref))
	}
	return s, nil
}

// instFields lists an instance's fields in header order, each with its bit
// offset inside the header; a non-nil keep filters them by slot.
func (cc *compiler) instFields(inst *p4.Instance, keep func(slot int32) bool) []cPField {
	var out []cPField
	off := 0
	for _, f := range cc.pl.prog.AST.HeaderType(inst.TypeName).Fields {
		s := cc.slotOf[ir.FieldKey(inst.Name+"."+f.Name)]
		if keep == nil || keep(s) {
			out = append(out, cPField{slot: s, width: f.Width, off: off})
		}
		off += f.Width
	}
	return out
}

// expr lowers an arithmetic expression under a parameter binding.
func (cc *compiler) expr(e p4.Expr, bind map[string]cexpr) (cexpr, error) {
	switch v := e.(type) {
	case p4.IntLit:
		return constExpr(v.Value), nil
	case p4.SymRef:
		// Un-instantiated tunable reference: lower the default it
		// carries. Instantiated programs never contain SymRefs.
		return constExpr(v.Value), nil
	case p4.FieldRef:
		if v.Field == "" {
			if b, ok := bind[v.Instance]; ok {
				return b, nil
			}
			return cexpr{}, fmt.Errorf("sim: bare reference %q is not a value", v.Instance)
		}
		s, err := cc.slot(v)
		if err != nil {
			return cexpr{}, err
		}
		return slotExpr(s), nil
	case p4.ParamRef:
		if b, ok := bind[v.Name]; ok {
			return b, nil
		}
		return cexpr{}, fmt.Errorf("sim: unbound parameter %q", v.Name)
	}
	return cexpr{}, fmt.Errorf("sim: unknown expression %T", e)
}

// boolExpr lowers an if condition. Conditions have no parameter scope, so
// bare references and parameters are lowering errors (the interpreter
// fails the same way per packet).
func (cc *compiler) boolExpr(e p4.BoolExpr) (*cBool, error) {
	switch v := e.(type) {
	case *p4.ValidExpr:
		inst, ok := cc.instOf[v.Instance]
		if !ok {
			return nil, fmt.Errorf("sim: valid() on unknown instance %q", v.Instance)
		}
		return &cBool{kind: bValid, inst: inst}, nil
	case *p4.CompareExpr:
		l, err := cc.expr(v.Left, nil)
		if err != nil {
			return nil, err
		}
		r, err := cc.expr(v.Right, nil)
		if err != nil {
			return nil, err
		}
		var op uint8
		switch v.Op {
		case "==":
			op = cmpEq
		case "!=":
			op = cmpNe
		case "<":
			op = cmpLt
		case "<=":
			op = cmpLe
		case ">":
			op = cmpGt
		case ">=":
			op = cmpGe
		default:
			return nil, fmt.Errorf("sim: unknown comparison %q", v.Op)
		}
		return &cBool{kind: bCmp, op: op, l: l, r: r}, nil
	case *p4.BinaryBoolExpr:
		a, err := cc.boolExpr(v.Left)
		if err != nil {
			return nil, err
		}
		b, err := cc.boolExpr(v.Right)
		if err != nil {
			return nil, err
		}
		kind := uint8(bAnd)
		if v.Op == "or" {
			kind = bOr
		} else if v.Op != "and" {
			return nil, fmt.Errorf("sim: unknown boolean op %q", v.Op)
		}
		return &cBool{kind: kind, a: a, b: b}, nil
	case *p4.NotExpr:
		a, err := cc.boolExpr(v.X)
		if err != nil {
			return nil, err
		}
		return &cBool{kind: bNot, a: a}, nil
	}
	return nil, fmt.Errorf("sim: unknown boolean expression %T", e)
}

// lowerBlock flattens a control block into bytecode, appending to code.
func (cc *compiler) lowerBlock(b *p4.BlockStmt, code []cInstr) ([]cInstr, error) {
	if b == nil {
		return code, nil
	}
	var err error
	for _, stmt := range b.Stmts {
		switch v := stmt.(type) {
		case *p4.ApplyStmt:
			ti, ok := cc.tableOf[v.Table]
			if !ok {
				return nil, fmt.Errorf("sim: unknown table %q", v.Table)
			}
			code = append(code, cInstr{op: ciApply, tbl: ti})
			if v.Hit == nil && v.Miss == nil {
				continue
			}
			br := len(code)
			code = append(code, cInstr{op: ciBrMiss})
			if code, err = cc.lowerBlock(v.Hit, code); err != nil {
				return nil, err
			}
			if v.Miss != nil {
				jmp := len(code)
				code = append(code, cInstr{op: ciJump})
				code[br].tgt = int32(len(code))
				if code, err = cc.lowerBlock(v.Miss, code); err != nil {
					return nil, err
				}
				code[jmp].tgt = int32(len(code))
			} else {
				code[br].tgt = int32(len(code))
			}
		case *p4.IfStmt:
			cond, cerr := cc.boolExpr(v.Cond)
			if cerr != nil {
				return nil, cerr
			}
			br := len(code)
			code = append(code, cInstr{op: ciBrFalse, cond: cond})
			if code, err = cc.lowerBlock(v.Then, code); err != nil {
				return nil, err
			}
			if v.Else != nil {
				jmp := len(code)
				code = append(code, cInstr{op: ciJump})
				code[br].tgt = int32(len(code))
				if code, err = cc.lowerBlock(v.Else, code); err != nil {
					return nil, err
				}
				code[jmp].tgt = int32(len(code))
			} else {
				code[br].tgt = int32(len(code))
			}
		case *p4.BlockStmt:
			if code, err = cc.lowerBlock(v, code); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("sim: unknown statement %T", stmt)
		}
	}
	return code, nil
}

// lowerTable lowers one table: its key layout, every installed rule, and
// the effective default action.
func (cc *compiler) lowerTable(t *p4.TableDecl) (cTable, error) {
	ct := cTable{name: t.Name}
	for _, r := range t.Reads {
		if r.Kind == p4.MatchValid {
			inst, ok := cc.instOf[r.Field.Instance]
			if !ok {
				return ct, fmt.Errorf("sim: valid match on unknown instance %q", r.Field.Instance)
			}
			ct.keys = append(ct.keys, cKey{valid: true, inst: inst})
			continue
		}
		s, err := cc.slot(r.Field)
		if err != nil {
			return ct, err
		}
		ct.keys = append(ct.keys, cKey{slot: s})
	}
	for _, r := range cc.pl.tableRules[t.Name] {
		cr, err := cc.lowerRule(t, &ct, r)
		if err != nil {
			return ct, err
		}
		ct.rules = append(ct.rules, cr)
	}
	// Effective default: runtime override beats the declared default.
	action := t.DefaultAction
	var argValues []uint64
	argExprs := t.DefaultArgs
	if d := cc.pl.defaults[t.Name]; d != nil {
		action, argValues, argExprs = d.Action, d.Args, nil
	}
	if action != "" {
		body, err := cc.lowerActionCall(action, argValues, argExprs)
		if err != nil {
			return ct, err
		}
		ct.hasDef = true
		ct.def = body
	}
	ct.defRec = cc.record(t.Name, action, true)
	ct.missRec = cc.record(t.Name, action, false)
	return ct, nil
}

// record precomputes one apply record.
func (cc *compiler) record(table, action string, hit bool) cRecord {
	mark, ok := cc.pl.markOf[[2]string{table, action}]
	if !ok {
		mark = -1
	}
	return cRecord{exec: Executed{Table: table, Action: action, Hit: hit}, mark: mark}
}

// lowerRule lowers one installed rule against its table's key layout.
func (cc *compiler) lowerRule(t *p4.TableDecl, ct *cTable, r rt.Rule) (cRule, error) {
	if len(r.Matches) != len(ct.keys) {
		return cRule{}, fmt.Errorf("sim: rule on %s has %d matches for %d reads", t.Name, len(r.Matches), len(ct.keys))
	}
	cr := cRule{priority: r.Priority, rec: cc.record(t.Name, r.Action, true)}
	for i, m := range r.Matches {
		var cm cMatch
		switch m.Kind {
		case p4.MatchExact, p4.MatchValid:
			cm = cMatch{kind: mExact, value: m.Value}
		case p4.MatchLPM:
			// The interpreter's tie-break sums PrefixLen over LPM matches;
			// a zero prefix matches anything and contributes zero.
			cr.prefix += m.PrefixLen
			if m.PrefixLen == 0 {
				cm = cMatch{kind: mAny}
			} else {
				var w int
				if ct.keys[i].valid {
					w = 1
				} else {
					w = cc.widthOfSlot(ct.keys[i].slot, t, i)
				}
				shift := uint8(w - m.PrefixLen)
				cm = cMatch{kind: mLPM, shift: shift, value: m.Value >> shift}
			}
		case p4.MatchTernary:
			cm = cMatch{kind: mTernary, mask: m.Mask, value: m.Value & m.Mask}
		case p4.MatchRange:
			cm = cMatch{kind: mRange, value: m.Value, hi: m.RangeHi}
		default:
			return cRule{}, fmt.Errorf("sim: unknown match kind %q", m.Kind)
		}
		cr.matches = append(cr.matches, cm)
	}
	body, err := cc.lowerActionCall(r.Action, r.Args, nil)
	if err != nil {
		return cRule{}, err
	}
	cr.body = body
	return cr, nil
}

// widthOfSlot returns the declared width of the i-th read of table t.
func (cc *compiler) widthOfSlot(slot int32, t *p4.TableDecl, i int) int {
	return cc.pl.widths[ir.Key(t.Reads[i].Field)]
}

// lowerActionCall lowers an action invocation with a concrete argument
// source: constants from an installed rule, or expressions from a default
// declaration. Constant arguments fold into the ops; expression arguments
// get an oBind prologue into a scratch slot so the interpreter's
// bind-before-execute order is preserved.
func (cc *compiler) lowerActionCall(name string, argValues []uint64, argExprs []p4.Expr) (cBody, error) {
	decl := cc.pl.prog.AST.Action(name)
	if decl == nil {
		return cBody{}, fmt.Errorf("sim: unknown action %q", name)
	}
	body := cBody{actionName: name}
	bind := map[string]cexpr{}
	switch {
	case argValues != nil:
		if len(argValues) != len(decl.Params) {
			return cBody{}, fmt.Errorf("sim: action %s expects %d args, got %d", name, len(decl.Params), len(argValues))
		}
		for i, p := range decl.Params {
			bind[p] = constExpr(argValues[i])
		}
	case len(argExprs) > 0:
		if len(argExprs) != len(decl.Params) {
			return cBody{}, fmt.Errorf("sim: action %s expects %d args, got %d", name, len(decl.Params), len(argExprs))
		}
		for i, p := range decl.Params {
			e, err := cc.expr(argExprs[i], nil)
			if err != nil {
				return cBody{}, err
			}
			if e.isConst {
				bind[p] = e
				continue
			}
			scratch := cc.addScratchSlot()
			body.ops = append(body.ops, cOp{kind: oBind, dst: scratch, a: e})
			bind[p] = slotExpr(scratch)
		}
	default:
		if len(decl.Params) != 0 {
			return cBody{}, fmt.Errorf("sim: action %s requires %d args", name, len(decl.Params))
		}
	}
	for _, call := range decl.Body {
		op, skip, err := cc.lowerPrimitive(call, bind)
		if err != nil {
			return cBody{}, err
		}
		if !skip {
			body.ops = append(body.ops, op)
		}
	}
	return body, nil
}

// addScratchSlot allocates an unmasked slot outside any header, used for
// oBind targets.
func (cc *compiler) addScratchSlot() int32 {
	s := int32(cc.c.nSlots)
	cc.c.nSlots++
	cc.c.mask = append(cc.c.mask, ^uint64(0))
	return s
}

// lowerPrimitive lowers one primitive call. skip is true for no-ops, and for
// an op that stores to a field outside fieldLiveness's live set and cannot
// fail: every op that can fail or touch state (register_read's bounds check
// even when nothing reads its destination, register_write, count, a hash
// whose size is not a non-zero constant, drop) is lowered, so packet-time
// errors and register and counter state do not depend on Options.Observe.
func (cc *compiler) lowerPrimitive(call *p4.PrimitiveCall, bind map[string]cexpr) (cOp, bool, error) {
	dst := func(i int) (int32, error) {
		ref, ok := call.Args[i].(p4.FieldRef)
		if !ok || ref.Field == "" {
			return 0, fmt.Errorf("sim: %s: argument %d is not a field", call.Name, i)
		}
		return cc.slot(ref)
	}
	arg := func(i int) (cexpr, error) { return cc.expr(call.Args[i], bind) }
	instArg := func(i int) (string, error) {
		ref, ok := call.Args[i].(p4.FieldRef)
		if !ok {
			return "", fmt.Errorf("sim: %s: argument %d is not a reference", call.Name, i)
		}
		return ref.Instance, nil
	}
	switch call.Name {
	case p4.PrimModifyField, p4.PrimAddToField, p4.PrimSubFromField:
		d, err := dst(0)
		if err != nil {
			return cOp{}, false, err
		}
		a, err := arg(1)
		if err != nil {
			return cOp{}, false, err
		}
		kind := uint8(oSet)
		if call.Name == p4.PrimAddToField {
			kind = oAdd
		} else if call.Name == p4.PrimSubFromField {
			kind = oSub
		}
		return cOp{kind: kind, dst: d, a: a}, !cc.live(d), nil
	case p4.PrimBitAnd, p4.PrimBitOr, p4.PrimBitXor, p4.PrimMin, p4.PrimMax:
		d, err := dst(0)
		if err != nil {
			return cOp{}, false, err
		}
		a, err := arg(1)
		if err != nil {
			return cOp{}, false, err
		}
		b, err := arg(2)
		if err != nil {
			return cOp{}, false, err
		}
		var kind uint8
		switch call.Name {
		case p4.PrimBitAnd:
			kind = oAnd
		case p4.PrimBitOr:
			kind = oOr
		case p4.PrimBitXor:
			kind = oXor
		case p4.PrimMin:
			kind = oMin
		case p4.PrimMax:
			kind = oMax
		}
		return cOp{kind: kind, dst: d, a: a, b: b}, !cc.live(d), nil
	case p4.PrimDrop:
		return cOp{kind: oDrop}, false, nil
	case p4.PrimNoOp:
		return cOp{}, true, nil
	case p4.PrimRegisterRead:
		d, err := dst(0)
		if err != nil {
			return cOp{}, false, err
		}
		regName, err := instArg(1)
		if err != nil {
			return cOp{}, false, err
		}
		ri, ok := cc.regOf[regName]
		if !ok {
			return cOp{}, false, fmt.Errorf("sim: register_read: unknown register %q", regName)
		}
		idx, err := arg(2)
		if err != nil {
			return cOp{}, false, err
		}
		return cOp{kind: oRegRead, dst: d, res: ri, a: idx}, false, nil
	case p4.PrimRegisterWrite:
		regName, err := instArg(0)
		if err != nil {
			return cOp{}, false, err
		}
		ri, ok := cc.regOf[regName]
		if !ok {
			return cOp{}, false, fmt.Errorf("sim: register_write: unknown register %q", regName)
		}
		idx, err := arg(1)
		if err != nil {
			return cOp{}, false, err
		}
		v, err := arg(2)
		if err != nil {
			return cOp{}, false, err
		}
		return cOp{kind: oRegWrite, res: ri, a: idx, b: v, mask: cc.c.regs[ri].mask}, false, nil
	case p4.PrimCount:
		ctrName, err := instArg(0)
		if err != nil {
			return cOp{}, false, err
		}
		ci, ok := cc.ctrOf[ctrName]
		if !ok {
			return cOp{}, false, fmt.Errorf("sim: count: unknown counter %q", ctrName)
		}
		idx, err := arg(1)
		if err != nil {
			return cOp{}, false, err
		}
		return cOp{kind: oCount, res: ci, a: idx}, false, nil
	case p4.PrimHashOffset:
		d, err := dst(0)
		if err != nil {
			return cOp{}, false, err
		}
		base, err := arg(1)
		if err != nil {
			return cOp{}, false, err
		}
		calcName, err := instArg(2)
		if err != nil {
			return cOp{}, false, err
		}
		hi, err := cc.hash(calcName)
		if err != nil {
			return cOp{}, false, err
		}
		size, err := arg(3)
		if err != nil {
			return cOp{}, false, err
		}
		cannotFail := size.isConst && size.c != 0
		return cOp{kind: oHash, dst: d, a: base, b: size, res: hi}, cannotFail && !cc.live(d), nil
	}
	return cOp{}, false, fmt.Errorf("sim: unknown primitive %q", call.Name)
}

// hash lowers (and memoizes) a field_list_calculation.
func (cc *compiler) hash(calcName string) (int32, error) {
	if hi, ok := cc.hashOf[calcName]; ok {
		return hi, nil
	}
	calc := cc.pl.prog.AST.Calculation(calcName)
	if calc == nil {
		return 0, fmt.Errorf("sim: unknown calculation %q", calcName)
	}
	alg, err := hashes.FromName(calc.Algorithm)
	if err != nil {
		return 0, err
	}
	fl := cc.pl.prog.AST.FieldList(calc.Input)
	if fl == nil {
		return 0, fmt.Errorf("sim: unknown field list %q", calc.Input)
	}
	h := chash{alg: alg, outWidth: calc.OutputWidth, pre: -1}
	for _, f := range fl.Fields {
		s, err := cc.slot(f)
		if err != nil {
			return 0, err
		}
		w := cc.pl.widths[ir.Key(f)]
		h.fields = append(h.fields, cPField{slot: s, width: w})
		h.widths = append(h.widths, w)
	}
	hi := int32(len(cc.c.hashes))
	cc.c.hashes = append(cc.c.hashes, h)
	cc.hashOf[calcName] = hi
	return hi, nil
}

// lowerParser lowers the parser graph with resolved state indexes.
func (cc *compiler) lowerParser() error {
	ast := cc.pl.prog.AST
	idxOf := map[string]int32{}
	for i, ps := range ast.ParserStates {
		if _, dup := idxOf[ps.Name]; dup {
			return fmt.Errorf("sim: duplicate parser state %q", ps.Name)
		}
		idxOf[ps.Name] = int32(i)
	}
	start, ok := idxOf[p4.StartState]
	if !ok {
		return fmt.Errorf("sim: parser state %q not found", p4.StartState)
	}
	cc.c.start = start
	resolve := func(name string) (int32, error) {
		if name == p4.IngressControl {
			return nextIngress, nil
		}
		i, ok := idxOf[name]
		if !ok {
			return 0, fmt.Errorf("sim: parser state %q not found", name)
		}
		return i, nil
	}
	for _, ps := range ast.ParserStates {
		var cs cParserState
		for _, stmt := range ps.Statements {
			switch v := stmt.(type) {
			case *p4.ExtractStmt:
				inst := ast.Instance(v.Instance)
				if inst == nil {
					return fmt.Errorf("sim: extract of unknown instance %q", v.Instance)
				}
				op := cParserOp{
					extract: true,
					inst:    cc.instOf[inst.Name],
					bits:    ast.HeaderType(inst.TypeName).Bits(),
					fields:  cc.instFields(inst, cc.live),
				}
				cc.c.lowering.FieldsExtracted += len(op.fields)
				cc.c.lowering.FieldsTotal += len(ast.HeaderType(inst.TypeName).Fields)
				cs.ops = append(cs.ops, op)
			case *p4.SetMetadataStmt:
				val, err := cc.expr(v.Value, nil)
				if err != nil {
					return err
				}
				d, err := cc.slot(v.Dst)
				if err != nil {
					return err
				}
				if cc.live(d) {
					cs.ops = append(cs.ops, cParserOp{dst: d, val: val})
				}
			default:
				return fmt.Errorf("sim: unknown parser statement %T", stmt)
			}
		}
		switch ret := ps.Return.(type) {
		case *p4.ReturnState:
			next, err := resolve(ret.State)
			if err != nil {
				return err
			}
			cs.next = next
		case *p4.ReturnSelect:
			cs.isSelect = true
			for _, on := range ret.On {
				ref, ok := on.(p4.FieldRef)
				if !ok {
					return fmt.Errorf("sim: select operand must be a field")
				}
				s, err := cc.slot(ref)
				if err != nil {
					return err
				}
				cs.selOn = append(cs.selOn, cPField{slot: s, width: cc.pl.widths[ir.Key(ref)]})
			}
			cs.selDefault = nextStop
			for _, sc := range ret.Cases {
				next, err := resolve(sc.State)
				if err != nil {
					return err
				}
				if sc.IsDefault {
					if cs.selDefault == nextStop {
						cs.selDefault = next
					}
					continue
				}
				cs.selCases = append(cs.selCases, cSelCase{
					hasMask: sc.HasMask, value: sc.Value, mask: sc.Mask, next: next,
				})
			}
		default:
			return fmt.Errorf("sim: parser state %q has no return", ps.Name)
		}
		cc.c.parser = append(cc.c.parser, cs)
	}
	return nil
}
