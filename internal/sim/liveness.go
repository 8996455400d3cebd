package sim

import (
	"p2go/internal/ir"
	"p2go/internal/p4"
)

// liveOp is one statement that stores a field: a primitive of a declared
// action, or a parser set_metadata. When it is lowered it reads srcs and
// writes dst (-1: none).
type liveOp struct {
	dst  int32
	srcs []int32
	// kept marks an op that can fail or that touches register or counter
	// state: it is lowered whether or not anything reads dst.
	kept bool
}

// fieldLiveness is the static analysis that lets the lowering skip work:
// indexed by slot, live[s] says the value of the field can reach something
// the plan's caller observes, written[s] that something may store to it.
// It looks at the whole AST rather than at what the installed rules reach,
// because a runtime InstallRule can bind any declared action after the
// extract and emit lists are built.
//
// live is the least fixed point over every declared action body and every
// parser set_metadata — an op reads its sources only if it is lowered, and it
// is lowered if it is kept or its destination is live — rooted at what
// Options.Observe makes observable:
//
//   - always: egress_spec (the forwarding decision) and packet_length (what
//     count adds); table match keys and declared default-action arguments;
//     the conditions of both controls and parser select operands; and, as
//     sources of kept ops, register and counter indexes, the values written
//     to registers, and the inputs of a hash whose size may be zero. Header
//     validity needs no field;
//   - unless ObserveFate: every field of the trailer instance;
//   - under ObservePacket only: every header field something may store to
//     (the deparser writes it back whenever its header is valid) and the
//     field list of every calculated-field update.
//
// A field outside live is read by nothing that is lowered, so the parser need
// not extract it and a pure op storing to it need not run; a field outside
// written still holds the value it was parsed with when the deparser runs, so
// writing it back would store the bits already there (fields are 1..64 bits
// wide, so a uint64 slot holds them whole). elided counts the declared ops no
// lowering of this plan will emit.
func (cc *compiler) fieldLiveness() (live, written []bool, elided int) {
	prog, ast, observe := cc.pl.prog, cc.pl.prog.AST, cc.pl.opts.Observe
	live = make([]bool, cc.c.nSlots)
	written = make([]bool, cc.c.nSlots)
	slot := func(e p4.Expr) (int32, bool) {
		if ref, ok := e.(p4.FieldRef); ok && ref.Field != "" {
			s, ok := cc.slotOf[ir.Key(ref)]
			return s, ok
		}
		return 0, false
	}
	root := func(e p4.Expr) {
		if s, ok := slot(e); ok {
			live[s] = true
		}
	}
	fieldList := func(calcName string) []p4.FieldRef {
		if calc := ast.Calculation(calcName); calc != nil {
			if fl := ast.FieldList(calc.Input); fl != nil {
				return fl.Fields
			}
		}
		return nil
	}

	var ops []liveOp
	// add records one op storing dst (nil: none) from srcs. Arity and argument
	// kinds are the lowering's to reject; a malformed call contributes what
	// resolves.
	add := func(kept bool, dst p4.Expr, srcs ...p4.Expr) {
		op := liveOp{dst: -1, kept: kept}
		if s, ok := slot(dst); ok {
			op.dst = s
			written[s] = true
		}
		for _, e := range srcs {
			if s, ok := slot(e); ok {
				op.srcs = append(op.srcs, s)
			}
		}
		ops = append(ops, op)
	}
	for _, a := range ast.Actions {
		for _, call := range a.Body {
			arg := func(i int) p4.Expr {
				if i < len(call.Args) {
					return call.Args[i]
				}
				return nil
			}
			switch call.Name {
			case p4.PrimModifyField:
				add(false, arg(0), arg(1))
			case p4.PrimAddToField, p4.PrimSubFromField:
				add(false, arg(0), arg(0), arg(1))
			case p4.PrimBitAnd, p4.PrimBitOr, p4.PrimBitXor, p4.PrimMin, p4.PrimMax:
				add(false, arg(0), arg(1), arg(2))
			case p4.PrimRegisterRead:
				add(true, arg(0), arg(2))
			case p4.PrimRegisterWrite:
				add(true, nil, arg(1), arg(2))
			case p4.PrimCount:
				add(true, nil, arg(1))
			case p4.PrimHashOffset:
				// A hash fails on a zero size; only a non-zero literal rules
				// that out before the rule binding the action is known.
				mayFail := true
				switch size := arg(3).(type) {
				case p4.IntLit:
					mayFail = size.Value == 0
				case p4.SymRef:
					mayFail = size.Value == 0
				}
				srcs := []p4.Expr{arg(1), arg(3)}
				if ref, ok := arg(2).(p4.FieldRef); ok {
					for _, f := range fieldList(ref.Instance) {
						srcs = append(srcs, f)
					}
				}
				add(mayFail, arg(0), srcs...)
			}
		}
	}
	for _, ps := range ast.ParserStates {
		for _, stmt := range ps.Statements {
			if v, ok := stmt.(*p4.SetMetadataStmt); ok {
				add(false, v.Dst, v.Value)
			}
		}
		if sel, ok := ps.Return.(*p4.ReturnSelect); ok {
			for _, on := range sel.On {
				root(on)
			}
		}
	}

	std := p4.StandardMetadataName
	root(p4.FieldRef{Instance: std, Field: p4.FieldEgressSpec})
	root(p4.FieldRef{Instance: std, Field: p4.FieldPacketLength})
	for _, t := range ast.Tables {
		for _, r := range t.Reads {
			if r.Kind != p4.MatchValid {
				root(r.Field)
			}
		}
		for _, e := range t.DefaultArgs {
			root(e)
		}
	}
	var cond func(e p4.BoolExpr)
	cond = func(e p4.BoolExpr) {
		switch v := e.(type) {
		case *p4.CompareExpr:
			root(v.Left)
			root(v.Right)
		case *p4.BinaryBoolExpr:
			cond(v.Left)
			cond(v.Right)
		case *p4.NotExpr:
			cond(v.X)
		}
	}
	for _, ctl := range []*p4.ControlDecl{prog.Ingress, prog.Egress} {
		if ctl == nil {
			continue
		}
		p4.WalkStmts(ctl.Body, func(s p4.Stmt) bool {
			if v, ok := s.(*p4.IfStmt); ok {
				cond(v.Cond)
			}
			return true
		})
	}
	if inst := ast.Instance(cc.pl.opts.Trailer); inst != nil && observe != ObserveFate {
		for _, f := range ast.HeaderType(inst.TypeName).Fields {
			root(p4.FieldRef{Instance: inst.Name, Field: f.Name})
		}
	}
	if observe == ObservePacket {
		for _, cf := range ast.CalcFields {
			if cf.Update == "" {
				continue
			}
			if s, ok := slot(cf.Field); ok {
				written[s] = true
			}
			for _, f := range fieldList(cf.Update) {
				root(f)
			}
		}
		for _, inst := range ast.Instances {
			if inst.Metadata {
				continue
			}
			for _, f := range ast.HeaderType(inst.TypeName).Fields {
				if s := cc.slotOf[ir.FieldKey(inst.Name+"."+f.Name)]; written[s] {
					live[s] = true
				}
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for i := range ops {
			op := &ops[i]
			if !op.kept && (op.dst < 0 || !live[op.dst]) {
				continue
			}
			for _, s := range op.srcs {
				if !live[s] {
					live[s], changed = true, true
				}
			}
		}
	}
	for i := range ops {
		if op := &ops[i]; !op.kept && op.dst >= 0 && !live[op.dst] {
			elided++
		}
	}
	return live, written, elided
}
