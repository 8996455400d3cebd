package sim

import (
	"p2go/internal/ir"
	"p2go/internal/p4"
)

// fieldLiveness is the static analysis that lets the lowered parser and
// deparser skip fields: indexed by slot, written[s] says something in the
// program may store to the field, touched[s] that something may store to it
// or read it. It looks at the whole AST rather than at what the installed
// rules reach, because a runtime InstallRule can bind any declared action
// after the extract and emit lists are built:
//
//   - every declared action body (the IR's per-action read and write sets,
//     which include hash inputs), and the fields a declared default action's
//     argument expressions read;
//   - table match keys, the conditions of both controls, parser select
//     operands and set_metadata statements;
//   - every field list, and the destination of every calculated-field update;
//   - every field of the trailer instance, which the deparser reads.
//
// A field outside touched is never read, so the parser need not extract it;
// a field outside written still holds the value it was parsed with when the
// deparser runs, so writing it back would store the bits already there
// (fields are 1..64 bits wide, so a uint64 slot holds them whole).
func (cc *compiler) fieldLiveness() (written, touched []bool) {
	prog, ast := cc.pl.prog, cc.pl.prog.AST
	written = make([]bool, cc.c.nSlots)
	touched = make([]bool, cc.c.nSlots)
	mark := func(set []bool, k ir.FieldKey) {
		if s, ok := cc.slotOf[k]; ok {
			set[s] = true
		}
	}
	read := func(e p4.Expr) {
		if ref, ok := e.(p4.FieldRef); ok && ref.Field != "" {
			mark(touched, ir.Key(ref))
		}
	}
	write := func(k ir.FieldKey) {
		mark(written, k)
		mark(touched, k)
	}

	for _, a := range prog.Actions {
		for k := range a.Reads {
			mark(touched, k)
		}
		for k := range a.Writes {
			write(k)
		}
	}
	for _, t := range ast.Tables {
		for _, r := range t.Reads {
			if r.Kind != p4.MatchValid {
				read(r.Field)
			}
		}
		for _, e := range t.DefaultArgs {
			read(e)
		}
	}
	var cond func(e p4.BoolExpr)
	cond = func(e p4.BoolExpr) {
		switch v := e.(type) {
		case *p4.CompareExpr:
			read(v.Left)
			read(v.Right)
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
	for _, ps := range ast.ParserStates {
		for _, stmt := range ps.Statements {
			if v, ok := stmt.(*p4.SetMetadataStmt); ok {
				write(ir.Key(v.Dst))
				read(v.Value)
			}
		}
		if sel, ok := ps.Return.(*p4.ReturnSelect); ok {
			for _, on := range sel.On {
				read(on)
			}
		}
	}
	for _, fl := range ast.FieldLists {
		for _, f := range fl.Fields {
			read(f)
		}
	}
	for _, cf := range ast.CalcFields {
		if cf.Update != "" {
			write(ir.Key(cf.Field))
		}
	}
	if inst := ast.Instance(cc.pl.opts.Trailer); inst != nil {
		for _, f := range ast.HeaderType(inst.TypeName).Fields {
			mark(touched, ir.FieldKey(inst.Name+"."+f.Name))
		}
	}
	return written, touched
}
