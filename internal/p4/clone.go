package p4

// Clone returns a copy of the program that a rewrite may edit. Registers,
// actions, tables and controls — what optimization passes and
// instrumentation edit — are deep copies. Tunables, header types, instances,
// counters, field lists, calculations, calculated fields and parser states
// are shared with p: nothing edits one after parsing (Instantiate, which
// binds symbols inside parser states, copies every declaration itself, and a
// pass that must extend a header type swaps a copy into its clone). The
// per-kind slices and Decls are always fresh, so adding, removing or
// replacing a declaration in the clone never shows in p.
//
// The invariant every caller keeps: a program reachable from the run state,
// the analysis cache or the caller is never edited; a rewrite edits only the
// registers, actions, tables and controls of a clone it made itself.
func Clone(p *Program) *Program {
	out := &Program{
		Tunables:     sized(p.Tunables),
		HeaderTypes:  sized(p.HeaderTypes),
		Instances:    sized(p.Instances),
		Registers:    sized(p.Registers),
		Counters:     sized(p.Counters),
		FieldLists:   sized(p.FieldLists),
		Calculations: sized(p.Calculations),
		CalcFields:   sized(p.CalcFields),
		ParserStates: sized(p.ParserStates),
		Actions:      sized(p.Actions),
		Tables:       sized(p.Tables),
		Controls:     sized(p.Controls),
		Decls:        sized(p.Decls),
	}
	// The per-kind slices are rebuilt in declaration order (what addDecl
	// produced when this walked it); names were unique in p, so there is
	// nothing to re-check.
	c := newCloner(p)
	for _, d := range p.Decls {
		switch v := d.(type) {
		case *Tunable:
			out.Tunables = append(out.Tunables, v)
		case *HeaderType:
			out.HeaderTypes = append(out.HeaderTypes, v)
		case *Instance:
			out.Instances = append(out.Instances, v)
		case *Counter:
			out.Counters = append(out.Counters, v)
		case *FieldList:
			out.FieldLists = append(out.FieldLists, v)
		case *FieldListCalc:
			out.Calculations = append(out.Calculations, v)
		case *CalculatedField:
			out.CalcFields = append(out.CalcFields, v)
		case *ParserState:
			out.ParserStates = append(out.ParserStates, v)
		case *Register:
			cp := *v
			out.Registers = append(out.Registers, &cp)
			d = &cp
		case *ActionDecl:
			cp := c.action(v)
			out.Actions = append(out.Actions, cp)
			d = cp
		case *TableDecl:
			cp := c.table(v)
			out.Tables = append(out.Tables, cp)
			d = cp
		case *ControlDecl:
			cp := &ControlDecl{Name: v.Name, Body: c.block(v.Body)}
			out.Controls = append(out.Controls, cp)
			d = cp
		default:
			panic("p4: unknown declaration type in clone")
		}
		out.Decls = append(out.Decls, d)
	}
	return out
}

// sized returns an empty slice with room for a copy of s (nil for none).
func sized[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return make([]T, 0, len(s))
}

// cloner carves the pieces of a copy out of slabs, one allocation per kind
// of piece instead of one per piece. newCloner sizes the slabs for a whole
// program; a zero cloner has none and allocates each piece as it is asked
// for, which is how single declarations and statements are copied. Every
// slice it hands out has no spare capacity, so an append to one reallocates
// instead of reaching its neighbour in the slab.
type cloner struct {
	calls    []PrimitiveCall
	callPtrs []*PrimitiveCall
	exprs    []Expr
	names    []string
	reads    []ReadEntry
	readPtrs []*ReadEntry
	applies  []ApplyStmt
	ifs      []IfStmt
	blocks   []BlockStmt
	stmts    []Stmt
}

// newCloner counts what copying p's actions, tables and controls takes.
func newCloner(p *Program) cloner {
	var calls, exprs, names, reads, applies, ifs, blocks, stmts int
	for _, a := range p.Actions {
		calls += len(a.Body)
		names += len(a.Params)
		for _, call := range a.Body {
			exprs += len(call.Args)
		}
	}
	for _, t := range p.Tables {
		reads += len(t.Reads)
		names += len(t.ActionNames)
		exprs += len(t.DefaultArgs)
	}
	for _, ctl := range p.Controls {
		blocks++
		WalkStmts(ctl.Body, func(s Stmt) bool {
			stmts++
			switch v := s.(type) {
			case *ApplyStmt:
				applies++
				blocks += present(v.Hit) + present(v.Miss)
			case *IfStmt:
				ifs++
				blocks += present(v.Then) + present(v.Else)
			case *BlockStmt:
				blocks++
			}
			return true
		})
	}
	return cloner{
		calls:    make([]PrimitiveCall, calls),
		callPtrs: make([]*PrimitiveCall, calls),
		exprs:    make([]Expr, exprs),
		names:    make([]string, names),
		reads:    make([]ReadEntry, reads),
		readPtrs: make([]*ReadEntry, reads),
		applies:  make([]ApplyStmt, applies),
		ifs:      make([]IfStmt, ifs),
		blocks:   make([]BlockStmt, blocks),
		stmts:    make([]Stmt, stmts),
	}
}

func present(b *BlockStmt) int {
	if b == nil {
		return 0
	}
	return 1
}

// carve takes n elements off the slab (a fresh allocation when the slab is
// short) as a slice with no spare capacity; nil for none.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(*slab) {
		return make([]T, n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// carveCopy carves a copy of src.
func carveCopy[T any](slab *[]T, src []T) []T {
	out := carve(slab, len(src))
	copy(out, src)
	return out
}

// cloneDecl deep-copies one declaration of any kind: Instantiate binds
// symbols in the copy, so nothing of it may be shared.
func cloneDecl(d Decl) Decl {
	switch v := d.(type) {
	case *Tunable:
		cp := *v
		return &cp
	case *HeaderType:
		ht := &HeaderType{Name: v.Name}
		for _, f := range v.Fields {
			cp := *f
			ht.Fields = append(ht.Fields, &cp)
		}
		return ht
	case *Instance:
		cp := *v
		return &cp
	case *Register:
		cp := *v
		return &cp
	case *Counter:
		cp := *v
		return &cp
	case *FieldList:
		fl := &FieldList{Name: v.Name}
		fl.Fields = append(fl.Fields, v.Fields...)
		return fl
	case *FieldListCalc:
		cp := *v
		return &cp
	case *CalculatedField:
		cp := *v
		return &cp
	case *ParserState:
		ps := &ParserState{Name: v.Name}
		for _, s := range v.Statements {
			ps.Statements = append(ps.Statements, cloneParserStmt(s))
		}
		ps.Return = cloneParserReturn(v.Return)
		return ps
	case *ActionDecl:
		return new(cloner).action(v)
	case *TableDecl:
		return new(cloner).table(v)
	case *ControlDecl:
		return &ControlDecl{Name: v.Name, Body: CloneBlock(v.Body)}
	}
	panic("p4: unknown declaration type in clone")
}

func cloneParserStmt(s ParserStmt) ParserStmt {
	switch v := s.(type) {
	case *ExtractStmt:
		cp := *v
		return &cp
	case *SetMetadataStmt:
		cp := *v
		return &cp
	}
	panic("p4: unknown parser statement in clone")
}

func cloneParserReturn(r ParserReturn) ParserReturn {
	switch v := r.(type) {
	case *ReturnState:
		cp := *v
		return &cp
	case *ReturnSelect:
		rs := &ReturnSelect{}
		rs.On = append(rs.On, v.On...)
		for _, c := range v.Cases {
			cp := *c
			rs.Cases = append(rs.Cases, &cp)
		}
		return rs
	}
	panic("p4: unknown parser return in clone")
}

func (c *cloner) action(v *ActionDecl) *ActionDecl {
	ad := &ActionDecl{Name: v.Name, Params: carveCopy(&c.names, v.Params), Body: carve(&c.callPtrs, len(v.Body))}
	calls := carve(&c.calls, len(v.Body))
	for i, call := range v.Body {
		calls[i] = PrimitiveCall{Name: call.Name, Args: carveCopy(&c.exprs, call.Args)}
		ad.Body[i] = &calls[i]
	}
	return ad
}

func (c *cloner) table(v *TableDecl) *TableDecl {
	td := new(TableDecl)
	*td = *v
	td.Reads = carve(&c.readPtrs, len(v.Reads))
	reads := carve(&c.reads, len(v.Reads))
	for i, r := range v.Reads {
		reads[i] = *r
		td.Reads[i] = &reads[i]
	}
	td.ActionNames = carveCopy(&c.names, v.ActionNames)
	td.DefaultArgs = carveCopy(&c.exprs, v.DefaultArgs)
	return td
}

func (c *cloner) block(b *BlockStmt) *BlockStmt {
	if b == nil {
		return nil
	}
	out := &carve(&c.blocks, 1)[0]
	out.Stmts = carve(&c.stmts, len(b.Stmts))
	for i, s := range b.Stmts {
		out.Stmts[i] = c.stmt(s)
	}
	return out
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch v := s.(type) {
	case *ApplyStmt:
		out := &carve(&c.applies, 1)[0]
		*out = ApplyStmt{Table: v.Table, Hit: c.block(v.Hit), Miss: c.block(v.Miss)}
		return out
	case *IfStmt:
		out := &carve(&c.ifs, 1)[0]
		*out = IfStmt{Cond: cloneBool(v.Cond), Then: c.block(v.Then), Else: c.block(v.Else)}
		return out
	case *BlockStmt:
		return c.block(v)
	}
	panic("p4: unknown statement in clone")
}

// CloneBlock deep-copies a statement block.
func CloneBlock(b *BlockStmt) *BlockStmt { return new(cloner).block(b) }

// CloneStmt deep-copies a control statement.
func CloneStmt(s Stmt) Stmt { return new(cloner).stmt(s) }

func cloneBool(e BoolExpr) BoolExpr {
	switch v := e.(type) {
	case *ValidExpr:
		cp := *v
		return &cp
	case *CompareExpr:
		cp := *v
		return &cp
	case *BinaryBoolExpr:
		return &BinaryBoolExpr{Op: v.Op, Left: cloneBool(v.Left), Right: cloneBool(v.Right)}
	case *NotExpr:
		return &NotExpr{X: cloneBool(v.X)}
	}
	panic("p4: unknown boolean expression in clone")
}

// WalkStmts invokes fn for every statement in the block, depth-first,
// including statements nested in hit/miss and if branches. Returning false
// from fn stops the walk.
func WalkStmts(b *BlockStmt, fn func(Stmt) bool) bool {
	if b == nil {
		return true
	}
	for _, s := range b.Stmts {
		if !fn(s) {
			return false
		}
		switch v := s.(type) {
		case *ApplyStmt:
			if !WalkStmts(v.Hit, fn) || !WalkStmts(v.Miss, fn) {
				return false
			}
		case *IfStmt:
			if !WalkStmts(v.Then, fn) || !WalkStmts(v.Else, fn) {
				return false
			}
		case *BlockStmt:
			if !WalkStmts(v, fn) {
				return false
			}
		}
	}
	return true
}

// TablesInBlock returns the names of all tables applied anywhere in the
// block, in source order (duplicates removed).
func TablesInBlock(b *BlockStmt) []string {
	var out []string
	seen := map[string]bool{}
	WalkStmts(b, func(s Stmt) bool {
		if ap, ok := s.(*ApplyStmt); ok && !seen[ap.Table] {
			seen[ap.Table] = true
			out = append(out, ap.Table)
		}
		return true
	})
	return out
}
