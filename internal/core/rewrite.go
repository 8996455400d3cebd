// Package core implements P2GO itself: the profile-guided optimizer that
// works alongside the compiler. Phase 2 removes dependencies that do not
// manifest in the profile, Phase 3 shrinks table/register memory with
// binary search and verifies the profile is unchanged, and Phase 4 offloads
// rarely used self-contained code segments to the controller. Every change
// is reported as an Observation carrying the profile evidence that guided
// it, so the programmer can accept or reject it (§2.2).
package core

import (
	"fmt"
	"slices"

	"p2go/internal/p4"
)

// enclosure records one level of the control-tree path to a statement: the
// block, the index of the statement the path continues through, and how
// the block was entered from the statement above (zero-valued entry for
// the root block).
type enclosure struct {
	block *p4.BlockStmt
	idx   int
	// Entry descriptor: at most one of ifCond / viaApply is set.
	ifCond   p4.BoolExpr // entered through an if arm
	negated  bool        // ... the else arm
	viaApply string      // entered through a hit/miss arm of this table
	onHit    bool
}

// findApplyPath locates the apply statement of a table: the returned chain
// runs from the root block to the block holding the statement, and the last
// element's (block, idx) addresses the apply statement itself. Returns nil
// when the table is not applied.
func findApplyPath(root *p4.BlockStmt, table string) []enclosure {
	var search func(b *p4.BlockStmt, entry enclosure, chain []enclosure) []enclosure
	search = func(b *p4.BlockStmt, entry enclosure, chain []enclosure) []enclosure {
		if b == nil {
			return nil
		}
		for i, s := range b.Stmts {
			cur := entry
			cur.block = b
			cur.idx = i
			here := append(append([]enclosure(nil), chain...), cur)
			switch v := s.(type) {
			case *p4.ApplyStmt:
				if v.Table == table {
					return here
				}
				if f := search(v.Hit, enclosure{viaApply: v.Table, onHit: true}, here); f != nil {
					return f
				}
				if f := search(v.Miss, enclosure{viaApply: v.Table, onHit: false}, here); f != nil {
					return f
				}
			case *p4.IfStmt:
				if f := search(v.Then, enclosure{ifCond: v.Cond}, here); f != nil {
					return f
				}
				if f := search(v.Else, enclosure{ifCond: v.Cond, negated: true}, here); f != nil {
					return f
				}
			case *p4.BlockStmt:
				if f := search(v, entry, chain); f != nil {
					return f
				}
			}
		}
		return nil
	}
	return search(root, enclosure{}, nil)
}

// commonPrefixLen returns how many leading enclosures the two paths share
// (same block pointer and same statement index).
func commonPrefixLen(a, b []enclosure) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].block != b[i].block || a[i].idx != b[i].idx {
			return i
		}
	}
	return n
}

// DependencyGuard describes the runtime violation detector optionally
// inserted by Phase 2 (§3.2's "alternative approach to deal with
// inaccurate observations"): a table in `from`'s hit arm that matches on
// the same fields as `to` and counts packets for which the removed
// dependency manifests at runtime.
type DependencyGuard struct {
	Table    string
	Action   string
	Register string
	// From and To are the tables whose removed dependency it watches.
	From string
	To   string
}

// Names of the synthesized guard entities.
func guardNames(to string) (table, action, register, metaField string) {
	return "p2go_guard_" + to, "p2go_report_" + to, "p2go_viol_" + to, "g_" + to
}

// guardMetaType/guardMetaName declare the shared metadata carrying guard
// counters in flight.
const (
	guardMetaType = "p2go_guard_meta_t"
	guardMetaName = "p2go_guard_meta"
)

// moveIntoMissArm performs Phase 2's rewrite: the apply statement of table
// `to` is moved into the miss arm of table `from`'s apply statement,
// wrapped in whatever extra guards protected it at its original location.
// This expresses to the compiler that the two tables are mutually
// exclusive, removing their dependency.
//
// When withGuard is set, a violation detector is additionally inserted in
// `from`'s hit arm (under the same extra guards): a table reading `to`'s
// match fields whose single action increments a violation register. Its
// rules mirror `to`'s, so it hits exactly when the removed dependency
// manifests at runtime — the observation the programmer was asked to
// verify turned out wrong — without altering the packet's fate.
//
// The rewrite mutates ast in place (callers pass a clone).
func moveIntoMissArm(ast *p4.Program, from, to string, withGuard bool) (*DependencyGuard, error) {
	// Both tables live in the same control (dependencies never cross
	// pipelines); find it.
	var pathFrom, pathTo []enclosure
	for _, name := range []string{p4.IngressControl, p4.EgressControl} {
		c := ast.Control(name)
		if c == nil {
			continue
		}
		pf := findApplyPath(c.Body, from)
		pt := findApplyPath(c.Body, to)
		if pf != nil && pt != nil {
			pathFrom, pathTo = pf, pt
			break
		}
	}
	if pathFrom == nil || pathTo == nil {
		return nil, fmt.Errorf("core: tables %s and %s are not applied in the same control", from, to)
	}
	shared := commonPrefixLen(pathFrom, pathTo)
	if shared == len(pathFrom) || shared == len(pathTo) {
		return nil, fmt.Errorf("core: %s and %s are nested; cannot rewrite", from, to)
	}
	// Collect `to`'s extra guards below the divergence: every deeper
	// block must have been entered through an if arm (hit/miss arms are
	// not expressible as conditions at the new location). When the
	// divergence is two different statements of the same block, the
	// element at `shared` describes entry into the shared block and is
	// not a guard; when the paths diverge into different arms of the
	// same statement, it is one.
	extrasStart := shared + 1
	if pathTo[shared].block != pathFrom[shared].block {
		extrasStart = shared
	}
	var guards []enclosure
	for _, enc := range pathTo[extrasStart:] {
		if enc.viaApply != "" {
			return nil, fmt.Errorf("core: %s sits in a hit/miss arm of %s; cannot rewrite", to, enc.viaApply)
		}
		if enc.ifCond != nil {
			guards = append(guards, enc)
		}
	}

	// Detach `to`'s apply statement.
	last := pathTo[len(pathTo)-1]
	moved, ok := last.block.Stmts[last.idx].(*p4.ApplyStmt)
	if !ok || moved.Table != to {
		return nil, fmt.Errorf("core: internal: path to %s does not end at its apply", to)
	}
	last.block.Stmts = append(last.block.Stmts[:last.idx], last.block.Stmts[last.idx+1:]...)

	// Wrap it in its guards, innermost last.
	var stmt p4.Stmt = moved
	for i := len(guards) - 1; i >= 0; i-- {
		cond := guards[i].ifCond
		if guards[i].negated {
			cond = &p4.NotExpr{X: cond}
		}
		stmt = &p4.IfStmt{Cond: cond, Then: &p4.BlockStmt{Stmts: []p4.Stmt{stmt}}}
	}

	// Append to `from`'s miss arm.
	lastFrom := pathFrom[len(pathFrom)-1]
	fromApply, ok := lastFrom.block.Stmts[lastFrom.idx].(*p4.ApplyStmt)
	if !ok || fromApply.Table != from {
		return nil, fmt.Errorf("core: internal: path to %s does not end at its apply", from)
	}
	if fromApply.Miss == nil {
		fromApply.Miss = &p4.BlockStmt{}
	}
	fromApply.Miss.Stmts = append(fromApply.Miss.Stmts, stmt)

	if !withGuard {
		return nil, nil
	}
	guard, guardStmt, err := buildDependencyGuard(ast, from, to)
	if err != nil {
		return nil, err
	}
	// The detector runs when `from` HITS and `to` would have applied:
	// same extra guards, inside the hit arm.
	var wrapped p4.Stmt = guardStmt
	for i := len(guards) - 1; i >= 0; i-- {
		cond := cloneCond(guards[i].ifCond)
		if guards[i].negated {
			cond = &p4.NotExpr{X: cond}
		}
		wrapped = &p4.IfStmt{Cond: cond, Then: &p4.BlockStmt{Stmts: []p4.Stmt{wrapped}}}
	}
	if fromApply.Hit == nil {
		fromApply.Hit = &p4.BlockStmt{}
	}
	fromApply.Hit.Stmts = append(fromApply.Hit.Stmts, wrapped)
	return guard, nil
}

// cloneCond deep-copies a condition by printing and reusing the statement
// cloner (conditions are small).
func cloneCond(cond p4.BoolExpr) p4.BoolExpr {
	ifs := p4.CloneStmt(&p4.IfStmt{Cond: cond, Then: &p4.BlockStmt{}}).(*p4.IfStmt)
	return ifs.Cond
}

// buildDependencyGuard declares the violation register, metadata, action,
// and table for the runtime detector, returning the apply statement to
// insert.
func buildDependencyGuard(ast *p4.Program, from, to string) (*DependencyGuard, *p4.ApplyStmt, error) {
	toDecl := ast.Table(to)
	if toDecl == nil {
		return nil, nil, fmt.Errorf("core: guard target %s missing", to)
	}
	tableName, actionName, regName, metaField := guardNames(to)
	if ast.Table(tableName) != nil {
		return nil, nil, fmt.Errorf("core: guard %s already present", tableName)
	}
	// Shared guard metadata header (one 32-bit field per guard).
	ht := ast.HeaderType(guardMetaType)
	if ht == nil {
		ht = &p4.HeaderType{Name: guardMetaType}
		inst := &p4.Instance{TypeName: guardMetaType, Name: guardMetaName, Metadata: true}
		ast.HeaderTypes = append(ast.HeaderTypes, ht)
		ast.Instances = append(ast.Instances, inst)
		ast.Decls = append(ast.Decls, ht, inst)
	} else {
		// A clone shares its header types with the program it was cloned
		// from (p4.Clone): swap in a copy to extend, never edit in place.
		grown := &p4.HeaderType{Name: ht.Name, Fields: append([]*p4.FieldDecl(nil), ht.Fields...)}
		ast.HeaderTypes[slices.Index(ast.HeaderTypes, ht)] = grown
		ast.Decls[slices.Index(ast.Decls, p4.Decl(ht))] = grown
		ht = grown
	}
	ht.Fields = append(ht.Fields, &p4.FieldDecl{Name: metaField, Width: 32})

	reg := &p4.Register{Name: regName, Width: 32, InstanceCount: 1}
	metaRef := p4.FieldRef{Instance: guardMetaName, Field: metaField}
	regRef := p4.FieldRef{Instance: regName}
	act := &p4.ActionDecl{
		Name: actionName,
		Body: []*p4.PrimitiveCall{
			{Name: p4.PrimRegisterRead, Args: []p4.Expr{metaRef, regRef, p4.IntLit{Value: 0}}},
			{Name: p4.PrimAddToField, Args: []p4.Expr{metaRef, p4.IntLit{Value: 1}}},
			{Name: p4.PrimRegisterWrite, Args: []p4.Expr{regRef, p4.IntLit{Value: 0}, metaRef}},
		},
	}
	tbl := &p4.TableDecl{
		Name:        tableName,
		ActionNames: []string{actionName},
		Size:        toDecl.Size,
	}
	for _, r := range toDecl.Reads {
		cp := *r
		tbl.Reads = append(tbl.Reads, &cp)
	}
	ast.Registers = append(ast.Registers, reg)
	ast.Actions = append(ast.Actions, act)
	ast.Tables = append(ast.Tables, tbl)
	ast.Decls = append(ast.Decls, reg, act, tbl)
	return &DependencyGuard{
		Table: tableName, Action: actionName, Register: regName,
		From: from, To: to,
	}, &p4.ApplyStmt{Table: tableName}, nil
}

// tableRegisters lists the registers accessed by a table's actions, by
// scanning primitive calls in the AST (the IR equivalent without needing a
// build).
func tableRegisters(ast *p4.Program, table string) []string {
	t := ast.Table(table)
	if t == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, an := range t.ActionNames {
		act := ast.Action(an)
		if act == nil {
			continue
		}
		for _, call := range act.Body {
			var reg string
			switch call.Name {
			case p4.PrimRegisterRead:
				reg = call.Args[1].(p4.FieldRef).Instance
			case p4.PrimRegisterWrite:
				reg = call.Args[0].(p4.FieldRef).Instance
			default:
				continue
			}
			if !seen[reg] {
				seen[reg] = true
				out = append(out, reg)
			}
		}
	}
	return out
}

// memoryKnob abstracts "the memory allocated to a table": match entries for
// ordinary tables, register cells for tables built on register arrays.
type memoryKnob struct {
	table string
	// register is the primary register (largest cell count), empty for
	// match-entry knobs.
	register string
	// full is the current knob value (entries or cells).
	full int
}

// knobFor derives the memory knob of a table.
func knobFor(ast *p4.Program, table string) (memoryKnob, bool) {
	regs := tableRegisters(ast, table)
	if len(regs) > 0 {
		primary := regs[0]
		max := 0
		for _, r := range regs {
			if reg := ast.Register(r); reg != nil && reg.InstanceCount > max {
				max = reg.InstanceCount
				primary = r
			}
		}
		if max <= 1 {
			return memoryKnob{}, false
		}
		return memoryKnob{table: table, register: primary, full: max}, true
	}
	t := ast.Table(table)
	if t == nil || t.Size <= 1 || len(t.Reads) == 0 {
		return memoryKnob{}, false
	}
	return memoryKnob{table: table, full: t.Size}, true
}

// applyKnob rewrites ast (in place) so the table's memory knob takes the
// new value. For register knobs, every register of the table is scaled
// proportionally and the hash-modulus arguments indexing them are updated,
// exactly as P2GO's resize rewrite must do to keep the program well-formed.
func applyKnob(ast *p4.Program, knob memoryKnob, value int) error {
	if value < 1 {
		return fmt.Errorf("core: knob value %d out of range", value)
	}
	if knob.register == "" {
		t := ast.Table(knob.table)
		if t == nil {
			return fmt.Errorf("core: table %s not found", knob.table)
		}
		t.Size = value
		return nil
	}
	regs := tableRegisters(ast, knob.table)
	scaleNum, scaleDen := value, knob.full
	for _, rName := range regs {
		reg := ast.Register(rName)
		oldCells := reg.InstanceCount
		newCells := oldCells * scaleNum / scaleDen
		if newCells < 1 {
			newCells = 1
		}
		reg.InstanceCount = newCells
		if err := fixHashModulus(ast, knob.table, rName, oldCells, newCells); err != nil {
			return err
		}
	}
	return nil
}

// fixHashModulus updates the size argument of hash computations that index
// the given register within the table's actions: it finds register
// read/write primitives on the register, identifies the index field, and
// rewrites the matching modify_field_with_hash_based_offset size argument.
func fixHashModulus(ast *p4.Program, table, register string, oldCells, newCells int) error {
	t := ast.Table(table)
	for _, an := range t.ActionNames {
		act := ast.Action(an)
		if act == nil {
			continue
		}
		// Index fields used to access the register in this action.
		idxFields := map[string]bool{}
		for _, call := range act.Body {
			switch call.Name {
			case p4.PrimRegisterRead:
				if call.Args[1].(p4.FieldRef).Instance == register {
					if ref, ok := call.Args[2].(p4.FieldRef); ok {
						idxFields[ref.String()] = true
					}
				}
			case p4.PrimRegisterWrite:
				if call.Args[0].(p4.FieldRef).Instance == register {
					if ref, ok := call.Args[1].(p4.FieldRef); ok {
						idxFields[ref.String()] = true
					}
				}
			}
		}
		if len(idxFields) == 0 {
			continue
		}
		for _, call := range act.Body {
			if call.Name != p4.PrimHashOffset {
				continue
			}
			dst, ok := call.Args[0].(p4.FieldRef)
			if !ok || !idxFields[dst.String()] {
				continue
			}
			lit, ok := call.Args[3].(p4.IntLit)
			if !ok {
				return fmt.Errorf("core: hash modulus of %s in action %s is not a literal", register, an)
			}
			if int(lit.Value) != oldCells {
				return fmt.Errorf("core: hash modulus %d of %s does not match register size %d",
					lit.Value, register, oldCells)
			}
			call.Args[3] = p4.IntLit{Value: uint64(newCells)}
		}
	}
	return nil
}

// pruneUnused removes declarations that are no longer reachable from the
// control flow: unapplied tables, unreferenced actions, registers, field
// lists, and calculations. Header types and instances stay (the parser
// still references them). Used to tidy the optimized program Phase 4
// produces.
func pruneUnused(ast *p4.Program) {
	applied := map[string]bool{}
	for _, c := range ast.Controls {
		for _, t := range p4.TablesInBlock(c.Body) {
			applied[t] = true
		}
	}
	usedActions := map[string]bool{}
	usedRegisters := map[string]bool{}
	usedCounters := map[string]bool{}
	usedCalcs := map[string]bool{}
	usedFieldLists := map[string]bool{}
	for _, t := range ast.Tables {
		if !applied[t.Name] {
			continue
		}
		for _, an := range t.ActionNames {
			usedActions[an] = true
		}
	}
	for _, a := range ast.Actions {
		if !usedActions[a.Name] {
			continue
		}
		for _, call := range a.Body {
			switch call.Name {
			case p4.PrimRegisterRead:
				usedRegisters[call.Args[1].(p4.FieldRef).Instance] = true
			case p4.PrimRegisterWrite:
				usedRegisters[call.Args[0].(p4.FieldRef).Instance] = true
			case p4.PrimCount:
				usedCounters[call.Args[0].(p4.FieldRef).Instance] = true
			case p4.PrimHashOffset:
				usedCalcs[call.Args[2].(p4.FieldRef).Instance] = true
			}
		}
	}
	for _, c := range ast.Calculations {
		if usedCalcs[c.Name] {
			usedFieldLists[c.Input] = true
		}
	}
	keep := func(d p4.Decl) bool {
		switch v := d.(type) {
		case *p4.TableDecl:
			return applied[v.Name]
		case *p4.ActionDecl:
			return usedActions[v.Name]
		case *p4.Register:
			return usedRegisters[v.Name]
		case *p4.Counter:
			return usedCounters[v.Name]
		case *p4.FieldListCalc:
			return usedCalcs[v.Name]
		case *p4.FieldList:
			return usedFieldLists[v.Name]
		}
		return true
	}
	var decls []p4.Decl
	for _, d := range ast.Decls {
		if keep(d) {
			decls = append(decls, d)
		}
	}
	ast.Decls = decls
	filterTables := ast.Tables[:0]
	for _, t := range ast.Tables {
		if applied[t.Name] {
			filterTables = append(filterTables, t)
		}
	}
	ast.Tables = filterTables
	filterActions := ast.Actions[:0]
	for _, a := range ast.Actions {
		if usedActions[a.Name] {
			filterActions = append(filterActions, a)
		}
	}
	ast.Actions = filterActions
	filterRegs := ast.Registers[:0]
	for _, r := range ast.Registers {
		if usedRegisters[r.Name] {
			filterRegs = append(filterRegs, r)
		}
	}
	ast.Registers = filterRegs
	filterCtrs := ast.Counters[:0]
	for _, c := range ast.Counters {
		if usedCounters[c.Name] {
			filterCtrs = append(filterCtrs, c)
		}
	}
	ast.Counters = filterCtrs
	filterCalcs := ast.Calculations[:0]
	for _, c := range ast.Calculations {
		if usedCalcs[c.Name] {
			filterCalcs = append(filterCalcs, c)
		}
	}
	ast.Calculations = filterCalcs
	filterFLs := ast.FieldLists[:0]
	for _, f := range ast.FieldLists {
		if usedFieldLists[f.Name] {
			filterFLs = append(filterFLs, f)
		}
	}
	ast.FieldLists = filterFLs
}
