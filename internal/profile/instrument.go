// Package profile implements P2GO's Phase 1: it instruments a program with
// a profiling header of action markers (§3.1: the printable artifact, and
// the names of the markers), replays a traffic trace through the program
// itself on the behavioral simulator, which returns each packet's
// execution marks in the header's order, and builds the profile —
// per-table hit rates and the sets of non-exclusive actions.
package profile

import (
	"fmt"

	"p2go/internal/p4"
	"p2go/internal/sim"
)

// TrailerName is the header instance the instrumentation appends to every
// outgoing packet.
const TrailerName = "p2go_prof"

// trailerType is its header type.
const trailerType = "p2go_prof_t"

// missActionPrefix names the synthesized default actions that make table
// misses observable.
const missActionPrefix = "p2go_miss_"

// FieldInfo describes one profiling-header field.
type FieldInfo struct {
	Field  string // field name inside the profiling header
	Table  string
	Action string
	// Miss marks the synthesized miss-marker default actions.
	Miss bool
}

// Instrumented is an instrumented program plus the marker mapping: Fields
// in sim.Marks order, one byte each.
type Instrumented struct {
	AST    *p4.Program
	Fields []FieldInfo
}

// Instrument clones the program and rewrites it so each executed action
// sets a dedicated 8-bit field of a profiling header appended to the
// packet:
//
//   - actions shared between tables are specialized (cloned per table) so a
//     marker identifies both the action and the table;
//   - tables with a reads block but no default action get a synthesized
//     marker-only default, making misses observable;
//   - every action body gains one modify_field on its own marker field.
//
// Each marker is a distinct field written by a single action, so the
// instrumentation adds no dependencies and cannot increase the program's
// required stages (§3.1). The markers follow sim.Marks, so a fate-level plan
// of the source program returns the header's bytes as its execution marks.
func Instrument(src *p4.Program) (*Instrumented, error) {
	ast := p4.Clone(src)
	p4.EnsureBuiltins(ast)
	if ast.Instance(TrailerName) != nil || ast.HeaderType(trailerType) != nil {
		return nil, fmt.Errorf("profile: program already declares %s", TrailerName)
	}

	// Specialize actions used by more than one table.
	owner := map[string]string{} // action -> first table using it
	for _, t := range ast.Tables {
		names := append([]string(nil), t.ActionNames...)
		for i, an := range names {
			first, used := owner[an]
			if !used {
				owner[an] = t.Name
				continue
			}
			if first == t.Name {
				continue // same table referencing the action twice
			}
			// Clone the action under a table-specific name.
			spec := an + "__" + t.Name
			if ast.Action(spec) == nil {
				orig := ast.Action(an)
				cp := &p4.ActionDecl{Name: spec}
				cp.Params = append(cp.Params, orig.Params...)
				for _, call := range orig.Body {
					c := &p4.PrimitiveCall{Name: call.Name}
					c.Args = append(c.Args, call.Args...)
					cp.Body = append(cp.Body, c)
				}
				ast.Actions = append(ast.Actions, cp)
				ast.Decls = append(ast.Decls, cp)
			}
			t.ActionNames[i] = spec
			if t.DefaultAction == an {
				t.DefaultAction = spec
			}
			owner[spec] = t.Name
		}
	}

	// One marker per (table, action); synthesized miss markers for tables
	// that would otherwise execute nothing on a miss.
	ins := &Instrumented{AST: ast}
	ht := &p4.HeaderType{Name: trailerType}
	for i, m := range sim.Marks(ast) {
		info := FieldInfo{Field: fmt.Sprintf("m%d", i), Table: m.Table, Action: m.Action, Miss: m.Miss}
		ht.Fields = append(ht.Fields, &p4.FieldDecl{Name: info.Field, Width: 8})
		if m.Miss {
			info.Action = missActionPrefix + m.Table
			act := &p4.ActionDecl{
				Name: info.Action,
				Body: []*p4.PrimitiveCall{{
					Name: p4.PrimModifyField,
					Args: []p4.Expr{p4.FieldRef{Instance: TrailerName, Field: info.Field}, p4.IntLit{Value: 1}},
				}},
			}
			ast.Actions = append(ast.Actions, act)
			ast.Decls = append(ast.Decls, act)
			t := ast.Table(m.Table)
			t.ActionNames = append(t.ActionNames, info.Action)
			t.DefaultAction = info.Action
		}
		ins.Fields = append(ins.Fields, info)
	}

	// Append the marker write to each instrumented action body.
	for _, info := range ins.Fields {
		if info.Miss {
			continue // body already writes the marker
		}
		act := ast.Action(info.Action)
		if act == nil {
			return nil, fmt.Errorf("profile: action %q vanished during instrumentation", info.Action)
		}
		act.Body = append(act.Body, &p4.PrimitiveCall{
			Name: p4.PrimModifyField,
			Args: []p4.Expr{p4.FieldRef{Instance: TrailerName, Field: info.Field}, p4.IntLit{Value: 1}},
		})
	}

	if len(ht.Fields) == 0 {
		return nil, fmt.Errorf("profile: program has no table actions to instrument")
	}
	inst := &p4.Instance{TypeName: trailerType, Name: TrailerName}
	ast.HeaderTypes = append(ast.HeaderTypes, ht)
	ast.Instances = append(ast.Instances, inst)
	ast.Decls = append(ast.Decls, ht, inst)

	if err := p4.Check(ast); err != nil {
		return nil, fmt.Errorf("profile: instrumented program fails checking: %w", err)
	}
	return ins, nil
}

// CountsEveryApply reports whether a profile's Applied count for the table
// is the number of packets it was applied to: every apply must leave a
// marker, hit or miss. A table with a match key always does (sim.Marks
// gives it a miss slot when no default is declared); a read-less table only
// when it declares a default action.
func CountsEveryApply(t *p4.TableDecl) bool {
	return len(t.Reads) > 0 || t.DefaultAction != ""
}
