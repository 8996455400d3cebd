// Package profile implements P2GO's Phase 1: it instruments a program so
// every packet carries a profiling header recording the actions applied to
// it, replays a traffic trace through the behavioral simulator, and builds
// the profile — per-table hit rates and the sets of non-exclusive actions.
package profile

import (
	"fmt"
	"sort"

	"p2go/internal/p4"
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

// Instrumented is an instrumented program plus the marker mapping.
type Instrumented struct {
	AST    *p4.Program
	Fields []FieldInfo
	// byTableAction maps (table, action) to the marker field name.
	byTableAction map[[2]string]string
	trailerBytes  int
}

// TrailerBytes returns the byte length of the profiling header.
func (ins *Instrumented) TrailerBytes() int { return ins.trailerBytes }

// Field returns the marker field for (table, action), or "".
func (ins *Instrumented) Field(table, action string) string {
	return ins.byTableAction[[2]string{table, action}]
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
// required stages (§3.1).
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

	ins := &Instrumented{AST: ast, byTableAction: map[[2]string]string{}}
	ht := &p4.HeaderType{Name: trailerType}
	fieldIdx := 0
	addMarker := func(table, action string, miss bool) string {
		name := fmt.Sprintf("m%d", fieldIdx)
		fieldIdx++
		ht.Fields = append(ht.Fields, &p4.FieldDecl{Name: name, Width: 8})
		ins.Fields = append(ins.Fields, FieldInfo{Field: name, Table: table, Action: action, Miss: miss})
		ins.byTableAction[[2]string{table, action}] = name
		return name
	}

	// One marker per (table, action); synthesized miss markers for tables
	// that would otherwise execute nothing on a miss.
	for _, t := range ast.Tables {
		for _, an := range t.ActionNames {
			addMarker(t.Name, an, false)
		}
		if len(t.Reads) > 0 && t.DefaultAction == "" {
			missName := missActionPrefix + t.Name
			field := addMarker(t.Name, missName, true)
			act := &p4.ActionDecl{
				Name: missName,
				Body: []*p4.PrimitiveCall{{
					Name: p4.PrimModifyField,
					Args: []p4.Expr{p4.FieldRef{Instance: TrailerName, Field: field}, p4.IntLit{Value: 1}},
				}},
			}
			ast.Actions = append(ast.Actions, act)
			ast.Decls = append(ast.Decls, act)
			t.ActionNames = append(t.ActionNames, missName)
			t.DefaultAction = missName
		}
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
	ins.trailerBytes = (ht.Bits() + 7) / 8
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
// marker, hit or miss. A table with a match key always does (Instrument
// synthesizes the miss action when no default is declared); a read-less
// table only when it declares a default action.
func CountsEveryApply(t *p4.TableDecl) bool {
	return len(t.Reads) > 0 || t.DefaultAction != ""
}

// ParseTrailer extracts the marker values from an outgoing packet and
// returns the executed (table, action) pairs, in marker order.
func (ins *Instrumented) ParseTrailer(data []byte) ([]FieldInfo, error) {
	n := ins.TrailerBytes()
	if len(data) < n {
		return nil, fmt.Errorf("profile: packet shorter (%d bytes) than trailer (%d)", len(data), n)
	}
	trailer := data[len(data)-n:]
	var executed []FieldInfo
	for i, info := range ins.Fields {
		if trailer[i] != 0 {
			executed = append(executed, info)
		}
	}
	return executed, nil
}

// sortedFieldNames is a test helper listing marker fields in order.
func (ins *Instrumented) sortedFieldNames() []string {
	var out []string
	for _, f := range ins.Fields {
		out = append(out, f.Field)
	}
	sort.Strings(out)
	return out
}
