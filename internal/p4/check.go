package p4

import (
	"fmt"
)

// Primitive action names understood by the toolchain. min/max are documented
// extensions over stock P4_14 (where programmers emulate them with tables);
// they keep the Count-Min Sketch examples compact without changing any of
// the dependency or memory behaviour P2GO reasons about.
const (
	PrimModifyField   = "modify_field"
	PrimAddToField    = "add_to_field"
	PrimSubFromField  = "subtract_from_field"
	PrimBitAnd        = "bit_and"
	PrimBitOr         = "bit_or"
	PrimBitXor        = "bit_xor"
	PrimMin           = "min"
	PrimMax           = "max"
	PrimDrop          = "drop"
	PrimNoOp          = "no_op"
	PrimRegisterRead  = "register_read"
	PrimRegisterWrite = "register_write"
	PrimHashOffset    = "modify_field_with_hash_based_offset"
	PrimCount         = "count"
)

// primitiveArity maps each primitive to its required argument count.
var primitiveArity = map[string]int{
	PrimModifyField:   2,
	PrimAddToField:    2,
	PrimSubFromField:  2,
	PrimBitAnd:        3,
	PrimBitOr:         3,
	PrimBitXor:        3,
	PrimMin:           3,
	PrimMax:           3,
	PrimDrop:          0,
	PrimNoOp:          0,
	PrimRegisterRead:  3,
	PrimRegisterWrite: 3,
	PrimHashOffset:    4,
	PrimCount:         2,
}

// KnownPrimitive reports whether name is a recognized primitive action.
func KnownPrimitive(name string) bool {
	_, ok := primitiveArity[name]
	return ok
}

// Names of builtin entities.
const (
	StandardMetadataType = "standard_metadata_t"
	StandardMetadataName = "standard_metadata"
	IngressControl       = "ingress"
	EgressControl        = "egress"
	StartState           = "start"
)

// Standard metadata fields.
const (
	FieldIngressPort  = "ingress_port"
	FieldEgressSpec   = "egress_spec"
	FieldEgressPort   = "egress_port"
	FieldPacketLength = "packet_length"
	FieldInstanceType = "instance_type"
)

// standardMetadataType returns the builtin standard_metadata_t header type.
func standardMetadataType() *HeaderType {
	return &HeaderType{
		Name: StandardMetadataType,
		Fields: []*FieldDecl{
			{Name: FieldIngressPort, Width: 9},
			{Name: FieldEgressSpec, Width: 9},
			{Name: FieldEgressPort, Width: 9},
			{Name: FieldPacketLength, Width: 16},
			{Name: FieldInstanceType, Width: 8},
		},
	}
}

// EnsureBuiltins adds the builtin standard_metadata declaration to the
// program if the source did not declare it. It is idempotent.
func EnsureBuiltins(p *Program) {
	if p.HeaderType(StandardMetadataType) == nil {
		ht := standardMetadataType()
		p.HeaderTypes = append(p.HeaderTypes, ht)
		p.Decls = append([]Decl{ht}, p.Decls...)
	}
	if p.Instance(StandardMetadataName) == nil {
		inst := &Instance{TypeName: StandardMetadataType, Name: StandardMetadataName, Metadata: true}
		p.Instances = append(p.Instances, inst)
		// Insert after the header type for readable printing.
		p.Decls = append([]Decl{p.Decls[0], inst}, p.Decls[1:]...)
	}
}

// Check validates the program: all names resolve, primitive arities match,
// tables reference declared actions, the control flow references declared
// tables, each table is applied at most once (an RMT constraint the stage
// allocator relies on), and an ingress control exists. Check calls
// EnsureBuiltins first, so callers get standard_metadata for free.
func Check(p *Program) error {
	EnsureBuiltins(p)

	if err := checkStandardMetadata(p); err != nil {
		return err
	}
	if err := checkTunables(p); err != nil {
		return err
	}

	for _, inst := range p.Instances {
		if p.HeaderType(inst.TypeName) == nil {
			return fmt.Errorf("instance %q: unknown header type %q", inst.Name, inst.TypeName)
		}
	}

	resolveField := func(where string, ref FieldRef) error {
		inst := p.Instance(ref.Instance)
		if inst == nil {
			return fmt.Errorf("%s: unknown instance %q", where, ref.Instance)
		}
		if ref.Field == "" {
			return fmt.Errorf("%s: %q is not a field reference", where, ref.Instance)
		}
		ht := p.HeaderType(inst.TypeName)
		if ht.Field(ref.Field) == nil {
			return fmt.Errorf("%s: header type %q has no field %q", where, inst.TypeName, ref.Field)
		}
		return nil
	}

	for _, fl := range p.FieldLists {
		for _, f := range fl.Fields {
			if err := resolveField("field_list "+fl.Name, f); err != nil {
				return err
			}
		}
	}
	for _, c := range p.Calculations {
		if p.FieldList(c.Input) == nil {
			return fmt.Errorf("field_list_calculation %q: unknown field list %q", c.Name, c.Input)
		}
		switch c.Algorithm {
		case "crc16", "crc32", "identity", "csum16":
		default:
			return fmt.Errorf("field_list_calculation %q: unknown algorithm %q", c.Name, c.Algorithm)
		}
		if c.OutputWidth <= 0 || c.OutputWidth > 64 {
			return fmt.Errorf("field_list_calculation %q: output_width must be 1..64", c.Name)
		}
	}

	for _, cf := range p.CalcFields {
		if err := resolveField("calculated_field", cf.Field); err != nil {
			return err
		}
		for _, calc := range []string{cf.Update, cf.Verify} {
			if calc != "" && p.Calculation(calc) == nil {
				return fmt.Errorf("calculated_field %s: unknown calculation %q", cf.Field, calc)
			}
		}
	}

	if err := checkParsers(p); err != nil {
		return err
	}
	if err := checkActions(p, resolveField); err != nil {
		return err
	}
	if err := checkTables(p); err != nil {
		return err
	}
	return checkControls(p, resolveField)
}

// checkStandardMetadata refuses a program that declares standard_metadata
// other than as the builtin: the simulator reads egress_spec as nine bits
// (the drop port is 511, a replay keeps each packet's port in a nine-bit
// sim.Outcome), so a narrower field turns drops into CPU sends and a wider
// one routes to ports no fate can hold.
func checkStandardMetadata(p *Program) error {
	ht, want := p.HeaderType(StandardMetadataType), standardMetadataType()
	for i, f := range want.Fields {
		if i >= len(ht.Fields) || *ht.Fields[i] != *f {
			return fmt.Errorf("header_type %s: field %d must be the builtin %s : %d",
				StandardMetadataType, i, f.Name, f.Width)
		}
	}
	if len(ht.Fields) > len(want.Fields) {
		return fmt.Errorf("header_type %s: %d fields, the builtin has %d",
			StandardMetadataType, len(ht.Fields), len(want.Fields))
	}
	if inst := p.Instance(StandardMetadataName); inst.TypeName != StandardMetadataType || !inst.Metadata {
		return fmt.Errorf("instance %s: must be metadata of type %s", StandardMetadataName, StandardMetadataType)
	}
	return nil
}

// checkTunables validates tunable ranges and rejects name collisions with
// the declaration kinds a bare identifier can reference (which is how
// tunable use sites are resolved).
func checkTunables(p *Program) error {
	for _, t := range p.Tunables {
		if t.Min < 1 || t.Min > t.Max || t.Default < t.Min || t.Default > t.Max {
			return fmt.Errorf("tunable %q: need 1 <= min <= default <= max, got (%d, %d, %d)",
				t.Name, t.Min, t.Max, t.Default)
		}
		if p.Instance(t.Name) != nil || p.Register(t.Name) != nil ||
			p.Counter(t.Name) != nil || p.Calculation(t.Name) != nil {
			return fmt.Errorf("tunable %q: name collides with another declaration", t.Name)
		}
	}
	check := func(where, sym string) error {
		if sym != "" && p.Tunable(sym) == nil {
			return fmt.Errorf("%s: unknown tunable %q", where, sym)
		}
		return nil
	}
	for _, r := range p.Registers {
		if err := check("register "+r.Name, r.CountSym); err != nil {
			return err
		}
	}
	for _, t := range p.Tables {
		if err := check("table "+t.Name, t.SizeSym); err != nil {
			return err
		}
	}
	return nil
}

func checkParsers(p *Program) error {
	if len(p.ParserStates) > 0 && p.ParserState(StartState) == nil {
		return fmt.Errorf("parser: no %q state", StartState)
	}
	for _, st := range p.ParserStates {
		where := "parser " + st.Name
		for _, s := range st.Statements {
			switch v := s.(type) {
			case *ExtractStmt:
				inst := p.Instance(v.Instance)
				if inst == nil {
					return fmt.Errorf("%s: extract of unknown instance %q", where, v.Instance)
				}
				if inst.Metadata {
					return fmt.Errorf("%s: cannot extract metadata instance %q", where, v.Instance)
				}
			case *SetMetadataStmt:
				inst := p.Instance(v.Dst.Instance)
				if inst == nil || !inst.Metadata {
					return fmt.Errorf("%s: set_metadata target %s is not metadata", where, v.Dst)
				}
			}
		}
		switch r := st.Return.(type) {
		case *ReturnState:
			if r.State != IngressControl && p.ParserState(r.State) == nil {
				return fmt.Errorf("%s: return to unknown state %q", where, r.State)
			}
		case *ReturnSelect:
			if len(r.On) == 0 {
				return fmt.Errorf("%s: select with no operands", where)
			}
			hasDefault := false
			for _, c := range r.Cases {
				if c.IsDefault {
					hasDefault = true
				}
				if c.State != IngressControl && p.ParserState(c.State) == nil {
					return fmt.Errorf("%s: select case returns to unknown state %q", where, c.State)
				}
			}
			if !hasDefault {
				return fmt.Errorf("%s: select requires a default case", where)
			}
		case nil:
			return fmt.Errorf("%s: missing return", where)
		}
	}
	return nil
}

func checkActions(p *Program, resolveField func(string, FieldRef) error) error {
	for _, a := range p.Actions {
		where := "action " + a.Name
		if KnownPrimitive(a.Name) {
			return fmt.Errorf("%s: name collides with a primitive", where)
		}
		for _, call := range a.Body {
			arity, ok := primitiveArity[call.Name]
			if !ok {
				return fmt.Errorf("%s: unknown primitive %q", where, call.Name)
			}
			if len(call.Args) != arity {
				return fmt.Errorf("%s: %s expects %d args, got %d", where, call.Name, arity, len(call.Args))
			}
			if err := checkPrimitiveArgs(p, where, call, resolveField); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkPrimitiveArgs(p *Program, where string, call *PrimitiveCall, resolveField func(string, FieldRef) error) error {
	checkValue := func(e Expr) error {
		switch v := e.(type) {
		case FieldRef:
			return resolveField(where, v)
		case IntLit, ParamRef, SymRef:
			return nil
		}
		return fmt.Errorf("%s: invalid argument", where)
	}
	checkDstField := func(e Expr) error {
		ref, ok := e.(FieldRef)
		if !ok {
			return fmt.Errorf("%s: %s destination must be a field", where, call.Name)
		}
		return resolveField(where, ref)
	}
	switch call.Name {
	case PrimModifyField, PrimAddToField, PrimSubFromField:
		if err := checkDstField(call.Args[0]); err != nil {
			return err
		}
		return checkValue(call.Args[1])
	case PrimBitAnd, PrimBitOr, PrimBitXor, PrimMin, PrimMax:
		if err := checkDstField(call.Args[0]); err != nil {
			return err
		}
		if err := checkValue(call.Args[1]); err != nil {
			return err
		}
		return checkValue(call.Args[2])
	case PrimRegisterRead:
		if err := checkDstField(call.Args[0]); err != nil {
			return err
		}
		reg, ok := call.Args[1].(FieldRef)
		if !ok || reg.Field != "" || p.Register(reg.Instance) == nil {
			return fmt.Errorf("%s: register_read second argument must name a register", where)
		}
		return checkValue(call.Args[2])
	case PrimRegisterWrite:
		reg, ok := call.Args[0].(FieldRef)
		if !ok || reg.Field != "" || p.Register(reg.Instance) == nil {
			return fmt.Errorf("%s: register_write first argument must name a register", where)
		}
		if err := checkValue(call.Args[1]); err != nil {
			return err
		}
		return checkValue(call.Args[2])
	case PrimHashOffset:
		if err := checkDstField(call.Args[0]); err != nil {
			return err
		}
		if err := checkValue(call.Args[1]); err != nil {
			return err
		}
		calc, ok := call.Args[2].(FieldRef)
		if !ok || calc.Field != "" || p.Calculation(calc.Instance) == nil {
			return fmt.Errorf("%s: %s third argument must name a field_list_calculation", where, call.Name)
		}
		return checkValue(call.Args[3])
	case PrimCount:
		ctr, ok := call.Args[0].(FieldRef)
		if !ok || ctr.Field != "" || p.Counter(ctr.Instance) == nil {
			return fmt.Errorf("%s: count first argument must name a counter", where)
		}
		return checkValue(call.Args[1])
	case PrimDrop, PrimNoOp:
		return nil
	}
	return nil
}

func checkTables(p *Program) error {
	for _, t := range p.Tables {
		where := "table " + t.Name
		for _, r := range t.Reads {
			if r.Kind == MatchValid {
				if r.Field.Field != "" {
					return fmt.Errorf("%s: valid match must name a header instance, not a field", where)
				}
				inst := p.Instance(r.Field.Instance)
				if inst == nil {
					return fmt.Errorf("%s: valid match on unknown instance %q", where, r.Field.Instance)
				}
				continue
			}
			inst := p.Instance(r.Field.Instance)
			if inst == nil {
				return fmt.Errorf("%s: reads unknown instance %q", where, r.Field.Instance)
			}
			ht := p.HeaderType(inst.TypeName)
			if ht.Field(r.Field.Field) == nil {
				return fmt.Errorf("%s: reads unknown field %s", where, r.Field)
			}
		}
		for _, an := range t.ActionNames {
			if p.Action(an) == nil {
				return fmt.Errorf("%s: unknown action %q", where, an)
			}
		}
		if t.DefaultAction != "" {
			found := false
			for _, an := range t.ActionNames {
				if an == t.DefaultAction {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("%s: default_action %q is not in the actions list", where, t.DefaultAction)
			}
			da := p.Action(t.DefaultAction)
			if da != nil && len(da.Params) != len(t.DefaultArgs) {
				return fmt.Errorf("%s: default_action %q expects %d args, got %d",
					where, t.DefaultAction, len(da.Params), len(t.DefaultArgs))
			}
		}
		if t.Size < 0 {
			return fmt.Errorf("%s: negative size", where)
		}
	}
	return nil
}

func checkControls(p *Program, resolveField func(string, FieldRef) error) error {
	if p.Control(IngressControl) == nil {
		return fmt.Errorf("control: no %q control declared", IngressControl)
	}
	applied := map[string]bool{}
	for _, c := range p.Controls {
		where := "control " + c.Name
		ok := true
		var walkErr error
		WalkStmts(c.Body, func(s Stmt) bool {
			switch v := s.(type) {
			case *ApplyStmt:
				if p.Table(v.Table) == nil {
					walkErr = fmt.Errorf("%s: apply of unknown table %q", where, v.Table)
					ok = false
					return false
				}
				if applied[v.Table] {
					walkErr = fmt.Errorf("%s: table %q applied more than once", where, v.Table)
					ok = false
					return false
				}
				applied[v.Table] = true
			case *IfStmt:
				if err := checkBoolExpr(p, where, v.Cond, resolveField); err != nil {
					walkErr = err
					ok = false
					return false
				}
			}
			return true
		})
		if !ok {
			return walkErr
		}
	}
	return nil
}

func checkBoolExpr(p *Program, where string, e BoolExpr, resolveField func(string, FieldRef) error) error {
	switch v := e.(type) {
	case *ValidExpr:
		if p.Instance(v.Instance) == nil {
			return fmt.Errorf("%s: valid() on unknown instance %q", where, v.Instance)
		}
		return nil
	case *CompareExpr:
		for _, side := range []Expr{v.Left, v.Right} {
			if ref, ok := side.(FieldRef); ok {
				if err := resolveField(where, ref); err != nil {
					return err
				}
			}
		}
		return nil
	case *BinaryBoolExpr:
		if err := checkBoolExpr(p, where, v.Left, resolveField); err != nil {
			return err
		}
		return checkBoolExpr(p, where, v.Right, resolveField)
	case *NotExpr:
		return checkBoolExpr(p, where, v.X, resolveField)
	}
	return fmt.Errorf("%s: unknown boolean expression", where)
}
