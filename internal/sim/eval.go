package sim

import (
	"fmt"

	"p2go/internal/hashes"
	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/rt"
)

// runBlock executes a control-flow block.
func (s *Switch) runBlock(st *state, b *p4.BlockStmt) error {
	if b == nil {
		return nil
	}
	for _, stmt := range b.Stmts {
		switch v := stmt.(type) {
		case *p4.ApplyStmt:
			hit, err := s.applyTable(st, v.Table)
			if err != nil {
				return err
			}
			if hit {
				if err := s.runBlock(st, v.Hit); err != nil {
					return err
				}
			} else {
				if err := s.runBlock(st, v.Miss); err != nil {
					return err
				}
			}
		case *p4.IfStmt:
			cond, err := s.evalBool(st, v.Cond)
			if err != nil {
				return err
			}
			if cond {
				if err := s.runBlock(st, v.Then); err != nil {
					return err
				}
			} else if v.Else != nil {
				if err := s.runBlock(st, v.Else); err != nil {
					return err
				}
			}
		case *p4.BlockStmt:
			if err := s.runBlock(st, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyTable looks up the table and executes the selected action. The
// returned hit flag drives hit/miss arms and is recorded in the execution
// trace. A table without a reads block "hits" whenever it is applied (its
// default action is its behavior); this matches how the paper reports hit
// rates for the always-on sketch tables.
func (s *Switch) applyTable(st *state, name string) (bool, error) {
	ts := s.tables[name]
	if ts == nil {
		return false, fmt.Errorf("sim: unknown table %q", name)
	}
	decl := ts.decl
	if len(decl.Reads) == 0 {
		action, argValues, argExprs := ts.effectiveDefault()
		if action == "" {
			st.exec = append(st.exec, Executed{Table: name, Action: "", Hit: true})
			return true, nil
		}
		if err := s.execAction(st, action, argExprs, argValues); err != nil {
			return false, err
		}
		st.exec = append(st.exec, Executed{Table: name, Action: action, Hit: true})
		return true, nil
	}

	// Build the lookup key.
	key := make([]uint64, len(decl.Reads))
	widths := make([]int, len(decl.Reads))
	for i, r := range decl.Reads {
		if r.Kind == p4.MatchValid {
			if st.valid[r.Field.Instance] {
				key[i] = 1
			}
			widths[i] = 1
			continue
		}
		key[i] = st.fields[ir.Key(r.Field)]
		widths[i] = s.widths[ir.Key(r.Field)]
	}

	best := -1
	bestPrefix := -1
	bestPriority := 0
	for idx, rule := range ts.rules {
		matched := true
		prefix := 0
		for i, m := range rule.Matches {
			if !m.Matches(key[i], widths[i]) {
				matched = false
				break
			}
			if m.Kind == p4.MatchLPM {
				prefix += m.PrefixLen
			}
		}
		if !matched {
			continue
		}
		better := false
		switch {
		case best == -1:
			better = true
		case rule.Priority != bestPriority:
			better = rule.Priority > bestPriority
		case prefix != bestPrefix:
			better = prefix > bestPrefix
		}
		if better {
			best = idx
			bestPrefix = prefix
			bestPriority = rule.Priority
		}
	}
	if best >= 0 {
		rule := ts.rules[best]
		if err := s.execAction(st, rule.Action, nil, rule.Args); err != nil {
			return false, err
		}
		st.exec = append(st.exec, Executed{Table: name, Action: rule.Action, Hit: true})
		return true, nil
	}
	// Miss: run the (possibly runtime-overridden) default action.
	action, argValues, argExprs := ts.effectiveDefault()
	if action != "" {
		if err := s.execAction(st, action, argExprs, argValues); err != nil {
			return false, err
		}
	}
	st.exec = append(st.exec, Executed{Table: name, Action: action, Hit: false})
	return false, nil
}

// execAction runs a compound action. Exactly one of argExprs (expressions
// from a default_action declaration) or argValues (values from an installed
// rule) provides the parameter bindings.
func (s *Switch) execAction(st *state, name string, argExprs []p4.Expr, argValues []uint64) error {
	decl := s.prog.AST.Action(name)
	if decl == nil {
		return fmt.Errorf("sim: unknown action %q", name)
	}
	bindings := map[string]uint64{}
	switch {
	case argValues != nil:
		if len(argValues) != len(decl.Params) {
			return fmt.Errorf("sim: action %s expects %d args, got %d", name, len(decl.Params), len(argValues))
		}
		for i, p := range decl.Params {
			bindings[p] = argValues[i]
		}
	case len(argExprs) > 0:
		if len(argExprs) != len(decl.Params) {
			return fmt.Errorf("sim: action %s expects %d args, got %d", name, len(decl.Params), len(argExprs))
		}
		for i, p := range decl.Params {
			v, err := s.evalExpr(st, argExprs[i], nil)
			if err != nil {
				return err
			}
			bindings[p] = v
		}
	default:
		if len(decl.Params) != 0 {
			return fmt.Errorf("sim: action %s requires %d args", name, len(decl.Params))
		}
	}
	for _, call := range decl.Body {
		if err := s.execPrimitive(st, call, bindings); err != nil {
			return fmt.Errorf("sim: action %s: %w", name, err)
		}
	}
	return nil
}

func (s *Switch) execPrimitive(st *state, call *p4.PrimitiveCall, bind map[string]uint64) error {
	arg := func(i int) (uint64, error) { return s.evalExpr(st, call.Args[i], bind) }
	dst := func(i int) (ir.FieldKey, error) {
		ref, ok := call.Args[i].(p4.FieldRef)
		if !ok || ref.Field == "" {
			return "", fmt.Errorf("%s: argument %d is not a field", call.Name, i)
		}
		return ir.Key(ref), nil
	}
	switch call.Name {
	case p4.PrimModifyField:
		k, err := dst(0)
		if err != nil {
			return err
		}
		v, err := arg(1)
		if err != nil {
			return err
		}
		s.setField(st, k, v)
	case p4.PrimAddToField, p4.PrimSubFromField:
		k, err := dst(0)
		if err != nil {
			return err
		}
		v, err := arg(1)
		if err != nil {
			return err
		}
		cur := st.fields[k]
		if call.Name == p4.PrimAddToField {
			s.setField(st, k, cur+v)
		} else {
			s.setField(st, k, cur-v)
		}
	case p4.PrimBitAnd, p4.PrimBitOr, p4.PrimBitXor, p4.PrimMin, p4.PrimMax:
		k, err := dst(0)
		if err != nil {
			return err
		}
		a, err := arg(1)
		if err != nil {
			return err
		}
		b, err := arg(2)
		if err != nil {
			return err
		}
		var v uint64
		switch call.Name {
		case p4.PrimBitAnd:
			v = a & b
		case p4.PrimBitOr:
			v = a | b
		case p4.PrimBitXor:
			v = a ^ b
		case p4.PrimMin:
			v = a
			if b < a {
				v = b
			}
		case p4.PrimMax:
			v = a
			if b > a {
				v = b
			}
		}
		s.setField(st, k, v)
	case p4.PrimDrop:
		st.wouldDrop = true
		if !s.opts.NeutralizeDrops {
			s.setField(st, ir.FieldKey(p4.StandardMetadataName+"."+p4.FieldEgressSpec), DropPort)
		}
	case p4.PrimNoOp:
	case p4.PrimRegisterRead:
		k, err := dst(0)
		if err != nil {
			return err
		}
		regName := call.Args[1].(p4.FieldRef).Instance
		reg, ok := s.registers[regName]
		if !ok {
			return fmt.Errorf("register_read: unknown register %q", regName)
		}
		idx, err := arg(2)
		if err != nil {
			return err
		}
		if idx >= uint64(len(reg)) {
			return fmt.Errorf("register_read: index %d out of range for %s[%d]", idx, regName, len(reg))
		}
		s.setField(st, k, reg[idx])
	case p4.PrimRegisterWrite:
		regName := call.Args[0].(p4.FieldRef).Instance
		reg, ok := s.registers[regName]
		if !ok {
			return fmt.Errorf("register_write: unknown register %q", regName)
		}
		idx, err := arg(1)
		if err != nil {
			return err
		}
		if idx >= uint64(len(reg)) {
			return fmt.Errorf("register_write: index %d out of range for %s[%d]", idx, regName, len(reg))
		}
		v, err := arg(2)
		if err != nil {
			return err
		}
		r := s.prog.AST.Register(regName)
		if r.Width < 64 {
			v &= 1<<uint(r.Width) - 1
		}
		reg[idx] = v
	case p4.PrimCount:
		ctrName := call.Args[0].(p4.FieldRef).Instance
		ctr, ok := s.counters[ctrName]
		if !ok {
			return fmt.Errorf("count: unknown counter %q", ctrName)
		}
		idx, err := arg(1)
		if err != nil {
			return err
		}
		if idx >= uint64(len(ctr)) {
			return fmt.Errorf("count: index %d out of range for %s[%d]", idx, ctrName, len(ctr))
		}
		ctr[idx].Packets++
		ctr[idx].Bytes += st.fields[ir.FieldKey(p4.StandardMetadataName+"."+p4.FieldPacketLength)]
	case p4.PrimHashOffset:
		k, err := dst(0)
		if err != nil {
			return err
		}
		base, err := arg(1)
		if err != nil {
			return err
		}
		calcName := call.Args[2].(p4.FieldRef).Instance
		size, err := arg(3)
		if err != nil {
			return err
		}
		if size == 0 {
			return fmt.Errorf("%s: zero size", call.Name)
		}
		h, err := s.computeHash(st, calcName)
		if err != nil {
			return err
		}
		s.setField(st, k, base+h%size)
	default:
		return fmt.Errorf("unknown primitive %q", call.Name)
	}
	return nil
}

// computeHash evaluates a field_list_calculation over current field values.
func (s *Switch) computeHash(st *state, calcName string) (uint64, error) {
	calc := s.prog.AST.Calculation(calcName)
	if calc == nil {
		return 0, fmt.Errorf("unknown calculation %q", calcName)
	}
	alg, err := hashes.FromName(calc.Algorithm)
	if err != nil {
		return 0, err
	}
	fl := s.prog.AST.FieldList(calc.Input)
	values := make([]uint64, len(fl.Fields))
	widths := make([]int, len(fl.Fields))
	for i, f := range fl.Fields {
		values[i] = st.fields[ir.Key(f)]
		widths[i] = s.widths[ir.Key(f)]
	}
	data := hashes.PackBits(values, widths)
	return hashes.Compute(alg, data, calc.OutputWidth), nil
}

// evalExpr computes the value of an arithmetic expression.
func (s *Switch) evalExpr(st *state, e p4.Expr, bind map[string]uint64) (uint64, error) {
	switch v := e.(type) {
	case p4.IntLit:
		return v.Value, nil
	case p4.SymRef:
		// Un-instantiated tunable reference: evaluate at the default it
		// carries. Instantiated programs never contain SymRefs.
		return v.Value, nil
	case p4.FieldRef:
		if v.Field == "" {
			if bind != nil {
				if val, ok := bind[v.Instance]; ok {
					return val, nil
				}
			}
			return 0, fmt.Errorf("bare reference %q is not a value", v.Instance)
		}
		return st.fields[ir.Key(v)], nil
	case p4.ParamRef:
		if bind == nil {
			return 0, fmt.Errorf("parameter %q outside action context", v.Name)
		}
		val, ok := bind[v.Name]
		if !ok {
			return 0, fmt.Errorf("unbound parameter %q", v.Name)
		}
		return val, nil
	}
	return 0, fmt.Errorf("unknown expression %T", e)
}

// evalBool evaluates an if condition.
func (s *Switch) evalBool(st *state, e p4.BoolExpr) (bool, error) {
	switch v := e.(type) {
	case *p4.ValidExpr:
		return st.valid[v.Instance], nil
	case *p4.CompareExpr:
		l, err := s.evalExpr(st, v.Left, nil)
		if err != nil {
			return false, err
		}
		r, err := s.evalExpr(st, v.Right, nil)
		if err != nil {
			return false, err
		}
		switch v.Op {
		case "==":
			return l == r, nil
		case "!=":
			return l != r, nil
		case "<":
			return l < r, nil
		case "<=":
			return l <= r, nil
		case ">":
			return l > r, nil
		case ">=":
			return l >= r, nil
		}
		return false, fmt.Errorf("sim: unknown comparison %q", v.Op)
	case *p4.BinaryBoolExpr:
		l, err := s.evalBool(st, v.Left)
		if err != nil {
			return false, err
		}
		if v.Op == "and" && !l {
			return false, nil
		}
		if v.Op == "or" && l {
			return true, nil
		}
		return s.evalBool(st, v.Right)
	case *p4.NotExpr:
		x, err := s.evalBool(st, v.X)
		if err != nil {
			return false, err
		}
		return !x, nil
	}
	return false, fmt.Errorf("sim: unknown boolean expression %T", e)
}

// setField stores a value, masked to the field's declared width. Non-CPU
// writes to egress_spec are remembered as the pipeline's forwarding
// decision (Output.ForwardPort).
func (s *Switch) setField(st *state, k ir.FieldKey, v uint64) {
	if w, ok := s.widths[k]; ok && w < 64 {
		v &= 1<<uint(w) - 1
	}
	st.fields[k] = v
	if k == egressSpecKey && v != CPUPort {
		st.forwardPort = v
	}
}

// egressSpecKey is the intrinsic egress field key.
var egressSpecKey = ir.FieldKey(p4.StandardMetadataName + "." + p4.FieldEgressSpec)

// InstallRule adds a rule at runtime (used by tests and the what-if flows).
// The rule is validated and lowered before anything is committed: on error
// the Switch is exactly as it was.
func (s *Switch) InstallRule(r rt.Rule) error {
	probe := &rt.Config{Rules: []rt.Rule{r}}
	if err := rt.Validate(probe, s.prog); err != nil {
		return err
	}
	ts := s.tables[r.Table]
	if s.useCompiled() {
		cc := s.plan.c.lower
		ti := cc.tableOf[r.Table]
		cr, err := cc.lowerRule(ts.decl, &s.plan.c.tables[ti], r)
		if err != nil {
			return err
		}
		s.crules[ti] = append(append([]cRule(nil), s.crules[ti]...), cr)
	}
	// Copy on write: the backing array is shared with the plan and with
	// sibling Switches built from it.
	ts.rules = append(append([]rt.Rule(nil), ts.rules...), r)
	s.cfg.Add(r)
	return nil
}
