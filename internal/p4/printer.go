package p4

import (
	"io"
	"strconv"
)

// Print renders a program back to P4_14 source. The output parses back to an
// equivalent AST (round-trip property, see tests), which is what lets the
// optimizer hand rewritten programs to the compiler, and the programmer read
// them.
func Print(p *Program) string { return string(AppendProgram(nil, p)) }

// Fprint writes exactly the text Print returns to w.
func Fprint(w io.Writer, p *Program) error {
	_, err := w.Write(AppendProgram(nil, p))
	return err
}

// AppendProgram appends the program's source text to dst and returns the
// extended slice; with enough capacity in dst it allocates nothing, which is
// what lets every analysis-cache lookup key a candidate on its printed text.
//
// The text is a contract, not a rendering choice: compile, profile, plan and
// fleet-device keys are digests of it and are spilled to disk, and reports
// carry it verbatim. A changed byte orphans every spilled entry (see
// core.TestPrintGolden).
func AppendProgram(dst []byte, p *Program) []byte {
	for i, d := range p.Decls {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = appendDecl(dst, d)
	}
	return dst
}

func appendDecl(b []byte, d Decl) []byte {
	switch v := d.(type) {
	case *Tunable:
		b = cat(b, "@tunable(", v.Name)
		for _, n := range [...]int{v.Min, v.Max, v.Default} {
			b = append(b, ", "...)
			b = appendInt(b, n)
		}
		b = append(b, ");\n"...)
	case *HeaderType:
		b = cat(b, "header_type ", v.Name, " {\n    fields {\n")
		for _, f := range v.Fields {
			b = cat(b, "        ", f.Name, " : ")
			b = appendInt(b, f.Width)
			b = append(b, ";\n"...)
		}
		b = append(b, "    }\n}\n"...)
	case *Instance:
		kw := "header "
		if v.Metadata {
			kw = "metadata "
		}
		b = cat(b, kw, v.TypeName, " ", v.Name, ";\n")
	case *Register:
		b = cat(b, "register ", v.Name, " {\n    width : ")
		b = appendInt(b, v.Width)
		b = append(b, ";\n    instance_count : "...)
		if v.CountSym != "" {
			b = append(b, v.CountSym...)
		} else {
			b = appendInt(b, v.InstanceCount)
		}
		b = append(b, ";\n}\n"...)
	case *Counter:
		b = cat(b, "counter ", v.Name, " {\n    type : ", v.Kind, ";\n    instance_count : ")
		b = appendInt(b, v.InstanceCount)
		b = append(b, ";\n}\n"...)
	case *FieldList:
		b = cat(b, "field_list ", v.Name, " {\n")
		for _, f := range v.Fields {
			b = append(b, "    "...)
			b = appendFieldRef(b, f)
			b = append(b, ";\n"...)
		}
		b = append(b, "}\n"...)
	case *FieldListCalc:
		b = cat(b, "field_list_calculation ", v.Name, " {\n    input {\n        ", v.Input, ";\n    }\n    algorithm : ", v.Algorithm, ";\n    output_width : ")
		b = appendInt(b, v.OutputWidth)
		b = append(b, ";\n}\n"...)
	case *CalculatedField:
		b = append(b, "calculated_field "...)
		b = appendFieldRef(b, v.Field)
		b = append(b, " {\n"...)
		if v.Verify != "" {
			b = cat(b, "    verify ", v.Verify, ";\n")
		}
		if v.Update != "" {
			b = cat(b, "    update ", v.Update, ";\n")
		}
		b = append(b, "}\n"...)
	case *ParserState:
		b = appendParserState(b, v)
	case *ActionDecl:
		b = cat(b, "action ", v.Name, "(")
		for i, p := range v.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, p...)
		}
		b = append(b, ") {\n"...)
		for _, c := range v.Body {
			b = cat(b, "    ", c.Name, "(")
			b = appendExprs(b, c.Args)
			b = append(b, ");\n"...)
		}
		b = append(b, "}\n"...)
	case *TableDecl:
		b = appendTable(b, v)
	case *ControlDecl:
		b = cat(b, "control ", v.Name, " ")
		b = appendBlock(b, v.Body, 0)
		b = append(b, '\n')
	}
	return b
}

func appendParserState(b []byte, v *ParserState) []byte {
	b = cat(b, "parser ", v.Name, " {\n")
	for _, s := range v.Statements {
		switch st := s.(type) {
		case *ExtractStmt:
			b = cat(b, "    extract(", st.Instance, ");\n")
		case *SetMetadataStmt:
			b = append(b, "    set_metadata("...)
			b = appendFieldRef(b, st.Dst)
			b = append(b, ", "...)
			b = appendExpr(b, st.Value)
			b = append(b, ");\n"...)
		}
	}
	switch r := v.Return.(type) {
	case *ReturnState:
		b = cat(b, "    return ", r.State, ";\n")
	case *ReturnSelect:
		b = append(b, "    return select("...)
		b = appendExprs(b, r.On)
		b = append(b, ") {\n"...)
		for _, c := range r.Cases {
			b = append(b, "        "...)
			if c.IsDefault {
				b = append(b, "default"...)
			} else {
				b = append(b, "0x"...)
				b = strconv.AppendUint(b, c.Value, 16)
				if c.HasMask {
					b = append(b, " &&& 0x"...)
					b = strconv.AppendUint(b, c.Mask, 16)
				}
			}
			b = cat(b, " : ", c.State, ";\n")
		}
		b = append(b, "    }\n"...)
	}
	return append(b, "}\n"...)
}

func appendTable(b []byte, v *TableDecl) []byte {
	b = cat(b, "table ", v.Name, " {\n")
	if len(v.Reads) > 0 {
		b = append(b, "    reads {\n"...)
		for _, r := range v.Reads {
			b = append(b, "        "...)
			b = appendFieldRef(b, r.Field)
			b = cat(b, " : ", r.Kind, ";\n")
		}
		b = append(b, "    }\n"...)
	}
	b = append(b, "    actions {\n"...)
	for _, a := range v.ActionNames {
		b = cat(b, "        ", a, ";\n")
	}
	b = append(b, "    }\n"...)
	switch {
	case v.SizeSym != "":
		b = cat(b, "    size : ", v.SizeSym, ";\n")
	case v.Size > 0:
		b = append(b, "    size : "...)
		b = appendInt(b, v.Size)
		b = append(b, ";\n"...)
	}
	if v.DefaultAction != "" {
		b = cat(b, "    default_action : ", v.DefaultAction)
		if len(v.DefaultArgs) > 0 {
			b = append(b, '(')
			b = appendExprs(b, v.DefaultArgs)
			b = append(b, ')')
		}
		b = append(b, ";\n"...)
	}
	if v.SupportTimeout {
		b = append(b, "    support_timeout : true;\n"...)
	}
	return append(b, "}\n"...)
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, "    "...)
	}
	return b
}

func appendBlock(b []byte, blk *BlockStmt, depth int) []byte {
	b = append(b, "{\n"...)
	for _, s := range blk.Stmts {
		b = appendStmt(b, s, depth+1)
	}
	b = appendIndent(b, depth)
	return append(b, '}')
}

func appendStmt(b []byte, s Stmt, depth int) []byte {
	b = appendIndent(b, depth)
	switch v := s.(type) {
	case *ApplyStmt:
		b = cat(b, "apply(", v.Table)
		if v.Hit == nil && v.Miss == nil {
			return append(b, ");\n"...)
		}
		b = append(b, ") {\n"...)
		if v.Hit != nil {
			b = appendIndent(b, depth+1)
			b = append(b, "hit "...)
			b = appendBlock(b, v.Hit, depth+1)
			b = append(b, '\n')
		}
		if v.Miss != nil {
			b = appendIndent(b, depth+1)
			b = append(b, "miss "...)
			b = appendBlock(b, v.Miss, depth+1)
			b = append(b, '\n')
		}
		b = appendIndent(b, depth)
		b = append(b, "}\n"...)
	case *IfStmt:
		b = append(b, "if ("...)
		b = appendBoolExpr(b, v.Cond)
		b = append(b, ") "...)
		b = appendBlock(b, v.Then, depth)
		if v.Else != nil {
			b = append(b, " else "...)
			b = appendBlock(b, v.Else, depth)
		}
		b = append(b, '\n')
	case *BlockStmt:
		b = appendBlock(b, v, depth)
		b = append(b, '\n')
	}
	return b
}

// cat appends the strings to b.
func cat(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

func appendFieldRef(b []byte, f FieldRef) []byte {
	b = append(b, f.Instance...)
	if f.Field != "" {
		b = append(b, '.')
		b = append(b, f.Field...)
	}
	return b
}

func appendExpr(b []byte, e Expr) []byte {
	switch v := e.(type) {
	case FieldRef:
		return appendFieldRef(b, v)
	case IntLit:
		return strconv.AppendUint(b, v.Value, 10)
	case ParamRef:
		return append(b, v.Name...)
	case SymRef:
		return append(b, v.Name...)
	}
	return append(b, "<?>"...)
}

// appendExprs appends the expressions comma-separated.
func appendExprs(b []byte, es []Expr) []byte {
	for i, e := range es {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, e)
	}
	return b
}

func appendBoolExpr(b []byte, e BoolExpr) []byte {
	switch v := e.(type) {
	case *ValidExpr:
		return cat(b, "valid(", v.Instance, ")")
	case *CompareExpr:
		b = appendExpr(b, v.Left)
		b = cat(b, " ", v.Op, " ")
		return appendExpr(b, v.Right)
	case *BinaryBoolExpr:
		b = append(b, '(')
		b = appendBoolExpr(b, v.Left)
		b = cat(b, ") ", v.Op, " (")
		b = appendBoolExpr(b, v.Right)
		return append(b, ')')
	case *NotExpr:
		b = append(b, "not ("...)
		b = appendBoolExpr(b, v.X)
		return append(b, ')')
	}
	return append(b, "<?>"...)
}

// BoolExprString renders a boolean expression as source text.
func BoolExprString(e BoolExpr) string { return string(appendBoolExpr(nil, e)) }
