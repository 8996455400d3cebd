package p4

import (
	"fmt"
	"io"
	"strings"
)

// Print renders a program back to P4_14 source. The output parses back to an
// equivalent AST (round-trip property, see tests), which is what lets the
// optimizer hand rewritten programs to the compiler, and the programmer read
// them.
func Print(p *Program) string {
	var b strings.Builder
	Fprint(&b, p)
	return b.String()
}

// Writer is what the printer writes to: *strings.Builder, *bytes.Buffer
// and *bufio.Writer all satisfy it. Write errors are the writer's to
// report (a bufio.Writer keeps the first one for Flush).
type Writer interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// Fprint streams exactly the text Print returns to w, without building it
// in memory — for callers that hash or forward the source.
func Fprint(w Writer, p *Program) {
	for i, d := range p.Decls {
		if i > 0 {
			w.WriteByte('\n')
		}
		printDecl(w, d)
	}
}

func printDecl(b Writer, d Decl) {
	switch v := d.(type) {
	case *Tunable:
		fmt.Fprintf(b, "@tunable(%s, %d, %d, %d);\n", v.Name, v.Min, v.Max, v.Default)
	case *HeaderType:
		fmt.Fprintf(b, "header_type %s {\n    fields {\n", v.Name)
		for _, f := range v.Fields {
			fmt.Fprintf(b, "        %s : %d;\n", f.Name, f.Width)
		}
		b.WriteString("    }\n}\n")
	case *Instance:
		kw := "header"
		if v.Metadata {
			kw = "metadata"
		}
		fmt.Fprintf(b, "%s %s %s;\n", kw, v.TypeName, v.Name)
	case *Register:
		count := fmt.Sprintf("%d", v.InstanceCount)
		if v.CountSym != "" {
			count = v.CountSym
		}
		fmt.Fprintf(b, "register %s {\n    width : %d;\n    instance_count : %s;\n}\n",
			v.Name, v.Width, count)
	case *Counter:
		fmt.Fprintf(b, "counter %s {\n    type : %s;\n    instance_count : %d;\n}\n",
			v.Name, v.Kind, v.InstanceCount)
	case *FieldList:
		fmt.Fprintf(b, "field_list %s {\n", v.Name)
		for _, f := range v.Fields {
			fmt.Fprintf(b, "    %s;\n", f)
		}
		b.WriteString("}\n")
	case *FieldListCalc:
		fmt.Fprintf(b, "field_list_calculation %s {\n    input {\n        %s;\n    }\n    algorithm : %s;\n    output_width : %d;\n}\n",
			v.Name, v.Input, v.Algorithm, v.OutputWidth)
	case *CalculatedField:
		fmt.Fprintf(b, "calculated_field %s {\n", v.Field)
		if v.Verify != "" {
			fmt.Fprintf(b, "    verify %s;\n", v.Verify)
		}
		if v.Update != "" {
			fmt.Fprintf(b, "    update %s;\n", v.Update)
		}
		b.WriteString("}\n")
	case *ParserState:
		fmt.Fprintf(b, "parser %s {\n", v.Name)
		for _, s := range v.Statements {
			switch st := s.(type) {
			case *ExtractStmt:
				fmt.Fprintf(b, "    extract(%s);\n", st.Instance)
			case *SetMetadataStmt:
				fmt.Fprintf(b, "    set_metadata(%s, %s);\n", st.Dst, exprString(st.Value))
			}
		}
		switch r := v.Return.(type) {
		case *ReturnState:
			fmt.Fprintf(b, "    return %s;\n", r.State)
		case *ReturnSelect:
			ons := make([]string, len(r.On))
			for i, e := range r.On {
				ons[i] = exprString(e)
			}
			fmt.Fprintf(b, "    return select(%s) {\n", strings.Join(ons, ", "))
			for _, c := range r.Cases {
				switch {
				case c.IsDefault:
					fmt.Fprintf(b, "        default : %s;\n", c.State)
				case c.HasMask:
					fmt.Fprintf(b, "        0x%x &&& 0x%x : %s;\n", c.Value, c.Mask, c.State)
				default:
					fmt.Fprintf(b, "        0x%x : %s;\n", c.Value, c.State)
				}
			}
			b.WriteString("    }\n")
		}
		b.WriteString("}\n")
	case *ActionDecl:
		fmt.Fprintf(b, "action %s(%s) {\n", v.Name, strings.Join(v.Params, ", "))
		for _, c := range v.Body {
			args := make([]string, len(c.Args))
			for i, a := range c.Args {
				args[i] = exprString(a)
			}
			fmt.Fprintf(b, "    %s(%s);\n", c.Name, strings.Join(args, ", "))
		}
		b.WriteString("}\n")
	case *TableDecl:
		fmt.Fprintf(b, "table %s {\n", v.Name)
		if len(v.Reads) > 0 {
			b.WriteString("    reads {\n")
			for _, r := range v.Reads {
				fmt.Fprintf(b, "        %s : %s;\n", r.Field, r.Kind)
			}
			b.WriteString("    }\n")
		}
		b.WriteString("    actions {\n")
		for _, a := range v.ActionNames {
			fmt.Fprintf(b, "        %s;\n", a)
		}
		b.WriteString("    }\n")
		switch {
		case v.SizeSym != "":
			fmt.Fprintf(b, "    size : %s;\n", v.SizeSym)
		case v.Size > 0:
			fmt.Fprintf(b, "    size : %d;\n", v.Size)
		}
		if v.DefaultAction != "" {
			if len(v.DefaultArgs) > 0 {
				args := make([]string, len(v.DefaultArgs))
				for i, a := range v.DefaultArgs {
					args[i] = exprString(a)
				}
				fmt.Fprintf(b, "    default_action : %s(%s);\n", v.DefaultAction, strings.Join(args, ", "))
			} else {
				fmt.Fprintf(b, "    default_action : %s;\n", v.DefaultAction)
			}
		}
		if v.SupportTimeout {
			b.WriteString("    support_timeout : true;\n")
		}
		b.WriteString("}\n")
	case *ControlDecl:
		fmt.Fprintf(b, "control %s ", v.Name)
		printBlock(b, v.Body, 0)
		b.WriteByte('\n')
	}
}

func printBlock(b Writer, blk *BlockStmt, depth int) {
	indent := strings.Repeat("    ", depth)
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		printStmt(b, s, depth+1)
	}
	b.WriteString(indent + "}")
}

func printStmt(b Writer, s Stmt, depth int) {
	indent := strings.Repeat("    ", depth)
	switch v := s.(type) {
	case *ApplyStmt:
		if v.Hit == nil && v.Miss == nil {
			fmt.Fprintf(b, "%sapply(%s);\n", indent, v.Table)
			return
		}
		fmt.Fprintf(b, "%sapply(%s) {\n", indent, v.Table)
		if v.Hit != nil {
			fmt.Fprintf(b, "%s    hit ", indent)
			printBlock(b, v.Hit, depth+1)
			b.WriteByte('\n')
		}
		if v.Miss != nil {
			fmt.Fprintf(b, "%s    miss ", indent)
			printBlock(b, v.Miss, depth+1)
			b.WriteByte('\n')
		}
		fmt.Fprintf(b, "%s}\n", indent)
	case *IfStmt:
		fmt.Fprintf(b, "%sif (%s) ", indent, BoolExprString(v.Cond))
		printBlock(b, v.Then, depth)
		if v.Else != nil {
			b.WriteString(" else ")
			printBlock(b, v.Else, depth)
		}
		b.WriteByte('\n')
	case *BlockStmt:
		b.WriteString(indent)
		printBlock(b, v, depth)
		b.WriteByte('\n')
	}
}

func exprString(e Expr) string {
	switch v := e.(type) {
	case FieldRef:
		return v.String()
	case IntLit:
		return fmt.Sprintf("%d", v.Value)
	case ParamRef:
		return v.Name
	case SymRef:
		return v.Name
	}
	return "<?>"
}

// ExprString renders an expression as source text.
func ExprString(e Expr) string { return exprString(e) }

// BoolExprString renders a boolean expression as source text.
func BoolExprString(e BoolExpr) string {
	switch v := e.(type) {
	case *ValidExpr:
		return fmt.Sprintf("valid(%s)", v.Instance)
	case *CompareExpr:
		return fmt.Sprintf("%s %s %s", exprString(v.Left), v.Op, exprString(v.Right))
	case *BinaryBoolExpr:
		return fmt.Sprintf("(%s) %s (%s)", BoolExprString(v.Left), v.Op, BoolExprString(v.Right))
	case *NotExpr:
		return fmt.Sprintf("not (%s)", BoolExprString(v.X))
	}
	return "<?>"
}
