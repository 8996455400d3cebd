package p4

import "fmt"

// Program is the root of a parsed P4_14 program. Declaration slices are
// grouped by kind for convenient lookup; Decls preserves source order for
// printing.
type Program struct {
	Tunables     []*Tunable
	HeaderTypes  []*HeaderType
	Instances    []*Instance
	Registers    []*Register
	Counters     []*Counter
	FieldLists   []*FieldList
	Calculations []*FieldListCalc
	CalcFields   []*CalculatedField
	ParserStates []*ParserState
	Actions      []*ActionDecl
	Tables       []*TableDecl
	Controls     []*ControlDecl

	Decls []Decl
}

// Decl is any top-level declaration.
type Decl interface {
	declName() string
}

// Tunable declares a named integer knob with an allowed range:
//
//	@tunable(name, min, max, default);
//
// The name can then stand in for an integer constant in register
// instance_count attributes, table size attributes, and expression
// positions (hash moduli, comparison thresholds). A parsed program
// carries its tunables symbolically; Instantiate resolves them against a
// Bindings map to produce a concrete program. An un-instantiated AST
// still behaves: every use site also records the default value.
type Tunable struct {
	Name    string
	Min     int
	Max     int
	Default int
}

// HeaderType declares a header layout: an ordered list of bit fields.
type HeaderType struct {
	Name   string
	Fields []*FieldDecl
}

// FieldDecl is one field of a header type, Width in bits (1..64).
type FieldDecl struct {
	Name  string
	Width int
}

// Bits returns the total width of the header type in bits.
func (h *HeaderType) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += f.Width
	}
	return n
}

// Field returns the named field declaration, or nil.
func (h *HeaderType) Field(name string) *FieldDecl {
	for _, f := range h.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Instance is a header or metadata instance of a declared header type.
type Instance struct {
	TypeName string
	Name     string
	Metadata bool
}

// Register declares a stateful register array. When the instance_count
// attribute was written as a tunable name, CountSym records it and
// InstanceCount holds the tunable's default until Instantiate binds it.
type Register struct {
	Name          string
	Width         int    // bits per cell
	InstanceCount int    // number of cells
	CountSym      string // tunable name backing InstanceCount ("" when literal)
}

// Counter declares a packet or byte counter array.
type Counter struct {
	Name          string
	Kind          string // "packets" or "bytes"
	InstanceCount int
}

// FieldList names an ordered list of fields (hash inputs).
type FieldList struct {
	Name   string
	Fields []FieldRef
}

// FieldListCalc binds a field list to a hash algorithm.
type FieldListCalc struct {
	Name        string
	Input       string // field list name
	Algorithm   string // "crc16", "crc32", "identity", "csum16"
	OutputWidth int
}

// CalculatedField declares that a header field is maintained by a
// calculation: the deparser recomputes it on emission (update), and the
// parser may check it (verify; parsed and recorded, not enforced).
type CalculatedField struct {
	Field  FieldRef
	Update string // field_list_calculation name ("" when absent)
	Verify string // field_list_calculation name ("" when absent)
}

// ParserState is one state of the packet parser.
type ParserState struct {
	Name       string
	Statements []ParserStmt
	Return     ParserReturn
}

// ParserStmt is a statement inside a parser state.
type ParserStmt interface{ parserStmt() }

// ExtractStmt extracts a header instance from the packet.
type ExtractStmt struct {
	Instance string
}

// SetMetadataStmt assigns a value to a metadata field during parsing.
type SetMetadataStmt struct {
	Dst   FieldRef
	Value Expr
}

func (*ExtractStmt) parserStmt()     {}
func (*SetMetadataStmt) parserStmt() {}

// ParserReturn terminates a parser state.
type ParserReturn interface{ parserReturn() }

// ReturnState transfers to another parser state, or to "ingress".
type ReturnState struct {
	State string
}

// ReturnSelect branches on one or more field values.
type ReturnSelect struct {
	On    []Expr // FieldRef or CurrentRef operands
	Cases []*SelectCase
}

// SelectCase is one arm of a select. Default arms have IsDefault set.
type SelectCase struct {
	IsDefault bool
	Value     uint64
	HasMask   bool
	Mask      uint64
	State     string
}

func (*ReturnState) parserReturn()  {}
func (*ReturnSelect) parserReturn() {}

// ActionDecl declares a compound action composed of primitive calls.
type ActionDecl struct {
	Name   string
	Params []string
	Body   []*PrimitiveCall
}

// PrimitiveCall invokes a primitive action such as modify_field.
type PrimitiveCall struct {
	Name string
	Args []Expr
}

// Match kinds supported in table reads.
const (
	MatchExact   = "exact"
	MatchLPM     = "lpm"
	MatchTernary = "ternary"
	MatchValid   = "valid"
	MatchRange   = "range"
)

// ReadEntry is one entry of a table's reads block.
type ReadEntry struct {
	Field FieldRef // for MatchValid, Field.Field is empty and Instance names the header
	Kind  string
}

// TableDecl declares a match-action table. When the size attribute was
// written as a tunable name, SizeSym records it and Size holds the
// tunable's default until Instantiate binds it.
type TableDecl struct {
	Name           string
	Reads          []*ReadEntry
	ActionNames    []string
	Size           int
	SizeSym        string // tunable name backing Size ("" when literal)
	DefaultAction  string
	DefaultArgs    []Expr
	SupportTimeout bool
}

// ControlDecl is a control function (ingress/egress) with a statement block.
type ControlDecl struct {
	Name string
	Body *BlockStmt
}

// Stmt is a control-flow statement.
type Stmt interface{ stmt() }

// BlockStmt is a brace-delimited statement sequence.
type BlockStmt struct {
	Stmts []Stmt
}

// ApplyStmt applies a table, optionally with hit/miss blocks.
type ApplyStmt struct {
	Table string
	Hit   *BlockStmt // nil when absent
	Miss  *BlockStmt // nil when absent
}

// IfStmt is a conditional.
type IfStmt struct {
	Cond BoolExpr
	Then *BlockStmt
	Else *BlockStmt // nil when absent
}

func (*BlockStmt) stmt() {}
func (*ApplyStmt) stmt() {}
func (*IfStmt) stmt()    {}

// BoolExpr is a boolean expression in if conditions.
type BoolExpr interface{ boolExpr() }

// ValidExpr tests whether a header instance was parsed.
type ValidExpr struct {
	Instance string
}

// CompareExpr compares two arithmetic expressions.
type CompareExpr struct {
	Left  Expr
	Op    string // ==, !=, <, <=, >, >=
	Right Expr
}

// BinaryBoolExpr combines two boolean expressions with and/or.
type BinaryBoolExpr struct {
	Op    string // "and" or "or"
	Left  BoolExpr
	Right BoolExpr
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	X BoolExpr
}

func (*ValidExpr) boolExpr()      {}
func (*CompareExpr) boolExpr()    {}
func (*BinaryBoolExpr) boolExpr() {}
func (*NotExpr) boolExpr()        {}

// Expr is an arithmetic expression: a field reference, an integer literal,
// or an action parameter reference.
type Expr interface{ expr() }

// FieldRef references instance.field. A bare identifier (action parameter
// or header-only reference) has Field == "".
type FieldRef struct {
	Instance string
	Field    string
}

func (f FieldRef) String() string {
	if f.Field == "" {
		return f.Instance
	}
	return f.Instance + "." + f.Field
}

// IntLit is an integer literal.
type IntLit struct {
	Value uint64
}

// ParamRef references an action parameter by name.
type ParamRef struct {
	Name string
}

// SymRef references a tunable symbol in an expression position. Value
// carries the tunable's declared default so an un-instantiated AST still
// evaluates at its defaults; Instantiate replaces SymRefs with concrete
// IntLits.
type SymRef struct {
	Name  string
	Value uint64
}

func (FieldRef) expr() {}
func (IntLit) expr()   {}
func (ParamRef) expr() {}
func (SymRef) expr()   {}

func (t *Tunable) declName() string         { return t.Name }
func (h *HeaderType) declName() string      { return h.Name }
func (i *Instance) declName() string        { return i.Name }
func (r *Register) declName() string        { return r.Name }
func (c *Counter) declName() string         { return c.Name }
func (f *FieldList) declName() string       { return f.Name }
func (c *FieldListCalc) declName() string   { return c.Name }
func (c *CalculatedField) declName() string { return c.Field.String() }
func (p *ParserState) declName() string     { return p.Name }
func (a *ActionDecl) declName() string      { return a.Name }
func (t *TableDecl) declName() string       { return t.Name }
func (c *ControlDecl) declName() string     { return c.Name }

// Lookup helpers. All return nil when the name is absent.

// Tunable returns the tunable declaration with the given name.
func (p *Program) Tunable(name string) *Tunable {
	for _, t := range p.Tunables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// HeaderType returns the header type declaration with the given name.
func (p *Program) HeaderType(name string) *HeaderType {
	for _, h := range p.HeaderTypes {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// Instance returns the header/metadata instance with the given name.
func (p *Program) Instance(name string) *Instance {
	for _, i := range p.Instances {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// Register returns the register with the given name.
func (p *Program) Register(name string) *Register {
	for _, r := range p.Registers {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Counter returns the counter with the given name.
func (p *Program) Counter(name string) *Counter {
	for _, c := range p.Counters {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FieldList returns the field list with the given name.
func (p *Program) FieldList(name string) *FieldList {
	for _, f := range p.FieldLists {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Calculation returns the field list calculation with the given name.
func (p *Program) Calculation(name string) *FieldListCalc {
	for _, c := range p.Calculations {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ParserState returns the parser state with the given name.
func (p *Program) ParserState(name string) *ParserState {
	for _, s := range p.ParserStates {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Action returns the action declaration with the given name.
func (p *Program) Action(name string) *ActionDecl {
	for _, a := range p.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Table returns the table declaration with the given name.
func (p *Program) Table(name string) *TableDecl {
	for _, t := range p.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Control returns the control declaration with the given name.
func (p *Program) Control(name string) *ControlDecl {
	for _, c := range p.Controls {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// addDecl appends d to the ordered declaration list and the per-kind slice.
func (p *Program) addDecl(d Decl) error {
	switch v := d.(type) {
	case *Tunable:
		if p.Tunable(v.Name) != nil {
			return fmt.Errorf("duplicate tunable %q", v.Name)
		}
		p.Tunables = append(p.Tunables, v)
	case *HeaderType:
		if p.HeaderType(v.Name) != nil {
			return fmt.Errorf("duplicate header_type %q", v.Name)
		}
		p.HeaderTypes = append(p.HeaderTypes, v)
	case *Instance:
		if p.Instance(v.Name) != nil {
			return fmt.Errorf("duplicate instance %q", v.Name)
		}
		p.Instances = append(p.Instances, v)
	case *Register:
		if p.Register(v.Name) != nil {
			return fmt.Errorf("duplicate register %q", v.Name)
		}
		p.Registers = append(p.Registers, v)
	case *Counter:
		if p.Counter(v.Name) != nil {
			return fmt.Errorf("duplicate counter %q", v.Name)
		}
		p.Counters = append(p.Counters, v)
	case *FieldList:
		if p.FieldList(v.Name) != nil {
			return fmt.Errorf("duplicate field_list %q", v.Name)
		}
		p.FieldLists = append(p.FieldLists, v)
	case *FieldListCalc:
		if p.Calculation(v.Name) != nil {
			return fmt.Errorf("duplicate field_list_calculation %q", v.Name)
		}
		p.Calculations = append(p.Calculations, v)
	case *CalculatedField:
		for _, cf := range p.CalcFields {
			if cf.Field == v.Field {
				return fmt.Errorf("duplicate calculated_field %s", v.Field)
			}
		}
		p.CalcFields = append(p.CalcFields, v)
	case *ParserState:
		if p.ParserState(v.Name) != nil {
			return fmt.Errorf("duplicate parser state %q", v.Name)
		}
		p.ParserStates = append(p.ParserStates, v)
	case *ActionDecl:
		if p.Action(v.Name) != nil {
			return fmt.Errorf("duplicate action %q", v.Name)
		}
		p.Actions = append(p.Actions, v)
	case *TableDecl:
		if p.Table(v.Name) != nil {
			return fmt.Errorf("duplicate table %q", v.Name)
		}
		p.Tables = append(p.Tables, v)
	case *ControlDecl:
		if p.Control(v.Name) != nil {
			return fmt.Errorf("duplicate control %q", v.Name)
		}
		p.Controls = append(p.Controls, v)
	default:
		return fmt.Errorf("unknown declaration type %T", d)
	}
	p.Decls = append(p.Decls, d)
	return nil
}
