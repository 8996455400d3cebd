// Package rt represents runtime configurations: the match-action rules
// installed into a program's tables. It supports exact, lpm, ternary,
// range, and valid matches, a bmv2-CLI-like text format
// ("table_add <table> <action> <match>... => <arg>... [priority]"),
// and validation against a compiled program.
package rt

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"p2go/internal/ir"
	"p2go/internal/p4"
)

// FieldMatch is one match criterion of a rule, aligned positionally with
// the table's reads entries.
type FieldMatch struct {
	Kind      string // p4.MatchExact etc.
	Value     uint64
	Mask      uint64 // ternary: 1-bits must match
	PrefixLen int    // lpm
	RangeHi   uint64 // range: [Value, RangeHi]
}

// Matches reports whether the criterion accepts v (for valid matches, v is
// the header validity bit 0/1 and the criterion's Value selects it).
func (m FieldMatch) Matches(v uint64, fieldWidth int) bool {
	switch m.Kind {
	case p4.MatchExact, p4.MatchValid:
		return v == m.Value
	case p4.MatchLPM:
		shift := uint(fieldWidth - m.PrefixLen)
		if m.PrefixLen == 0 {
			return true
		}
		return v>>shift == m.Value>>shift
	case p4.MatchTernary:
		return v&m.Mask == m.Value&m.Mask
	case p4.MatchRange:
		return m.Value <= v && v <= m.RangeHi
	}
	return false
}

// Rule is one installed table entry.
type Rule struct {
	Table    string
	Action   string
	Matches  []FieldMatch
	Args     []uint64
	Priority int // higher wins among ternary/range overlaps
}

// DefaultEntry overrides a table's default action at runtime
// (table_set_default).
type DefaultEntry struct {
	Table  string
	Action string
	Args   []uint64
}

// Config is a runtime configuration.
type Config struct {
	Rules    []Rule
	Defaults []DefaultEntry
}

// DefaultFor returns the runtime default override for a table, or nil.
func (c *Config) DefaultFor(table string) *DefaultEntry {
	// Last override wins, like bmv2.
	for i := len(c.Defaults) - 1; i >= 0; i-- {
		if c.Defaults[i].Table == table {
			return &c.Defaults[i]
		}
	}
	return nil
}

// ForTable returns the rules of one table, preserving insertion order.
func (c *Config) ForTable(name string) []Rule {
	var out []Rule
	for _, r := range c.Rules {
		if r.Table == name {
			out = append(out, r)
		}
	}
	return out
}

// Add appends a rule.
func (c *Config) Add(r Rule) { c.Rules = append(c.Rules, r) }

// Clone deep-copies the configuration.
func (c *Config) Clone() *Config {
	out := &Config{Rules: make([]Rule, len(c.Rules))}
	for i, r := range c.Rules {
		cp := r
		cp.Matches = append([]FieldMatch(nil), r.Matches...)
		cp.Args = append([]uint64(nil), r.Args...)
		out.Rules[i] = cp
	}
	for _, d := range c.Defaults {
		cp := d
		cp.Args = append([]uint64(nil), d.Args...)
		out.Defaults = append(out.Defaults, cp)
	}
	return out
}

// Restrict returns a deep copy of the rules and default overrides of the
// tables prog declares, dropping those of every other table (e.g. tables
// offloaded to the controller, or outside an offloaded segment).
func (c *Config) Restrict(prog *p4.Program) *Config {
	out := &Config{}
	for _, r := range c.Rules {
		if prog.Table(r.Table) != nil {
			out.Add(r)
		}
	}
	for _, d := range c.Defaults {
		if prog.Table(d.Table) != nil {
			out.Defaults = append(out.Defaults, d)
		}
	}
	return out.Clone()
}

// Tables lists the tables with at least one rule, sorted.
func (c *Config) Tables() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range c.Rules {
		if !seen[r.Table] {
			seen[r.Table] = true
			out = append(out, r.Table)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks every rule against the compiled program: the table and
// action exist, the action is declared on the table, match arity equals the
// table's reads, argument arity equals the action's parameters, and values
// fit their field widths.
func Validate(cfg *Config, prog *ir.Program) error {
	counts := map[string]int{}
	for i := range cfg.Rules {
		r := &cfg.Rules[i]
		t := prog.Tables[r.Table]
		if t == nil {
			return fmt.Errorf("rt: rule %d: unknown table %q", i, r.Table)
		}
		counts[r.Table]++
		if t.Decl.Size > 0 && counts[r.Table] > t.Decl.Size {
			return fmt.Errorf("rt: table %s: %d rules exceed size %d", r.Table, counts[r.Table], t.Decl.Size)
		}
		var act *ir.Action
		for _, a := range t.Actions {
			if a.Name == r.Action {
				act = a
				break
			}
		}
		if act == nil {
			return fmt.Errorf("rt: rule %d: action %q not declared on table %s", i, r.Action, r.Table)
		}
		if len(r.Matches) != len(t.Decl.Reads) {
			return fmt.Errorf("rt: rule %d: table %s expects %d match fields, got %d",
				i, r.Table, len(t.Decl.Reads), len(r.Matches))
		}
		for j, m := range r.Matches {
			want := t.Decl.Reads[j].Kind
			// The text format has no dedicated validity syntax: a plain
			// 0/1 against a valid read is coerced.
			if want == p4.MatchValid && m.Kind == p4.MatchExact && m.Value <= 1 {
				r.Matches[j].Kind = p4.MatchValid
				m.Kind = p4.MatchValid
			}
			if m.Kind != want {
				return fmt.Errorf("rt: rule %d: match %d kind %s, table read is %s", i, j, m.Kind, want)
			}
			width := readWidth(prog.AST, t.Decl.Reads[j])
			if width < 64 && m.Value >= 1<<uint(width) {
				return fmt.Errorf("rt: rule %d: match %d value %d exceeds %d-bit field", i, j, m.Value, width)
			}
			if m.Kind == p4.MatchLPM && (m.PrefixLen < 0 || m.PrefixLen > width) {
				return fmt.Errorf("rt: rule %d: prefix length %d out of range for %d-bit field", i, m.PrefixLen, width)
			}
		}
		if len(r.Args) != len(act.Decl.Params) {
			return fmt.Errorf("rt: rule %d: action %s expects %d args, got %d",
				i, r.Action, len(act.Decl.Params), len(r.Args))
		}
	}
	for i, d := range cfg.Defaults {
		t := prog.Tables[d.Table]
		if t == nil {
			return fmt.Errorf("rt: default %d: unknown table %q", i, d.Table)
		}
		act := t.ActionByName(d.Action)
		if act == nil {
			return fmt.Errorf("rt: default %d: action %q not declared on table %s", i, d.Action, d.Table)
		}
		if len(d.Args) != len(act.Decl.Params) {
			return fmt.Errorf("rt: default %d: action %s expects %d args, got %d",
				i, d.Action, len(act.Decl.Params), len(d.Args))
		}
	}
	return nil
}

func readWidth(ast *p4.Program, read *p4.ReadEntry) int {
	if read.Kind == p4.MatchValid {
		return 1
	}
	inst := ast.Instance(read.Field.Instance)
	if inst == nil {
		return 64
	}
	ht := ast.HeaderType(inst.TypeName)
	if ht == nil {
		return 64
	}
	f := ht.Field(read.Field.Field)
	if f == nil {
		return 64
	}
	return f.Width
}

// Parse reads a configuration in the text format, one directive per line:
//
//	table_add <table> <action> <match> ... => <arg> ... [priority <n>]
//
// Match syntax per kind: exact "value"; lpm "value/len"; ternary
// "value&&&mask"; range "lo..hi"; valid "1" or "0". Values may be decimal,
// 0x-hex, or dotted IPv4. Lines starting with '#' and blank lines are
// ignored.
func Parse(text string) (*Config, error) {
	cfg := &Config{}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "table_set_default" {
			if len(fields) < 3 {
				return nil, fmt.Errorf("rt: line %d: table_set_default needs a table and an action", lineNo+1)
			}
			d := DefaultEntry{Table: fields[1], Action: fields[2]}
			for _, arg := range fields[3:] {
				v, err := parseValue(arg)
				if err != nil {
					return nil, fmt.Errorf("rt: line %d: bad default arg %q: %v", lineNo+1, arg, err)
				}
				d.Args = append(d.Args, v)
			}
			cfg.Defaults = append(cfg.Defaults, d)
			continue
		}
		if fields[0] != "table_add" {
			return nil, fmt.Errorf("rt: line %d: unknown directive %q", lineNo+1, fields[0])
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("rt: line %d: table_add needs a table and an action", lineNo+1)
		}
		r := Rule{Table: fields[1], Action: fields[2]}
		rest := fields[3:]
		// Split on "=>".
		arrow := -1
		for i, f := range rest {
			if f == "=>" {
				arrow = i
				break
			}
		}
		matchParts := rest
		var argParts []string
		if arrow >= 0 {
			matchParts = rest[:arrow]
			argParts = rest[arrow+1:]
		}
		// Trailing "priority <n>".
		if len(argParts) >= 2 && argParts[len(argParts)-2] == "priority" {
			p, err := parseValue(argParts[len(argParts)-1])
			if err == nil && p > math.MaxInt {
				err = fmt.Errorf("%d overflows int", p)
			}
			if err != nil {
				return nil, fmt.Errorf("rt: line %d: bad priority: %v", lineNo+1, err)
			}
			r.Priority = int(p)
			argParts = argParts[:len(argParts)-2]
		}
		for _, mp := range matchParts {
			m, err := parseMatch(mp)
			if err != nil {
				return nil, fmt.Errorf("rt: line %d: %v", lineNo+1, err)
			}
			r.Matches = append(r.Matches, m)
		}
		for _, ap := range argParts {
			v, err := parseValue(ap)
			if err != nil {
				return nil, fmt.Errorf("rt: line %d: bad action arg %q: %v", lineNo+1, ap, err)
			}
			r.Args = append(r.Args, v)
		}
		cfg.Add(r)
	}
	return cfg, nil
}

func parseMatch(s string) (FieldMatch, error) {
	switch {
	case strings.Contains(s, "&&&"):
		parts := strings.SplitN(s, "&&&", 2)
		v, err := parseValue(parts[0])
		if err != nil {
			return FieldMatch{}, err
		}
		m, err := parseValue(parts[1])
		if err != nil {
			return FieldMatch{}, err
		}
		return FieldMatch{Kind: p4.MatchTernary, Value: v, Mask: m}, nil
	case strings.Contains(s, ".."):
		parts := strings.SplitN(s, "..", 2)
		lo, err := parseValue(parts[0])
		if err != nil {
			return FieldMatch{}, err
		}
		hi, err := parseValue(parts[1])
		if err != nil {
			return FieldMatch{}, err
		}
		return FieldMatch{Kind: p4.MatchRange, Value: lo, RangeHi: hi}, nil
	case strings.Contains(s, "/"):
		parts := strings.SplitN(s, "/", 2)
		v, err := parseValue(parts[0])
		if err != nil {
			return FieldMatch{}, err
		}
		plen, err := strconv.Atoi(parts[1])
		if err != nil {
			return FieldMatch{}, fmt.Errorf("bad prefix length %q", parts[1])
		}
		return FieldMatch{Kind: p4.MatchLPM, Value: v, PrefixLen: plen}, nil
	default:
		v, err := parseValue(s)
		if err != nil {
			return FieldMatch{}, err
		}
		return FieldMatch{Kind: p4.MatchExact, Value: v}, nil
	}
}

// parseValue accepts decimal, 0x-hex, and dotted IPv4.
func parseValue(s string) (uint64, error) {
	if strings.Count(s, ".") == 3 {
		var v uint64
		for _, octet := range strings.Split(s, ".") {
			b, err := strconv.ParseUint(octet, 10, 8)
			if err != nil {
				return 0, fmt.Errorf("bad IPv4 address %q", s)
			}
			v = v<<8 | b
		}
		return v, nil
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

// Format renders the configuration back to the text format.
func Format(cfg *Config) string {
	var b strings.Builder
	for _, r := range cfg.Rules {
		fmt.Fprintf(&b, "table_add %s %s", r.Table, r.Action)
		for _, m := range r.Matches {
			switch m.Kind {
			case p4.MatchLPM:
				fmt.Fprintf(&b, " %d/%d", m.Value, m.PrefixLen)
			case p4.MatchTernary:
				fmt.Fprintf(&b, " %d&&&%d", m.Value, m.Mask)
			case p4.MatchRange:
				fmt.Fprintf(&b, " %d..%d", m.Value, m.RangeHi)
			default:
				fmt.Fprintf(&b, " %d", m.Value)
			}
		}
		if len(r.Args) > 0 || r.Priority != 0 {
			b.WriteString(" =>")
			for _, a := range r.Args {
				fmt.Fprintf(&b, " %d", a)
			}
			if r.Priority != 0 {
				fmt.Fprintf(&b, " priority %d", r.Priority)
			}
		}
		b.WriteByte('\n')
	}
	for _, d := range cfg.Defaults {
		fmt.Fprintf(&b, "table_set_default %s %s", d.Table, d.Action)
		for _, a := range d.Args {
			fmt.Fprintf(&b, " %d", a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
