package rt_test

import (
	"p2go/internal/rt"
	"strings"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/programs"
)

func ex1IR(t *testing.T) *ir.Program {
	t.Helper()
	ast := p4.MustParse(programs.Ex1)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestParseEx1Rules(t *testing.T) {
	cfg, err := rt.Parse(programs.Ex1RulesText)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Rules) != 6 {
		t.Fatalf("rules = %d, want 6", len(cfg.Rules))
	}
	r := cfg.Rules[0]
	if r.Table != "IPv4" || r.Action != "set_nhop" {
		t.Errorf("rule 0 = %+v", r)
	}
	if r.Matches[0].Kind != p4.MatchLPM || r.Matches[0].Value != 10<<24 || r.Matches[0].PrefixLen != 8 {
		t.Errorf("rule 0 match = %+v", r.Matches[0])
	}
	if len(r.Args) != 1 || r.Args[0] != 3 {
		t.Errorf("rule 0 args = %v", r.Args)
	}
}

func TestParseMatchKinds(t *testing.T) {
	cfg, err := rt.Parse(`
table_add t a 5&&&0xFF => 1 priority 7
table_add t b 10..20
table_add t c 0x1F
table_add t d 192.168.1.1/24
`)
	if err != nil {
		t.Fatal(err)
	}
	if m := cfg.Rules[0].Matches[0]; m.Kind != p4.MatchTernary || m.Value != 5 || m.Mask != 255 {
		t.Errorf("ternary = %+v", m)
	}
	if cfg.Rules[0].Priority != 7 {
		t.Errorf("priority = %d", cfg.Rules[0].Priority)
	}
	if m := cfg.Rules[1].Matches[0]; m.Kind != p4.MatchRange || m.Value != 10 || m.RangeHi != 20 {
		t.Errorf("range = %+v", m)
	}
	if m := cfg.Rules[2].Matches[0]; m.Kind != p4.MatchExact || m.Value != 31 {
		t.Errorf("hex exact = %+v", m)
	}
	if m := cfg.Rules[3].Matches[0]; m.Kind != p4.MatchLPM || m.Value != 0xC0A80101 || m.PrefixLen != 24 {
		t.Errorf("dotted lpm = %+v", m)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate x y",
		"table_add onlytable",
		"table_add t a xyz",
		"table_add t a 1 => zz",
		"table_add t a 1 => 2 priority abc",
		// Stored as Priority -1, which Format prints and Parse rejects.
		"table_add t a 1 => 1 priority 18446744073709551615",
		"table_add t a 1.2.3.4x",
	}
	for _, src := range bad {
		if _, err := rt.Parse(src); err == nil {
			t.Errorf("rt.Parse(%q): expected error", src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	cfg, err := rt.Parse(programs.Ex1RulesText)
	if err != nil {
		t.Fatal(err)
	}
	text := rt.Format(cfg)
	cfg2, err := rt.Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if rt.Format(cfg2) != text {
		t.Errorf("format not a fixed point:\n%s\nvs\n%s", text, rt.Format(cfg2))
	}
	if len(cfg2.Rules) != len(cfg.Rules) {
		t.Errorf("round trip lost rules")
	}
}

func TestValidateEx1(t *testing.T) {
	prog := ex1IR(t)
	if err := rt.Validate(programs.Ex1Config(), prog); err != nil {
		t.Errorf("Ex1 config should validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	prog := ex1IR(t)
	cases := map[string]string{
		"unknown table":     "table_add Ghost set_nhop 1/8 => 1",
		"foreign action":    "table_add ACL_UDP set_nhop 53 => 1",
		"wrong match count": "table_add IPv4 set_nhop 1/8 2/8 => 1",
		"wrong match kind":  "table_add IPv4 set_nhop 17 => 1",
		"wrong arg count":   "table_add IPv4 set_nhop 10.0.0.0/8 => 1 2",
		"value too wide":    "table_add ACL_UDP acl_udp_drop 70000",
		"prefix too long":   "table_add IPv4 set_nhop 10.0.0.0/40 => 1",
	}
	for name, text := range cases {
		cfg, err := rt.Parse(text)
		if err != nil {
			t.Errorf("%s: parse failed: %v", name, err)
			continue
		}
		if err := rt.Validate(cfg, prog); err == nil {
			t.Errorf("%s: rt.Validate(%q) expected error", name, text)
		}
	}
}

func TestValidateTableCapacity(t *testing.T) {
	prog := ex1IR(t)
	var b strings.Builder
	for i := 0; i <= prog.Tables["ACL_UDP"].Decl.Size; i++ {
		b.WriteString("table_add ACL_UDP acl_udp_drop ")
		b.WriteString(itoa(i))
		b.WriteByte('\n')
	}
	cfg, err := rt.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(cfg, prog); err == nil {
		t.Error("overfull table should fail validation")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestFieldMatchSemantics(t *testing.T) {
	lpm := rt.FieldMatch{Kind: p4.MatchLPM, Value: 0x0A000000, PrefixLen: 8}
	if !lpm.Matches(0x0A0B0C0D, 32) {
		t.Error("10.x should match 10/8")
	}
	if lpm.Matches(0x0B000000, 32) {
		t.Error("11.x should not match 10/8")
	}
	zero := rt.FieldMatch{Kind: p4.MatchLPM, Value: 0, PrefixLen: 0}
	if !zero.Matches(12345, 32) {
		t.Error("/0 matches everything")
	}
	tern := rt.FieldMatch{Kind: p4.MatchTernary, Value: 0x50, Mask: 0xF0}
	if !tern.Matches(0x5A, 8) || tern.Matches(0x6A, 8) {
		t.Error("ternary mask semantics broken")
	}
	rng := rt.FieldMatch{Kind: p4.MatchRange, Value: 10, RangeHi: 20}
	if !rng.Matches(10, 16) || !rng.Matches(20, 16) || rng.Matches(21, 16) {
		t.Error("range semantics broken")
	}
	ex := rt.FieldMatch{Kind: p4.MatchExact, Value: 7}
	if !ex.Matches(7, 8) || ex.Matches(8, 8) {
		t.Error("exact semantics broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	cfg := programs.Ex1Config()
	cp := cfg.Clone()
	cp.Rules[0].Args[0] = 99
	cp.Rules[0].Matches[0].Value = 1
	if cfg.Rules[0].Args[0] == 99 || cfg.Rules[0].Matches[0].Value == 1 {
		t.Error("Clone is shallow")
	}
}

func TestForTableAndTables(t *testing.T) {
	cfg := programs.Ex1Config()
	if got := len(cfg.ForTable("IPv4")); got != 3 {
		t.Errorf("IPv4 rules = %d, want 3", got)
	}
	tables := cfg.Tables()
	want := "ACL_DHCP,ACL_UDP,IPv4"
	if strings.Join(tables, ",") != want {
		t.Errorf("Tables = %v, want %s", tables, want)
	}
}

func TestTableSetDefault(t *testing.T) {
	cfg, err := rt.Parse(`
table_add routes route 10.0.0.0/8 => 1
table_set_default routes route 9
`)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.DefaultFor("routes")
	if d == nil || d.Action != "route" || len(d.Args) != 1 || d.Args[0] != 9 {
		t.Fatalf("default = %+v", d)
	}
	if cfg.DefaultFor("ghost") != nil {
		t.Error("unknown table should have no default")
	}
	// Last override wins.
	cfg.Defaults = append(cfg.Defaults, rt.DefaultEntry{Table: "routes", Action: "route", Args: []uint64{5}})
	if got := cfg.DefaultFor("routes").Args[0]; got != 5 {
		t.Errorf("last override args = %d, want 5", got)
	}
	// Format round trip.
	text := rt.Format(cfg)
	if !strings.Contains(text, "table_set_default routes route 9") {
		t.Errorf("Format missing default: %s", text)
	}
	cfg2, err := rt.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg2.Defaults) != 2 {
		t.Errorf("round trip defaults = %d, want 2", len(cfg2.Defaults))
	}
	// Clone copies defaults deeply.
	cp := cfg.Clone()
	cp.Defaults[0].Args[0] = 77
	if cfg.Defaults[0].Args[0] == 77 {
		t.Error("Clone shares default args")
	}
}

func TestValidateDefaults(t *testing.T) {
	prog := ex1IR(t)
	bad := []string{
		"table_set_default Ghost set_nhop 1",
		"table_set_default IPv4 acl_udp_drop",     // foreign action
		"table_set_default IPv4 set_nhop",         // missing arg
		"table_set_default IPv4 ipv4_miss_drop 1", // extra arg
	}
	for _, text := range bad {
		cfg, err := rt.Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		if err := rt.Validate(cfg, prog); err == nil {
			t.Errorf("Validate(%q) expected error", text)
		}
	}
	good, err := rt.Parse("table_set_default IPv4 set_nhop 4")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(good, prog); err != nil {
		t.Errorf("valid default rejected: %v", err)
	}
}
