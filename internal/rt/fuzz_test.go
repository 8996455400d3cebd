package rt_test

import (
	"testing"

	"p2go/internal/rt"
)

// FuzzParseRules holds Format to Parse on any input: whatever parses
// formats to text that parses back and formats to the same bytes (the
// formatted text is hashed into every profile and plan key, so a round trip
// that drifts re-keys a configuration). Nothing may panic. The committed
// corpus (testdata/fuzz/FuzzParseRules: every bundled workload's rules, the
// quickstart rules with a table_set_default, and two inputs Parse once
// accepted by mistake) runs as plain subtests of every go test.
func FuzzParseRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := rt.Parse(text)
		if err != nil {
			return
		}
		once := rt.Format(cfg)
		again, err := rt.Parse(once)
		if err != nil {
			t.Fatalf("formatted rules do not parse: %v\n%s", err, once)
		}
		if twice := rt.Format(again); twice != once {
			t.Fatalf("format is not a fixed point:\n--- first ---\n%s--- second ---\n%s", once, twice)
		}
	})
}
