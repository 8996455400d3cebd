package p4

import "testing"

// FuzzPrintRoundTrip holds the printer to the parser on any input: whatever
// parses prints to text that parses back and prints to the same bytes (the
// printed text is what every analysis and fleet device key hashes, so a
// round trip that drifts re-keys a program), Check's verdict survives the
// round trip, and a checked program — builtins added — round-trips too.
// Nothing may panic. The committed corpus (testdata/fuzz/FuzzPrintRoundTrip:
// the bundled workload sources and generated programs 1-32) runs as plain
// subtests of every go test.
func FuzzPrintRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		text := AppendProgram(nil, prog)
		again, err := Parse(string(text))
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, text)
		}
		if text2 := AppendProgram(nil, again); string(text2) != string(text) {
			t.Fatalf("print is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
		}
		checkErr, againErr := Check(prog), Check(again)
		if (checkErr == nil) != (againErr == nil) {
			t.Fatalf("Check says %v on the input but %v on its round trip\n%s", checkErr, againErr, text)
		}
		if checkErr != nil {
			return
		}
		checked := AppendProgram(nil, prog)
		reparsed, err := Parse(string(checked))
		if err != nil {
			t.Fatalf("checked program does not parse: %v\n%s", err, checked)
		}
		if err := Check(reparsed); err != nil {
			t.Fatalf("checked program fails Check after a round trip: %v\n%s", err, checked)
		}
		if text3 := AppendProgram(nil, reparsed); string(text3) != string(checked) {
			t.Fatalf("checked program's print is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", checked, text3)
		}
	})
}
