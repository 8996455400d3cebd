package sim

import "testing"

// TestOutcomeRoundTrip: every Output the engines can produce (egress_spec
// is nine bits, p4.Check holds it to that) packs into an Outcome that
// unpacks to the same verdict inputs and packs again to itself; two outputs
// that differ in what a verdict reads pack differently.
func TestOutcomeRoundTrip(t *testing.T) {
	type fate struct {
		port, fwd      uint64
		dropped, toCPU bool
	}
	seen := map[Outcome]fate{}
	for port := uint64(0); port < 512; port++ {
		for _, fwd := range []uint64{0, 7, 511} {
			toCPU := port == CPUPort
			out := Output{Port: port, Dropped: port == DropPort, ToCPU: toCPU, ForwardPort: fwd}
			c := out.Outcome()
			got := c.Output()
			if got.Port != out.Port || got.Dropped != out.Dropped || got.ToCPU != out.ToCPU ||
				(toCPU && got.ForwardPort != fwd) {
				t.Fatalf("%+v: unpacked %+v", out, got)
			}
			if again := got.Outcome(); again != c {
				t.Fatalf("%+v: packs as %#x, its unpacking as %#x", out, c, again)
			}
			f := fate{port: port, dropped: out.Dropped, toCPU: toCPU}
			if toCPU {
				f.fwd = fwd // a verdict reads it only on a CPU send
			}
			if prev, ok := seen[c]; ok && prev != f {
				t.Fatalf("%+v and %+v both pack as %#x", prev, f, c)
			}
			seen[c] = f
		}
	}
}
