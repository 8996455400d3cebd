package sim

import "testing"

// TestOutcomeRoundTrip: every Output the engines can produce at a nine-bit
// port packs into an Outcome that unpacks to the same fate and the same
// verdict inputs; a wider port does not pack.
func TestOutcomeRoundTrip(t *testing.T) {
	for port := uint64(0); port < 512; port++ {
		for _, fwd := range []uint64{0, 7, 511} {
			toCPU := port == CPUPort
			out := Output{Port: port, Dropped: port == DropPort, ToCPU: toCPU, ForwardPort: fwd}
			c, ok := out.Outcome()
			if !ok {
				t.Fatalf("%+v does not pack", out)
			}
			if got, want := c.Fate(), out.Fate(); got != want {
				t.Fatalf("%+v: fate %+v, want %+v", out, got, want)
			}
			got := c.Output()
			if got.Port != out.Port || got.Dropped != out.Dropped || got.ToCPU != out.ToCPU ||
				(toCPU && got.ForwardPort != fwd) {
				t.Fatalf("%+v: unpacked %+v", out, got)
			}
		}
	}
	for _, out := range []Output{
		{Port: 512},
		{Port: 1 << 40},
		{Port: CPUPort, ToCPU: true, ForwardPort: 600},
	} {
		if c, ok := out.Outcome(); ok {
			t.Errorf("%+v packed as %#x, want no outcome", out, c)
		}
	}
}
