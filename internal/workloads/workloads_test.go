package workloads

import (
	"bytes"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
)

// TestAllWorkloadsWellFormed: every registered workload parses, checks,
// builds IR, validates its rules, and generates a trace.
func TestAllWorkloadsWellFormed(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if w.Description == "" || w.Paper == "" {
				t.Error("missing description or paper note")
			}
			ast, err := p4.Parse(w.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := p4.Check(ast); err != nil {
				t.Fatalf("check: %v", err)
			}
			prog, err := ir.Build(ast)
			if err != nil {
				t.Fatalf("ir: %v", err)
			}
			cfg := w.Config()
			if err := rt.Validate(cfg, prog); err != nil {
				t.Fatalf("rules: %v", err)
			}
			trace, err := w.Trace(1)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			if len(trace.Packets) == 0 {
				t.Fatal("empty trace")
			}
			if len(trace.Packets) != w.Packets {
				t.Errorf("trace has %d packets, registry says %d", len(trace.Packets), w.Packets)
			}
		})
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("no-such-workload"); err == nil {
		t.Error("expected error")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("workloads = %d, want >= 6", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

// The prefix property, for every registered workload: TracePrefix(seed, n)
// is packet-for-packet (port and bytes) and digest-for-digest the first
// min(n, total) packets of Trace(seed), at every boundary a generator's
// phases could get wrong.
func TestTracePrefixIsPrefixOfTrace(t *testing.T) {
	seeds := 40
	if testing.Short() || raceEnabled {
		seeds = 4
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				full, err := w.Trace(seed)
				if err != nil {
					t.Fatal(err)
				}
				total := len(full.Packets)
				for _, n := range []int{1, 400, total / 2, total - 1, total, total + 1} {
					got, err := w.TracePrefix(seed, n)
					if err != nil {
						t.Fatalf("seed %d n %d: %v", seed, n, err)
					}
					want := &trafficgen.Trace{Packets: full.Packets[:min(n, total)]}
					if len(got.Packets) != len(want.Packets) {
						t.Fatalf("seed %d n %d: %d packets, want %d", seed, n, len(got.Packets), len(want.Packets))
					}
					for i, p := range want.Packets {
						if q := got.Packets[i]; q.Port != p.Port || !bytes.Equal(q.Data, p.Data) {
							t.Fatalf("seed %d n %d: packet %d differs from Trace(seed)'s", seed, n, i)
						}
					}
					if got.Digest() != want.Digest() {
						t.Fatalf("seed %d n %d: digest differs", seed, n)
					}
				}
			}
		})
	}
}

// A workload whose generator has no bounded form (one built outside the
// registry) still answers TracePrefix with exactly n packets, the head of
// its Trace.
func TestTracePrefixWithoutBoundedGenerator(t *testing.T) {
	calls := 0
	w := Workload{Name: "unbounded", Trace: func(seed int64) (*trafficgen.Trace, error) {
		calls++
		return trafficgen.QuickstartTrace(50, seed), nil
	}}
	full, _ := w.Trace(3)
	for _, n := range []int{1, 7, 50, 51, 0} {
		got, err := w.TracePrefix(3, n)
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if n <= 0 || n > 50 {
			want = 50
		}
		if len(got.Packets) != want {
			t.Fatalf("n %d: %d packets, want %d", n, len(got.Packets), want)
		}
		if want := (&trafficgen.Trace{Packets: full.Packets[:want]}); got.Digest() != want.Digest() {
			t.Fatalf("n %d: not the head of Trace(seed)", n)
		}
	}
	if calls != 6 {
		t.Errorf("generator ran %d times, want once per call", calls)
	}
}

// Trace digests are cache keys that outlive a build: fleet device rows and
// profile analyses spilled to disk by an earlier commit are looked up by
// them. These were recorded before the serializer and the generators were
// rewritten for PR 15; a generator change that moves one orphans every
// spilled row.
func TestTraceDigestsStable(t *testing.T) {
	for _, g := range []struct {
		name    string
		seed    int64
		packets int
		digest  string
	}{
		{"ex1", 1, 20000, "d18ea40f29f37e4449d9988180f88c8388b16f3b319f1f97659da53b04032951"},
		{"ex1", 7, 20000, "1b18b5488f46e6923adfb2134cff8415ae860b49d5880aa0d9fd6904e1f25af7"},
		{"failure", 1, 20000, "b89745e5c00a90e9b0544fa86953e7a5af41cefa042af68d82529175caa53f2c"},
		{"failure", 7, 20000, "14335b6ba70cf6ddd684b44fceec483500a069236609218fbe12c5a2f3f08a67"},
		{"l2l3_acl", 1, 4000, "2eca39eeabd54ad3541d95214569b6984a93eb32e8f18b160ccf011f1ddf938d"},
		{"l2l3_acl", 7, 4000, "b0a46a9c77bed0197b33e5e444272a07337d039e7dadce48ff0a59798e1fc52d"},
		{"maglev", 1, 5000, "de7733e426941b27b81ac5c4354d3e849478d044658ae4279f2b6015bdf1ad71"},
		{"maglev", 7, 5000, "4035993b56c949e1e17e4bfbba4f2f1b4b3adc7f71551f257cd092072735b26a"},
		{"natgre", 1, 10000, "fb9422c718e852c29989919279fefc0d1796de633eb42ab54c07fa2db7d2cc66"},
		{"natgre", 7, 10000, "81ccab7de496d8fc8221e2517e1b2cc194da976f9266966d123b40459e2087f9"},
		{"quickstart", 1, 1000, "8ae30d8999661de0520e5d1590b48487fb912c6e0f874054babc9ad18d89c50a"},
		{"quickstart", 7, 1000, "93324cb440adf142b21cb49b42ff203dfbef8658f76c8ce59008122ef9a822c0"},
		{"sourceguard", 1, 10000, "c1cb4f60a0deb0dd9ea306531fab05f841eb113036935f466954e4e039bbe103"},
		{"sourceguard", 7, 10000, "bd13db16acee84fc366a01a4aa2e0535869e66e8d2f5de8c2560338b10262523"},
		{"stress", 1, 5000, "adf79f8692af397694c84aa6d8a74ce7d4c4dc8521be837e1acfe83dd902406e"},
		{"stress", 7, 5000, "181f80ce6b740b80081e0fdfa791683278facb526c81c1e0572f1babd6030baa"},
		{"syncookie", 1, 7700, "ff4a50c17af06c0aebd46a648bcfd5e0cbbed5b72ba4120707482bea5b8470b7"},
		{"syncookie", 7, 7700, "575f6601e1a531961ff3ebbe9aaaf7cb33e08a824405711dd771e4c3c11a6ce5"},
	} {
		w, err := Get(g.name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.Trace(g.seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Packets) != g.packets || tr.Digest() != g.digest {
			t.Errorf("%s seed %d: %d packets, digest %s; want %d, %s",
				g.name, g.seed, len(tr.Packets), tr.Digest(), g.packets, g.digest)
		}
	}
}
