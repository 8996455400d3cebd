package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/packet"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/workloads"
)

// optimizeEx1WithGuards runs the pipeline with runtime violation detectors.
func optimizeEx1WithGuards(t *testing.T) *Result {
	t.Helper()
	return optimizeEx1(t, Options{InsertDependencyGuards: true, Passes: []string{"phase2"}})
}

// TestGuardInsertedWithRewrite: the removed ACL dependency gets a detector
// table in ACL_UDP's hit arm, mirroring ACL_DHCP's reads and rules.
func TestGuardInsertedWithRewrite(t *testing.T) {
	res := optimizeEx1WithGuards(t)
	if len(res.Guards) != 1 {
		t.Fatalf("guards = %v, want one for the removed ACL dependency", res.Guards)
	}
	g := res.Guards[0]
	if g.From != "ACL_UDP" || g.To != "ACL_DHCP" {
		t.Errorf("guard watches %s -> %s, want ACL_UDP -> ACL_DHCP", g.From, g.To)
	}
	tbl := res.Optimized.Table(g.Table)
	if tbl == nil {
		t.Fatalf("guard table %s not declared", g.Table)
	}
	// Same reads as the guarded table.
	want := res.Optimized.Table("ACL_DHCP").Reads[0].Field.String()
	if got := tbl.Reads[0].Field.String(); got != want {
		t.Errorf("guard reads %s, want %s", got, want)
	}
	if res.Optimized.Register(g.Register) == nil {
		t.Error("violation register not declared")
	}
	// Guard rules mirror ACL_DHCP's.
	guardRules := res.OptimizedConfig.ForTable(g.Table)
	dhcpRules := res.OptimizedConfig.ForTable("ACL_DHCP")
	if len(guardRules) != len(dhcpRules) || len(guardRules) == 0 {
		t.Errorf("guard rules = %d, want %d", len(guardRules), len(dhcpRules))
	}
	// The rewritten program still parses and checks.
	if _, err := p4.Parse(p4.Print(res.Optimized)); err != nil {
		t.Fatalf("guarded program does not reparse: %v", err)
	}
	// The guard does not cost the saved stage.
	if res.StagesAfter() != 7 {
		t.Errorf("stages after = %d, want 7 (guard must be free)", res.StagesAfter())
	}
}

// TestGuardDetectsRuntimeViolation is the §3.2 scenario: the operator later
// installs a rule that makes the removed dependency manifest (blocking the
// DHCP port in ACL_UDP); the detector counts the violating packets while
// the normal trace leaves it at zero.
func TestGuardDetectsRuntimeViolation(t *testing.T) {
	res := optimizeEx1WithGuards(t)
	g := res.Guards[0]

	ast := p4.Clone(res.Optimized)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New(prog, res.OptimizedConfig, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	violations := func() uint64 { return sw.Register(g.Register)[0] }

	// Normal traffic: a rogue DHCP packet is dropped by ACL_DHCP (now in
	// the miss arm); no violation.
	dhcpPkt := packet.Serialize(
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.ProtoUDP, Src: packet.IP(10, 9, 0, 1), Dst: packet.IP(10, 0, 0, 2)},
		&packet.UDP{SrcPort: 68, DstPort: packet.PortDHCPServer},
		&packet.DHCP{Op: 1, HType: 1, HLen: 6, XID: 7},
	)
	out, err := sw.Process(sim.Input{Port: programs.UntrustedPort, Data: dhcpPkt})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Dropped {
		t.Fatal("rogue DHCP should still be dropped after the rewrite")
	}
	if violations() != 0 {
		t.Fatalf("violations = %d before any conflicting rule", violations())
	}

	// The operator blocks the DHCP server port in ACL_UDP — now a rogue
	// DHCP packet hits ACL_UDP, so ACL_DHCP is skipped; the detector
	// fires instead.
	if err := sw.InstallRule(rt.Rule{
		Table:   "ACL_UDP",
		Action:  "acl_udp_drop",
		Matches: []rt.FieldMatch{{Kind: p4.MatchExact, Value: packet.PortDHCPServer}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		out, err := sw.Process(sim.Input{Port: programs.UntrustedPort, Data: dhcpPkt})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Dropped {
			t.Fatal("packet should be dropped by ACL_UDP")
		}
	}
	if violations() != 3 {
		t.Errorf("violations = %d, want 3 (dependency manifested at runtime)", violations())
	}
	// A trusted-port DHCP packet also hits ACL_UDP but would MISS
	// ACL_DHCP: no violation counted.
	if _, err := sw.Process(sim.Input{Port: programs.TrustedPort, Data: dhcpPkt}); err != nil {
		t.Fatal(err)
	}
	if violations() != 3 {
		t.Errorf("violations = %d after non-matching packet, want 3", violations())
	}
}

// TestGuardObservationUnchanged: the pipeline's observations and stage
// history match the guard-less run.
func TestGuardKeepsPipelineResults(t *testing.T) {
	guarded := optimizeEx1WithGuards(t)
	plain := optimizeEx1(t, Options{Passes: []string{"phase2"}})
	if guarded.StagesBefore() != plain.StagesBefore() || guarded.StagesAfter() != plain.StagesAfter() {
		t.Errorf("guarded stages %d->%d vs plain %d->%d",
			guarded.StagesBefore(), guarded.StagesAfter(), plain.StagesBefore(), plain.StagesAfter())
	}
	// The profile with guards installed shows the detector never fired.
	if hits := guarded.FinalProfile.Hits[guarded.Guards[0].Table]; hits != 0 {
		t.Errorf("guard hit %d times on the profiling trace, want 0", hits)
	}
}

// guardedDigest hashes what a guarded Phase 2 run answers: the program
// text, its rules, the observations, the guards and the final profile.
func guardedDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%+v\n", p4.Print(res.Optimized), rt.Format(res.OptimizedConfig), res.Guards)
	for _, o := range res.Observations {
		fmt.Fprintf(h, "%v|%s|%s|%s|%v\n", o.Accepted, o.Kind, o.Summary, o.Evidence, o.Details)
	}
	p := res.FinalProfile
	fmt.Fprintf(h, "%d %d %d\n", p.TotalPackets, p.Drops, p.ToCPU)
	for _, m := range []map[string]int{p.Hits, p.Applied, p.ActionCounts, p.Sets} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%d\n", k, m[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGuardedAcceptReplaysOnce: a guarded candidate is replayed once, with
// the mirrored detector rules installed — the detector never hits on the
// trace, so the behavior check passes as it did without them — and that
// replay is the profile the run keeps. The digests were recorded when an
// accept replayed the candidate, then the program again with the rules.
func TestGuardedAcceptReplaysOnce(t *testing.T) {
	for _, tc := range []struct{ workload, digest string }{
		{"stress", "a0f02cef2d1039c4"},
		{"natgre", "9af6793334b2682b"},
	} {
		w, err := workloads.Get(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(Options{InsertDependencyGuards: true, Passes: []string{"phase2"}}).Optimize(
			p4.MustParse(w.Source), w.Config(), trace)
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for _, o := range res.Observations {
			if o.Phase == PhaseDependencies && o.Accepted {
				accepted++
			}
		}
		if s := res.PassStats[1]; s.ID != "phase2" || s.ProfileMisses != accepted {
			t.Errorf("%s: %s replayed %d profiles for %d accepted edges, want one each", tc.workload, s.ID, s.ProfileMisses, accepted)
		}
		if got := guardedDigest(res); got != tc.digest {
			t.Errorf("%s: guarded result digest %s, want %s", tc.workload, got, tc.digest)
		}
	}
}

// TestGuardsOnFullPipeline: guards survive Phases 3 and 4 (the guard table
// is not an offload candidate — its register is data-plane state the
// detector needs).
func TestGuardsOnFullPipeline(t *testing.T) {
	res := optimizeEx1(t, Options{InsertDependencyGuards: true})
	if res.StagesAfter() != 3 {
		t.Errorf("full pipeline with guards: %d stages, want 3\n%s",
			res.StagesAfter(), RenderHistory(res.History))
	}
	if len(res.Guards) == 0 {
		t.Fatal("no guards recorded")
	}
	if res.Optimized.Table(res.Guards[0].Table) == nil {
		t.Error("guard table missing from the final program")
	}
	for _, o := range res.Observations {
		if o.Phase == PhaseOffload && o.Accepted {
			for _, tbl := range o.Tables {
				if strings.HasPrefix(tbl, "p2go_guard_") {
					t.Error("guard table must not be offloaded")
				}
			}
		}
	}
}
