package online

import (
	"strings"
	"testing"

	"p2go/internal/faults"
	"p2go/internal/programs"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

func newGuard(t *testing.T, opts GuardOptions) *RollbackGuard {
	t.Helper()
	res := optimizedEx1(t)
	g, err := NewRollbackGuard(res.Optimized, res.OptimizedConfig,
		res.Original, programs.Ex1Config(), res.FinalProfile, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Both planes run the compiled engine. res.Original never went through
	// p4.Check, so it lacks standard_metadata: the standby lowers only
	// because the guard builds it from a checked clone (sim.NewFromAST).
	for name, sw := range map[string]*sim.Switch{"monitor": g.mon.sw, "standby": g.fallback} {
		if engine, reason := sw.Engine(); engine != "compiled" {
			t.Fatalf("%s switch runs the %s engine (%s), want compiled", name, engine, reason)
		}
	}
	return g
}

// TestGuardStaysOnRepresentativeTraffic: same-mix traffic never trips
// the guard; the optimized program keeps serving.
func TestGuardStaysOnRepresentativeTraffic(t *testing.T) {
	g := newGuard(t, GuardOptions{Monitor: Config{WindowSize: 5000}})
	fresh, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range fresh.Packets {
		if _, err := g.Process(sim.Input{Port: pkt.Port, Data: pkt.Data}); err != nil {
			t.Fatal(err)
		}
	}
	if g.RolledBack() || g.Rollbacks() != 0 {
		t.Fatalf("guard tripped on representative traffic: %s", g.Reason())
	}
}

// TestGuardRollsBackOnDrift: a DNS-heavy shift marks the profile stale;
// the guard reverts to the original program automatically and keeps
// forwarding traffic through it.
func TestGuardRollsBackOnDrift(t *testing.T) {
	g := newGuard(t, GuardOptions{Monitor: Config{WindowSize: 2000}})
	for _, in := range dnsHeavyMix(4000, 0.30, 3) {
		if _, err := g.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if !g.RolledBack() {
		t.Fatal("30% DNS traffic should trip the rollback guard")
	}
	if !strings.Contains(g.Reason(), "profile drift") {
		t.Errorf("reason = %q, want a drift report", g.Reason())
	}
	if g.Rollbacks() != 1 {
		t.Errorf("rollbacks = %d, want 1 (the trip latches)", g.Rollbacks())
	}
	// Traffic still flows after the rollback — through the original.
	for _, in := range dnsHeavyMix(100, 0.30, 4) {
		if _, err := g.Process(in); err != nil {
			t.Fatalf("fallback plane errored: %v", err)
		}
	}
	// The monitor recorded the shifted traffic for re-optimization.
	if len(g.Monitor().RecentTrace().Packets) == 0 {
		t.Error("no fresh trace recorded for re-optimization")
	}
}

// TestGuardRollsBackOnMonitorError: an injected data-plane error trips
// the guard even without drift — the packet that exposed it is served by
// the fallback, not dropped.
func TestGuardRollsBackOnMonitorError(t *testing.T) {
	set := faults.MustSet(faults.Spec{Point: faults.SimStep, From: 50, To: 51})
	g := newGuard(t, GuardOptions{Monitor: Config{WindowSize: 2000}, Faults: set})
	fresh, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, pkt := range fresh.Packets[:200] {
		if _, err := g.Process(sim.Input{Port: pkt.Port, Data: pkt.Data}); err != nil {
			t.Fatalf("packet %d dropped: %v", i, err)
		}
	}
	if !g.RolledBack() || !strings.Contains(g.Reason(), "monitor error") {
		t.Fatalf("injected step error should trip the guard (reason %q)", g.Reason())
	}
}

// TestGuardReinstate: after a false alarm the guard re-arms and a real
// drift trips it again, counted separately.
func TestGuardReinstate(t *testing.T) {
	g := newGuard(t, GuardOptions{Monitor: Config{WindowSize: 2000}})
	for _, in := range dnsHeavyMix(4000, 0.30, 3) {
		if _, err := g.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if !g.RolledBack() {
		t.Fatal("setup: guard did not trip")
	}
	g.Reinstate()
	if g.RolledBack() || g.Reason() != "" {
		t.Fatal("Reinstate left the guard tripped")
	}
	for _, in := range dnsHeavyMix(4000, 0.30, 5) {
		if _, err := g.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if !g.RolledBack() || g.Rollbacks() != 2 {
		t.Fatalf("re-armed guard should trip again: rolledBack=%v rollbacks=%d",
			g.RolledBack(), g.Rollbacks())
	}
}

// TestGuardRequiresOriginal: the guard refuses to build without a
// fallback program.
func TestGuardRequiresOriginal(t *testing.T) {
	res := optimizedEx1(t)
	if _, err := NewRollbackGuard(res.Optimized, res.OptimizedConfig,
		nil, nil, res.FinalProfile, GuardOptions{}); err == nil {
		t.Fatal("nil original should be rejected")
	}
}
