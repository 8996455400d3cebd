package controller

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
)

// chaosFixture is the running example optimized once and shared by the
// chaos tests (the optimization itself is covered elsewhere).
type chaosFixture struct {
	res   *core.Result
	cfg   *rt.Config
	trace *trafficgen.Trace
}

var (
	chaosOnce sync.Once
	chaosFix  chaosFixture
)

func ex1Fixture(t *testing.T) chaosFixture {
	t.Helper()
	chaosOnce.Do(func() {
		trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := programs.Ex1Config()
		res, err := core.New(core.Options{}).Optimize(p4.MustParse(programs.Ex1), cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		chaosFix = chaosFixture{res: res, cfg: cfg, trace: trace}
	})
	if chaosFix.res == nil {
		t.Fatal("fixture failed to build")
	}
	if chaosFix.res.ControllerProgram == nil {
		t.Fatal("no controller program produced")
	}
	return chaosFix
}

// noSleep keeps backoff out of the test clock.
func noSleep(time.Duration) {}

func chaosOpts(set *faults.Set, policy DegradationPolicy) ResilientOptions {
	return ResilientOptions{
		Replicas: 2,
		Policy:   policy,
		Retry:    RetryConfig{MaxAttempts: 3, JitterSeed: 1, Sleep: noSleep},
		Faults:   set,
	}
}

func runChaos(t *testing.T, f chaosFixture, opts ResilientOptions) *ChaosReport {
	t.Helper()
	rep, err := VerifyChaosEquivalence(context.Background(), f.res.Original, f.cfg,
		f.res.Optimized, f.res.OptimizedConfig, f.res.ControllerProgram, f.trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosNoFaultsExact: with no injectors the resilient deployment is
// verdict-for-verdict identical to the original program — replication and
// mirroring alone change nothing.
func TestChaosNoFaultsExact(t *testing.T) {
	f := ex1Fixture(t)
	rep := runChaos(t, f, chaosOpts(nil, FailOpen))
	if !rep.Clean() || rep.Degraded != 0 {
		t.Fatalf("fault-free run degraded: %s (first: %s)", rep, rep.First)
	}
	if rep.Redirected == 0 || rep.Stats.Delivered != rep.Redirected {
		t.Errorf("redirected=%d delivered=%d, want equal and nonzero",
			rep.Redirected, rep.Stats.Delivered)
	}
	if rep.Stats.Degraded() != 0 || rep.Stats.Retries != 0 {
		t.Errorf("fault-free stats = %+v", rep.Stats)
	}
}

// TestChaosControllerDownWindow: an unavailability window forces retries,
// failovers, and (while both replicas are down) policy degradations —
// every divergence explicitly counted, none silent.
func TestChaosControllerDownWindow(t *testing.T) {
	f := ex1Fixture(t)
	set := faults.MustSet(faults.Spec{Point: faults.ControllerDown, From: 10, To: 60})
	rep := runChaos(t, f, chaosOpts(set, FailOpen))
	if !rep.Clean() {
		t.Fatalf("silent divergence under controller-down window: %s (first: %s)", rep, rep.First)
	}
	if rep.Stats.Lost == 0 || rep.Stats.DegradedPass != rep.Stats.Lost {
		t.Errorf("window should lose deliveries to fail-open: %+v", rep.Stats)
	}
	if rep.Stats.Retries == 0 || rep.Stats.ReplicaTrips == 0 {
		t.Errorf("window should trip replicas and force retries: %+v", rep.Stats)
	}
	if rep.Faults[faults.ControllerDown] == 0 {
		t.Error("injector never fired")
	}
}

// TestChaosRedirectLoss: probabilistic link loss is mostly absorbed by
// bounded retry; exhausted deliveries degrade, and every later verdict
// (replica state now behind the original) is flagged stale — zero silent
// divergences.
func TestChaosRedirectLoss(t *testing.T) {
	f := ex1Fixture(t)
	set := faults.MustSet(faults.Spec{Point: faults.RedirectLoss, Probability: 0.3, Seed: 7})
	rep := runChaos(t, f, chaosOpts(set, FailOpen))
	if !rep.Clean() {
		t.Fatalf("silent divergence under 30%% redirect loss: %s (first: %s)", rep, rep.First)
	}
	if rep.Stats.Retries == 0 {
		t.Errorf("30%% loss should force retries: %+v", rep.Stats)
	}
	if rep.Stats.Delivered+rep.Stats.Lost != rep.Redirected {
		t.Errorf("delivered %d + lost %d != redirected %d",
			rep.Stats.Delivered, rep.Stats.Lost, rep.Redirected)
	}
}

// TestChaosTotalOutageFailClosed: with the controller permanently down,
// fail-closed drops every redirected packet — a counted degradation per
// packet, never a silent one.
func TestChaosTotalOutageFailClosed(t *testing.T) {
	f := ex1Fixture(t)
	set := faults.MustSet(faults.Spec{Point: faults.ControllerDown, Probability: 1, Seed: 1})
	rep := runChaos(t, f, chaosOpts(set, FailClosed))
	if !rep.Clean() {
		t.Fatalf("silent divergence under total outage: %s (first: %s)", rep, rep.First)
	}
	if rep.Stats.DegradedDrop != rep.Redirected || rep.Stats.Delivered != 0 {
		t.Errorf("total outage + fail-closed: %+v (redirected %d)", rep.Stats, rep.Redirected)
	}
}

// TestChaosTotalOutageFallback: the fallback policy runs lost packets
// through a local copy of the original program. For Ex. 1 the offloaded
// segment's state is fed only by redirected packets, so the fallback copy
// tracks the original exactly: zero effective divergence, yet every
// packet still carries the explicit degradation flag.
func TestChaosTotalOutageFallback(t *testing.T) {
	f := ex1Fixture(t)
	set := faults.MustSet(faults.Spec{Point: faults.ControllerDown, Probability: 1, Seed: 1})
	rep := runChaos(t, f, chaosOpts(set, FallbackOriginal))
	if !rep.Clean() {
		t.Fatalf("silent divergence under fallback: %s (first: %s)", rep, rep.First)
	}
	if rep.Stats.DegradedFallback != rep.Redirected {
		t.Errorf("fallback should absorb all %d redirects: %+v", rep.Redirected, rep.Stats)
	}
	if rep.Degraded != 0 {
		t.Errorf("fallback verdicts diverged %d times; the local original copy should match", rep.Degraded)
	}
}

// TestChaosRedirectDelay: injected link delay slows delivery but changes
// no verdicts.
func TestChaosRedirectDelay(t *testing.T) {
	f := ex1Fixture(t)
	set := faults.MustSet(faults.Spec{Point: faults.RedirectDelay, Probability: 0.5, Seed: 3})
	rep := runChaos(t, f, chaosOpts(set, FailOpen))
	if !rep.Clean() || rep.Degraded != 0 {
		t.Fatalf("delay must not change verdicts: %s", rep)
	}
	if rep.Stats.Delayed == 0 {
		t.Error("delay injector never charged a delivery")
	}
}

// TestChaosReplicaRecovery: replicas tripped during a down window are
// healthy again once traffic flows past it.
func TestChaosReplicaRecovery(t *testing.T) {
	f := ex1Fixture(t)
	set := faults.MustSet(faults.Spec{Point: faults.ControllerDown, From: 0, To: 20})
	dep, err := NewResilientDeployment(f.res.Optimized, f.res.OptimizedConfig,
		f.res.ControllerProgram, f.cfg, f.res.Original, chaosOpts(set, FailOpen))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range f.trace.Packets {
		if _, err := dep.Process(simInput(pkt)); err != nil {
			t.Fatal(err)
		}
	}
	if dep.Stats().ReplicaTrips == 0 {
		t.Fatalf("down window should trip replicas: %+v", dep.Stats())
	}
	for _, st := range dep.Health() {
		if !st.Healthy {
			t.Errorf("replica %d still unhealthy after recovery: %+v", st.Index, st)
		}
	}
	// Reset restores a pristine deployment.
	dep.Reset()
	if s := dep.Stats(); s.Redirected != 0 || s.Degraded() != 0 {
		t.Errorf("Reset left stats %+v", s)
	}
	for _, st := range dep.Health() {
		if !st.Healthy || st.Stale || st.Handled != 0 {
			t.Errorf("Reset left replica %+v", st)
		}
	}
}

// TestChaosDeterminism: the same fault plan yields the identical chaos
// report — the injectors are seeded, the backoff jitter is seeded, and
// the replay is single-threaded.
func TestChaosDeterminism(t *testing.T) {
	f := ex1Fixture(t)
	run := func() *ChaosReport {
		set := faults.MustSet(
			faults.Spec{Point: faults.RedirectLoss, Probability: 0.2, Seed: 11},
			faults.Spec{Point: faults.ControllerDown, Probability: 0.1, Seed: 12},
		)
		return runChaos(t, f, chaosOpts(set, FailOpen))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identically-seeded chaos runs diverged:\nA: %+v\nB: %+v", a, b)
	}
	if !a.Clean() {
		t.Fatalf("silent divergence under combined faults: %s (first: %s)", a, a.First)
	}
}

// TestParsePolicy covers the CLI policy names.
func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]DegradationPolicy{
		"": FailOpen, "fail-open": FailOpen, "fail-closed": FailClosed, "fallback": FallbackOriginal,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy should fail")
	}
	if FallbackOriginal.String() != "fallback" {
		t.Errorf("String() = %q", FallbackOriginal.String())
	}
}
