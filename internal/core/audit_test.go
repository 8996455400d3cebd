package core

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
)

// auditFixture is NAT&GRE, whose Phase 2 accepts one derived profile, and
// the program that pass ends with: what its audit replays.
func auditFixture(t *testing.T) (*trafficgen.Trace, string) {
	t.Helper()
	trace := trafficgen.NATGRETrace(trafficgen.NATGRESpec{Seed: 1})
	res, err := Optimize(context.Background(), p4.MustParse(programs.NATGRE), programs.NATGREConfig(), trace,
		Options{Passes: []string{"phase2"}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PassStats[1].ProfileMisses != 1 {
		t.Fatalf("phase2 replayed %d profiles, want the audit's one", res.PassStats[1].ProfileMisses)
	}
	return trace, p4.Print(res.Optimized)
}

// tamperingHook replays like the pipeline does, but adds a drop to the
// profile of the program printed as audited, so the audit's replay disagrees
// with the derived profile.
func tamperingHook(audited string) func(context.Context, *p4.Program, *rt.Config, *trafficgen.Trace) (*profile.Profile, error) {
	return func(ctx context.Context, prog *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) (*profile.Profile, error) {
		prep, err := profile.PrepareContext(ctx, prog, cfg)
		if err != nil {
			return nil, err
		}
		prof, err := prep.Profiler().RunWith(ctx, trace, profile.RunOptions{Shards: 1})
		if err == nil && p4.Print(prog) == audited {
			prof.Drops++
		}
		return prof, err
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// back to want and returns the count it saw last.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

const auditErr = "core: phase2: derived profile disagrees with replay: drops "

// TestAuditDisagreementFailsTheRun: a replay that disagrees with the derived
// profile fails the run at every parallelism, and no goroutine outlives
// Optimize.
func TestAuditDisagreementFailsTheRun(t *testing.T) {
	trace, audited := auditFixture(t)
	for _, parallelism := range []int{1, 4} {
		before := runtime.NumGoroutine()
		_, err := Optimize(context.Background(), p4.MustParse(programs.NATGRE), programs.NATGREConfig(), trace,
			Options{Parallelism: parallelism, ProfileHook: tamperingHook(audited)})
		if err == nil || !strings.HasPrefix(err.Error(), auditErr) {
			t.Errorf("parallelism %d: err = %v, want prefix %q", parallelism, err, auditErr)
		}
		if n := settledGoroutines(before); n > before {
			t.Errorf("parallelism %d: %d goroutines after Optimize returned, %d before", parallelism, n, before)
		}
	}
}
