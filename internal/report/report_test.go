package report

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"p2go/internal/core"
	"p2go/internal/p4"
	"p2go/internal/workloads"
)

// runQuickstart optimizes the fast baseline workload once.
func runQuickstart(t *testing.T) *core.Result {
	t.Helper()
	w, err := workloads.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p4.Parse(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), prog, w.Config(), trace, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFromResultRoundTrip(t *testing.T) {
	res := runQuickstart(t)
	jr := FromResult("quickstart", 1, res)

	if jr.Kind != "optimize" || jr.Workload != "quickstart" || jr.Seed != 1 {
		t.Fatalf("header = %+v", jr)
	}
	if jr.StagesBefore != res.StagesBefore() || jr.StagesAfter != res.StagesAfter() {
		t.Errorf("stages %d->%d, want %d->%d", jr.StagesBefore, jr.StagesAfter,
			res.StagesBefore(), res.StagesAfter())
	}
	if len(jr.History) != len(res.History) {
		t.Errorf("history rows %d, want %d", len(jr.History), len(res.History))
	}
	if !strings.Contains(jr.OptimizedP4, "control ingress") {
		t.Error("optimized_p4 is not P4 source")
	}
	if jr.Profile == nil || jr.Profile.TotalPackets == 0 {
		t.Error("missing profile")
	}

	data, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	var back JobResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.StagesAfter != jr.StagesAfter || back.Workload != jr.Workload {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if len(back.History) != len(jr.History) {
		t.Errorf("round trip lost history")
	}
}

func TestFromProfile(t *testing.T) {
	res := runQuickstart(t)
	jr := FromProfile("quickstart", 7, res.Profile)
	if jr.Kind != "profile" || jr.Seed != 7 {
		t.Fatalf("header = %+v", jr)
	}
	if jr.Profile == nil {
		t.Fatal("missing profile")
	}
	if len(jr.Profile.HitRates) == 0 {
		t.Error("missing hit rates")
	}
	for table, rate := range jr.Profile.HitRates {
		if rate < 0 || rate > 1 {
			t.Errorf("hit rate %s = %v out of range", table, rate)
		}
	}
	if jr.History != nil || jr.OptimizedP4 != "" {
		t.Error("profile result must not carry optimize fields")
	}
}

func TestFromProfileNil(t *testing.T) {
	if convertProfile(nil) != nil {
		t.Error("nil profile must serialize to nil")
	}
}

// TestFleetEquivalent: the kill/takeover equivalence check ignores what
// legitimately differs between runs (timings, cache counters, Cached
// flags, replica attribution) and catches what must not (outcomes,
// programs, traffic).
func TestFleetEquivalent(t *testing.T) {
	mk := func() *FleetResult {
		return &FleetResult{
			Kind: "fleet", Name: "ha", DeviceCount: 2, Optimized: 2,
			StagesBefore: 8, StagesAfter: 5, TotalPackets: 80,
			Devices: []FleetDevice{
				{Device: "sw1", Status: FleetOptimized, Packets: 40,
					Result: &JobResult{StagesBefore: 4, StagesAfter: 2, OptimizedP4: "p1"}},
				{Device: "sw2", Status: FleetOptimized, Packets: 40,
					Result: &JobResult{StagesBefore: 4, StagesAfter: 3, OptimizedP4: "p2"}},
			},
		}
	}
	a, b := mk(), mk()
	// The survivor's run differs only in what equivalence must ignore.
	b.Replica = "r2"
	b.DurationSeconds = 99
	b.CompileHits = 17
	b.Devices[0].Cached = true
	if diffs := FleetEquivalent(a, b); len(diffs) != 0 {
		t.Fatalf("ignorable differences reported: %v", diffs)
	}

	c := mk()
	c.Devices[1].Status = FleetFailed
	c.Devices[1].Result = nil
	c.Optimized, c.Failed = 1, 1
	if diffs := FleetEquivalent(a, c); len(diffs) == 0 {
		t.Fatal("a failed device row went unnoticed")
	}

	d := mk()
	d.Devices[0].Result.OptimizedP4 = "different"
	if diffs := FleetEquivalent(a, d); len(diffs) == 0 {
		t.Fatal("a diverging optimized program went unnoticed")
	}

	e := mk()
	e.Devices = e.Devices[:1]
	e.DeviceCount = 1
	if diffs := FleetEquivalent(a, e); len(diffs) == 0 {
		t.Fatal("a missing device went unnoticed")
	}
}
