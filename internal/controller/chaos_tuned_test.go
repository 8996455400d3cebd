package controller

import (
	"context"
	"testing"

	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
)

// TestChaosTunedWorkloads puts the parameterized workloads through the
// chaos harness at their tuned bindings: the program is optimized with the
// knobs pinned (so original and optimized agree on the instantiation and
// equivalence is exact), then verified under seeded fault injection. Every
// divergence must be an explicitly counted degradation — tuning a knob
// must not open silent-divergence holes in the resilient deployment.
func TestChaosTunedWorkloads(t *testing.T) {
	cases := []struct {
		name     string
		source   string
		cfg      func() *rt.Config
		trace    *trafficgen.Trace
		bindings map[string]int
	}{
		{
			// failure offloads FailureAlarm after tuning, so the fault
			// window hits live redirects.
			name:     "failure",
			source:   programs.FailureDetection,
			cfg:      programs.FailureConfig,
			trace:    trafficgen.FailureTrace(trafficgen.FailureSpec{Seed: 1}),
			bindings: map[string]int{"bf_cells": 120000, "cms_cells": 8000},
		},
		{
			name:     "maglev",
			source:   programs.Maglev,
			cfg:      programs.MaglevConfig,
			trace:    trafficgen.MaglevTrace(trafficgen.MaglevSpec{Seed: 1}),
			bindings: map[string]int{"conn_cells": 32768},
		},
		{
			name:     "syncookie",
			source:   programs.SynCookie,
			cfg:      programs.SynCookieConfig,
			trace:    trafficgen.SynCookieTrace(trafficgen.SynCookieSpec{Seed: 1}),
			bindings: map[string]int{"sc_bf_cells": 32768},
		},
	}
	set := faults.MustSet(
		faults.Spec{Point: faults.ControllerDown, From: 10, To: 60},
		faults.Spec{Point: faults.RedirectLoss, Probability: 0.2, Seed: 7},
	)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg()
			res, err := core.Optimize(context.Background(), p4.MustParse(tc.source), cfg, tc.trace, core.Options{Bindings: tc.bindings})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := check(context.Background(), res, cfg, tc.trace, chaosOpts(set, FailOpen))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("%s at %v: %d silent divergence(s) (first: %s)",
					tc.name, tc.bindings, rep.Silent, rep.First)
			}
			if res.ControllerProgram != nil && rep.Redirected == 0 {
				t.Errorf("%s offloaded %v but redirected nothing", tc.name, res.OffloadedTables)
			}
		})
	}
}
