package p2go

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"p2go/internal/controller"
	"p2go/internal/core"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/workloads"
)

// The vector sweep's seed count per workload and schedule; CI raises it:
//
//	go test -run TestVerifierVectorsAgreeWithReplay -verify-seeds 64 .
var verifySeeds = flag.Int("verify-seeds", 8, "seeds per workload for the verifier's recorded-outcomes sweep")

// verifySpans runs the facade's check under a collector and returns the
// report (or error) with how many sides it sent to the profiler and how many
// it replayed there: the "profile.instrument" and "sim.replay" (or
// "sim.replay-sharded") spans in its trace. A check that reads both sides
// from recorded outcomes has neither.
func verifySpans(res *Result, cfg *Config, trace *Trace) (rep *EquivalenceReport, profiled, replayed int, err error) {
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	rep, err = VerifyChaosEquivalence(ctx, res, cfg, trace, ResilientOptions{Replicas: 1})
	for _, s := range col.Spans() {
		switch s.Name {
		case "profile.instrument":
			profiled++
		case "sim.replay", "sim.replay-sharded":
			replayed++
		}
	}
	return rep, profiled, replayed, err
}

// lockstepReport is the reference the check is held to: the original
// program's Switch and the plain deployment (the optimized data plane and
// one controller) take every packet in trace order, and each pair of fates
// is compared on its own terms: drops alike, a CPU send answered by a
// controller notification, any other packet on the same port.
func lockstepReport(res *Result, cfg *Config, trace *Trace) (*EquivalenceReport, error) {
	original, err := sim.NewFromAST(res.Original, cfg, sim.Options{Observe: sim.ObserveFate})
	if err != nil {
		return nil, err
	}
	dep, err := controller.NewDeployment(res.Optimized, res.OptimizedConfig, res.ControllerProgram, cfg)
	if err != nil {
		return nil, err
	}
	rep := &EquivalenceReport{}
	for i, pkt := range trace.Packets {
		in := sim.Input{Port: pkt.Port, Data: pkt.Data}
		want, err := original.Process(in)
		if err != nil {
			return nil, fmt.Errorf("original, packet %d: %w", i, err)
		}
		v, err := dep.Process(in)
		if err != nil {
			return nil, fmt.Errorf("deployment, packet %d: %w", i, err)
		}
		rep.Packets++
		if v.ViaController {
			rep.Redirected++
		}
		same := want.Dropped == v.Dropped && (want.Dropped ||
			(want.ToCPU && v.Notified) || (!want.ToCPU && !v.Notified && want.Port == v.Port))
		if same {
			continue
		}
		rep.Mismatches++
		rep.Silent++
		if rep.First == "" {
			rep.First = fmt.Sprintf(
				"packet %d: original(drop=%v port=%d cpu=%v) vs deployment(drop=%v port=%d via_ctl=%v notified=%v)",
				i, want.Dropped, want.Port, want.ToCPU, v.Dropped, v.Port, v.ViaController, v.Notified)
		}
	}
	rep.Stats = dep.Stats()
	return rep, nil
}

// sameOutcome holds two checks of one comparison to the same report, field
// for field, or to the same error.
func sameOutcome(t *testing.T, label string, got *EquivalenceReport, gotErr error, want *EquivalenceReport, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: error %v, lock-step %v", label, gotErr, wantErr)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\ncheck     %+v\nlock-step %+v", label, got, want)
	}
}

// fateExact is the sweep's default half: a run of the default schedule must
// leave every packet's fate as it was, or its check names the first that
// moved.
func fateExact(rep *EquivalenceReport) error {
	if rep.Mismatches != 0 {
		return fmt.Errorf("the default schedule changed packet fates: %s", rep)
	}
	return nil
}

// TestVerifierVectorsAgreeWithReplay: for every workload, seed and schedule
// (default, and tune first), the facade's check, which reads both sides from
// the outcomes the optimizer's replays recorded, reports field for field
// what the lock-step reference reports, and never has to replay; and every
// default run is fate-exact.
func TestVerifierVectorsAgreeWithReplay(t *testing.T) {
	runs, fellBack := 0, 0
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := p4.MustParse(w.Source)
		cfg := w.Config()
		for seed := int64(1); seed <= int64(*verifySeeds); seed++ {
			trace, err := w.Trace(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, tune := range []bool{false, true} {
				opts := Options{}
				if tune {
					opts.Passes = append([]string{"tune"}, DefaultPassIDs()...)
					opts.TuneAccuracyTable = w.TuneAccuracyTable
				}
				label := fmt.Sprintf("%s seed %d tune=%v", name, seed, tune)
				res, err := Optimize(prog, cfg, trace, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, wantErr := lockstepReport(res, cfg, trace)
				got, _, replayed, gotErr := verifySpans(res, cfg, trace)
				sameOutcome(t, label, got, gotErr, want, wantErr)
				plain, plainErr := VerifyEquivalence(res, cfg, trace)
				sameOutcome(t, label+" (VerifyEquivalence)", plain, plainErr, want, wantErr)
				if !tune && gotErr == nil {
					if err := fateExact(got); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
				runs++
				if replayed > 0 {
					fellBack++
					t.Errorf("%s: the check replayed %d side(s), want both read from recorded outcomes", label, replayed)
				}
			}
		}
	}
	t.Logf("%d runs, %d fell back to a replay", runs, fellBack)
}

// TestVerifierVectorsCatchCountOnlyGate: the sweep's default half is live.
// Under the seeded count-only gate Phase 3 lands syncookie seed 6's memory
// reduction, whose profile stays equal while 24 packets change fates, and
// the check the sweep holds every default run to refuses it.
func TestVerifierVectorsCatchCountOnlyGate(t *testing.T) {
	w, err := workloads.Get("syncookie")
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	trace, err := w.Trace(6)
	if err != nil {
		t.Fatal(err)
	}
	restore := core.SeedCountOnlyGate()
	res, err := Optimize(p4.MustParse(w.Source), cfg, trace, Options{})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyEquivalence(res, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if fateExact(rep) == nil {
		t.Fatalf("under the count-only gate syncookie seed 6 is fate-exact (%s): the sweep cannot catch the gate's loss", rep)
	}
}

// TestVerifierVectorsRefuseOtherInputs: a check whose program, rules or
// trace is not the one a recorded replay ran sends that side through the
// profiler, and still reports what the lock-step reference reports.
func TestVerifierVectorsRefuseOtherInputs(t *testing.T) {
	w, err := workloads.Get("ex1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(p4.MustParse(w.Source), cfg, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}

	edited := *res
	edited.Optimized = p4.Clone(res.Optimized)
	edited.Optimized.Tables[0].Size++

	changed := cfg.Clone()
	changed.Rules[0].Args = slices.Clone(changed.Rules[0].Args)
	if len(changed.Rules[0].Args) > 0 {
		changed.Rules[0].Args[0]++
	} else {
		changed.Rules[0].Matches[0].Value++
	}

	extra := cfg.Clone()
	extra.Rules = append(extra.Rules, rt.Rule{Table: "nosuch", Action: "nop"})

	reversed := &Trace{Packets: slices.Clone(trace.Packets)}
	slices.Reverse(reversed.Packets)

	for _, c := range []struct {
		name               string
		res                *Result
		cfg                *Config
		trace              *Trace
		profiled, replayed int
	}{
		{"as-optimized", res, cfg, trace, 0, 0},
		{"edited-optimized", &edited, cfg, trace, 1, 1},
		{"one-rule-changed", res, changed, trace, 1, 1},
		// The profiler refuses the rules before it replays anything.
		{"rule-for-a-missing-table", res, extra, trace, 1, 0},
		{"other-trace", res, cfg, reversed, 2, 2},
	} {
		want, wantErr := lockstepReport(c.res, c.cfg, c.trace)
		got, profiled, replayed, gotErr := verifySpans(c.res, c.cfg, c.trace)
		sameOutcome(t, c.name, got, gotErr, want, wantErr)
		if profiled != c.profiled || replayed != c.replayed {
			t.Errorf("%s: %d side(s) sent to the profiler, %d replayed; want %d, %d",
				c.name, profiled, replayed, c.profiled, c.replayed)
		}
		if c.name == "rule-for-a-missing-table" && gotErr == nil {
			t.Errorf("%s: the check accepted a rule for a table the original lacks", c.name)
		}
	}
}
