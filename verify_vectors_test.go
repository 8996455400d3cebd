package p2go

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"p2go/internal/controller"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/workloads"
)

// The vector sweep's seed count per workload and schedule; CI raises it:
//
//	go test -run TestVerifierVectorsAgreeWithReplay -verify-seeds 64 .
var verifySeeds = flag.Int("verify-seeds", 8, "seeds per workload for the verifier's recorded-fates sweep")

// verifySources runs the facade's check under a collector and returns the
// report (or error) with where each side's fates came from, as the
// controller.verify span says.
func verifySources(res *Result, cfg *Config, trace *Trace) (rep *EquivalenceReport, original, dataPlane string, err error) {
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	rep, err = VerifyChaosEquivalence(ctx, res, cfg, trace, ResilientOptions{Replicas: 1})
	for _, s := range col.Spans() {
		if s.Name != "controller.verify" {
			continue
		}
		for _, a := range s.Attrs {
			switch a.Key {
			case "original":
				original = a.Value
			case "data_plane":
				dataPlane = a.Value
			}
		}
	}
	return rep, original, dataPlane, err
}

// replayedReport is the reference: controller's check with no recorded
// fates, both sides replayed.
func replayedReport(res *Result, cfg *Config, trace *Trace) (*EquivalenceReport, error) {
	return controller.VerifyEquivalence(context.Background(), res.Original, cfg, res.Optimized, res.OptimizedConfig,
		res.ControllerProgram, trace)
}

// sameOutcome holds two checks of one comparison to the same report, field
// for field, or to the same error.
func sameOutcome(t *testing.T, label string, got *EquivalenceReport, gotErr error, want *EquivalenceReport, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: error %v, replayed %v", label, gotErr, wantErr)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\nrecorded %+v\nreplayed %+v", label, got, want)
	}
}

// TestVerifierVectorsAgreeWithReplay: for every workload, seed and schedule
// (default, and tune first), the facade's check, which reads both sides from
// the fates the optimizer's replays recorded, reports field for field what
// replaying both sides reports, and never has to replay.
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
				want, wantErr := replayedReport(res, cfg, trace)
				got, original, dataPlane, gotErr := verifySources(res, cfg, trace)
				sameOutcome(t, label, got, gotErr, want, wantErr)
				plain, plainErr := VerifyEquivalence(res, cfg, trace)
				sameOutcome(t, label+" (VerifyEquivalence)", plain, plainErr, want, wantErr)
				runs++
				if original != "recorded" || dataPlane != "recorded" {
					fellBack++
					t.Errorf("%s: original %s, data plane %s, want both recorded", label, original, dataPlane)
				}
			}
		}
	}
	t.Logf("%d runs, %d fell back to a replay", runs, fellBack)
}

// TestVerifierVectorsRefuseOtherInputs: a check whose program, rules or
// trace is not the one a recorded replay ran replays that side, and still
// reports what replaying both sides reports.
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
		name                        string
		res                         *Result
		cfg                         *Config
		trace                       *Trace
		wantOriginal, wantDataPlane string
	}{
		{"as-optimized", res, cfg, trace, "recorded", "recorded"},
		{"edited-optimized", &edited, cfg, trace, "recorded", "replayed"},
		{"one-rule-changed", res, changed, trace, "replayed", "recorded"},
		{"rule-for-a-missing-table", res, extra, trace, "replayed", "recorded"},
		{"other-trace", res, cfg, reversed, "replayed", "replayed"},
	} {
		want, wantErr := replayedReport(c.res, c.cfg, c.trace)
		got, original, dataPlane, gotErr := verifySources(c.res, c.cfg, c.trace)
		sameOutcome(t, c.name, got, gotErr, want, wantErr)
		if original != c.wantOriginal || dataPlane != c.wantDataPlane {
			t.Errorf("%s: original %s, data plane %s; want %s, %s", c.name, original, dataPlane, c.wantOriginal, c.wantDataPlane)
		}
		if c.name == "rule-for-a-missing-table" && gotErr == nil {
			t.Errorf("%s: the check accepted a rule for a table the original lacks", c.name)
		}
	}
}
