package controller

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// check is the production check of res: core.Fates reads each side's
// recorded outcomes or replays it, and the vector loop compares them.
func check(ctx context.Context, res *core.Result, cfg *rt.Config, trace *trafficgen.Trace,
	opts ResilientOptions) (*EquivalenceReport, error) {

	original, optimized, err := core.Fates(ctx, res, cfg, trace)
	if err != nil {
		return nil, err
	}
	return VerifyChaosEquivalence(ctx, res.Original, cfg, res.ControllerProgram, trace, opts, original, optimized)
}

// lockstep is the reference the check is held to: the original program's
// Switch and the deployment opts configures over the optimized data plane
// take every packet in trace order (Switch.Process, then
// Deployment.ProcessContext), and each pair of fates is compared on its
// own terms: drops alike, a CPU send answered by a controller notification,
// any other packet on the same port.
func lockstep(ctx context.Context, res *core.Result, cfg *rt.Config, trace *trafficgen.Trace,
	opts ResilientOptions) (*EquivalenceReport, error) {

	original, err := sim.NewFromAST(res.Original, cfg, fateOnly)
	if err != nil {
		return nil, err
	}
	defer original.Release()
	dep, err := NewResilientDeployment(res.Optimized, res.OptimizedConfig, res.ControllerProgram, cfg, res.Original, opts)
	if err != nil {
		return nil, err
	}
	defer dep.release()
	rep := &EquivalenceReport{}
	for i, pkt := range trace.Packets {
		in := sim.Input{Port: pkt.Port, Data: pkt.Data}
		want, err := original.Process(in)
		if err != nil {
			return nil, fmt.Errorf("controller: original, packet %d: %w", i, err)
		}
		v, err := dep.ProcessContext(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("controller: deployment, packet %d: %w", i, err)
		}
		rep.Packets++
		if v.ViaController {
			rep.Redirected++
		}
		if want.Dropped == v.Dropped && (want.Dropped ||
			(want.ToCPU && v.Notified) || (!want.ToCPU && !v.Notified && want.Port == v.Port)) {
			continue
		}
		rep.Mismatches++
		if v.Degraded {
			rep.Degraded++
			continue
		}
		rep.Silent++
		if rep.First == "" {
			rep.First = fmt.Sprintf(
				"packet %d: original(drop=%v port=%d cpu=%v) vs deployment(drop=%v port=%d via_ctl=%v notified=%v)",
				i, want.Dropped, want.Port, want.ToCPU, v.Dropped, v.Port, v.ViaController, v.Notified)
		}
	}
	rep.Stats = dep.Stats()
	rep.Faults = opts.Faults.Counts()
	return rep, nil
}

// chaosPlan is the fault plan the differential test replays under; every
// run parses a fresh Set, so each starts from the same injector state.
const chaosPlan = "controller.down:from=10,to=60;redirect.loss:p=0.3,seed=7"

// TestReplayFatesMatchesLockstep: the vector loop reports exactly what the
// lock-step reference reports, field for field, on every workload at seeds
// 1-16: plainly, and under a fault plan at one replica and at two. The
// controller and every fault draw run live in trace order in both, so
// nothing may move. The loop is fed by core.Fates with both sides read from
// the outcomes the optimizer's replays recorded, which every run here has,
// with either side replayed through the profiler instead, and with both.
func TestReplayFatesMatchesLockstep(t *testing.T) {
	degraded := 0
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := w.Config()
			for seed := int64(1); seed <= 16; seed++ {
				trace, err := w.Trace(seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Optimize(context.Background(), p4.MustParse(w.Source), cfg, trace, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				// Each side's outcomes, as core.Fates hands them over: read or replayed.
				type vectors struct{ original, optimized []sim.Outcome }
				sides := map[string]vectors{}
				for _, side := range []struct {
					name          string
					keepOriginal  bool
					keepOptimized bool
				}{{"recorded", true, true}, {"original-recorded", true, false},
					{"data-plane-recorded", false, true}, {"replayed", false, false}} {
					r := *res
					if !side.keepOriginal {
						r.Profile = nil
					}
					if !side.keepOptimized {
						r.FinalProfile = nil
					}
					var v vectors
					if v.original, v.optimized, err = core.Fates(context.Background(), &r, cfg, trace); err != nil {
						t.Fatalf("seed %d, %s: %v", seed, side.name, err)
					}
					sides[side.name] = v
				}
				for _, mode := range []struct {
					name     string
					replicas int
					plan     string
				}{{"plain", 1, ""}, {"chaos-1", 1, chaosPlan}, {"chaos-2", 2, chaosPlan}} {
					opts := func() ResilientOptions {
						opts := ResilientOptions{Replicas: mode.replicas, sleep: noSleep}
						if mode.plan != "" {
							if opts.Faults, err = faults.ParseSet(mode.plan); err != nil {
								t.Fatal(err)
							}
						}
						return opts
					}
					want, err := lockstep(context.Background(), res, cfg, trace, opts())
					if err != nil {
						t.Fatalf("seed %d, %s: lock-step: %v", seed, mode.name, err)
					}
					for side, v := range sides {
						got, err := VerifyChaosEquivalence(context.Background(), res.Original, cfg,
							res.ControllerProgram, trace, opts(), v.original, v.optimized)
						if err != nil {
							t.Fatalf("seed %d, %s, %s: %v", seed, mode.name, side, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d, %s, %s:\nvectors   %+v\nlock-step %+v", seed, mode.name, side, got, want)
						}
					}
					degraded += want.Degraded
					if name == "syncookie" && seed == 6 && mode.name == "plain" &&
						(want.Mismatches != 24 || want.Packets != 7700 || !strings.HasPrefix(want.First, "packet 1008: ")) {
						t.Errorf("syncookie seed 6: %s, want 24/7700 mismatches from packet 1008", want)
					}
				}
			}
		})
	}
	if degraded == 0 {
		t.Error("no run under the fault plan degraded a verdict")
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// back to want — a goroutine that closed its last channel may take a moment
// to exit — and returns the count it saw last.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestReplayFatesErrors: core.Fates replays the original first, so a
// packet the original fails on is reported whatever the optimized program
// does, and the optimized program's failure only when the original replays
// cleanly. Each names its side and the packet's trace index. A side read
// from recorded outcomes never fails. No replay goroutine is left behind.
func TestReplayFatesErrors(t *testing.T) {
	const header = `
header_type h_t { fields { a : 8; b : 8; } }
header h_t h;
register r { width : 8; instance_count : 4; }
parser start { extract(h); return ingress; }
`
	const apply = `
table t { actions { note; } default_action : note; }
control ingress { apply(t); }
`
	// Each program fails on a packet whose field indexes past r[4].
	original := p4.MustParse(header + `action note() { register_write(r, h.a, 1); modify_field(standard_metadata.egress_spec, 2); }` + apply)
	optimized := p4.MustParse(header + `action note() { register_write(r, h.b, 1); modify_field(standard_metadata.egress_spec, 2); }` + apply)
	trace := func(badOrig, badDP int) *trafficgen.Trace {
		tr := &trafficgen.Trace{}
		for i := 0; i < 3*sim.ReplayBatchSize; i++ {
			a, b := byte(i%4), byte(i%4)
			if i == badOrig {
				a = 9
			}
			if i == badDP {
				b = 9
			}
			tr.Packets = append(tr.Packets, trafficgen.Packet{Port: 1, Data: []byte{a, b}})
		}
		return tr
	}
	// record is a side's profile as the optimizer's analysis cache holds
	// it: its outcome vector bound to the replay's key.
	record := func(prog *p4.Program, tr *trafficgen.Trace) *profile.Profile {
		prof, _, err := core.NewAnalysisCache().Profile(prog, &rt.Config{}, tr.Digest(), func() (*profile.Profile, error) {
			prep, err := profile.PrepareContext(context.Background(), prog, &rt.Config{})
			if err != nil {
				return nil, err
			}
			return prep.Profiler().RunWith(context.Background(), tr, profile.RunOptions{})
		})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	const msg = ": sim: action note: register_write: index 9 out of range for r[4]"
	for _, c := range []struct {
		name           string
		badOrig, badDP int
		want           string
	}{
		{"deployment-first", 1100, 600, "core: original program: profile: packet 1100" + msg},
		{"original-first", 600, 1100, "core: original program: profile: packet 600" + msg},
		{"same-batch", 700, 650, "core: original program: profile: packet 700" + msg},
		{"tie", 700, 700, "core: original program: profile: packet 700" + msg},
		// A side that fails nowhere is read from its recorded outcomes; the
		// other side's failure is reported the same way.
		{"deployment-only", -1, 600, "core: optimized program: profile: packet 600" + msg},
		{"original-only", 600, -1, "core: original program: profile: packet 600" + msg},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tr := trace(c.badOrig, c.badDP)
			res := &core.Result{Original: original, Optimized: optimized}
			_, err := check(context.Background(), res, nil, tr, ResilientOptions{Replicas: 1})
			if err == nil || err.Error() != c.want {
				t.Errorf("err = %v, want %q", err, c.want)
			}
			if c.badOrig < 0 || c.badDP < 0 {
				if c.badOrig < 0 {
					res.Profile = record(original, tr)
				}
				if c.badDP < 0 {
					res.FinalProfile = record(optimized, tr)
				}
				_, err := check(context.Background(), res, nil, tr, ResilientOptions{Replicas: 1})
				if err == nil || err.Error() != c.want {
					t.Errorf("recorded: err = %v, want %q", err, c.want)
				}
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("%d goroutines after the check returned, %d before", n, before)
			}
		})
	}
}

// TestReplayFatesCanceled: a context canceled while the vector loop runs
// ends it at the next batch boundary with the context's error: every
// packet of the batch the cancel came in still reaches the controller,
// none after it.
func TestReplayFatesCanceled(t *testing.T) {
	segment := p4.MustParse(`
header_type h_t { fields { a : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action pass() { no_op(); }
table t { actions { pass; } default_action : pass; }
control ingress { apply(t); }
`)
	const n = 16 * sim.ReplayBatchSize
	tr := &trafficgen.Trace{}
	original, redirected := make([]sim.Outcome, n), make([]sim.Outcome, n)
	for i := range n {
		tr.Packets = append(tr.Packets, trafficgen.Packet{Port: 1, Data: []byte{byte(i)}})
		original[i] = (&sim.Output{Port: 2}).Outcome()
		redirected[i] = (&sim.Output{Port: sim.CPUPort, ToCPU: true, ForwardPort: 2}).Outcome()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every redirect pays one injected delay: the sleep clock counts the
	// packets the controller was handed.
	delivered := 0
	opts := ResilientOptions{
		Replicas: 1,
		Faults:   faults.MustSet(faults.Spec{Point: faults.RedirectDelay, Probability: 1}),
		sleep: func(time.Duration) {
			if delivered++; delivered == sim.ReplayBatchSize+10 {
				cancel()
			}
		},
	}
	_, err := VerifyChaosEquivalence(ctx, nil, nil, segment, tr, opts, original, redirected)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered != 2*sim.ReplayBatchSize {
		t.Errorf("the controller was handed %d packets, want the %d of the batches begun before the cancel",
			delivered, 2*sim.ReplayBatchSize)
	}
}
