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
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// lockstepReplay is the reference replayFates is held to: the original and
// the data plane replayed in lock-step, batch by batch, on the calling
// goroutine. It reads no recorded fates: verify must hand it both Switches.
func lockstepReplay(ctx context.Context, original, dataPlane *sim.Switch, _ Recorded, trace *trafficgen.Trace,
	step func(i int, in sim.Input, fate sim.Fate, dpOut *sim.Output) error) (time.Duration, error) {

	n := len(trace.Packets)
	ins := make([]sim.Input, 0, sim.ReplayBatchSize)
	outs := make([]sim.Output, sim.ReplayBatchSize)
	dpOuts := make([]sim.Output, sim.ReplayBatchSize)
	return 0, sim.ReplayBatch(ctx, n, n, func(lo, hi int) error {
		ins = ins[:0]
		for _, pkt := range trace.Packets[lo:hi] {
			ins = append(ins, sim.Input{Port: pkt.Port, Data: pkt.Data})
		}
		k, err := original.ProcessBatch(ins, outs, sim.BatchOpts{})
		if err != nil {
			err = fmt.Errorf("controller: original, packet %d: %w", lo+k, err)
		}
		// On a tie the original's error is the one reported.
		if dk, derr := dataPlane.ProcessBatch(ins, dpOuts, sim.BatchOpts{}); dk < k {
			k, err = dk, fmt.Errorf("controller: deployment, packet %d: %w", lo+dk, derr)
		}
		for j := 0; j < k; j++ {
			if err := step(lo+j, ins[j], outs[j].Fate(), &dpOuts[j]); err != nil {
				return err
			}
		}
		return err
	})
}

// chaosPlan is the fault plan the differential test replays under; every
// run parses a fresh Set, so each starts from the same injector state.
const chaosPlan = "controller.down:from=10,to=60;redirect.loss:p=0.3,seed=7"

// TestReplayFatesMatchesLockstep: the verifier with the original on its own
// goroutine reports exactly what the lock-step loop reports, field for
// field, on every workload at seeds 1-16: plainly, and under a fault plan at
// one replica and at two. The data plane, the controller and every fault
// draw stay on the calling goroutine in trace order, so nothing may move.
// So does the verifier that reads either side, or both, from the fates the
// optimizer's replays recorded (core.RecordedFates), which every run here
// has for both sides.
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
				orig, dp := core.RecordedFates(res, cfg, trace)
				if orig == nil || dp == nil {
					t.Fatalf("seed %d: recorded fates original=%v data plane=%v, want both", seed, orig != nil, dp != nil)
				}
				sides := map[string]Recorded{
					"recorded":            {Original: orig, DataPlane: dp},
					"original-recorded":   {Original: orig},
					"data-plane-recorded": {DataPlane: dp},
				}
				for _, mode := range []struct {
					name     string
					replicas int
					plan     string
				}{{"plain", 1, ""}, {"chaos-1", 1, chaosPlan}, {"chaos-2", 2, chaosPlan}} {
					run := func(replay replayFunc, rec Recorded) *EquivalenceReport {
						opts := ResilientOptions{Replicas: mode.replicas, sleep: noSleep}
						if mode.plan != "" {
							if opts.Faults, err = faults.ParseSet(mode.plan); err != nil {
								t.Fatal(err)
							}
						}
						rep, err := verify(context.Background(), replay, res.Original, cfg,
							res.Optimized, res.OptimizedConfig, res.ControllerProgram, trace, opts, rec)
						if err != nil {
							t.Fatalf("seed %d, %s: %v", seed, mode.name, err)
						}
						return rep
					}
					want, got := run(lockstepReplay, Recorded{}), run(replayFates, Recorded{})
					degraded += got.Degraded
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d, %s:\nconcurrent %+v\nlock-step  %+v", seed, mode.name, got, want)
					}
					for side, rec := range sides {
						if got := run(replayFates, rec); !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d, %s, %s:\nvector    %+v\nlock-step %+v", seed, mode.name, side, got, want)
						}
					}
					if name == "syncookie" && seed == 6 && mode.name == "plain" &&
						(got.Mismatches != 24 || got.Packets != 7700 || !strings.HasPrefix(got.First, "packet 1008: ")) {
						t.Errorf("syncookie seed 6: %s, want 24/7700 mismatches from packet 1008", got)
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

// TestReplayFatesErrors: when the original and the data plane fail on
// different packets, the earlier one is reported; on a tie, the original's,
// in the lock-step loop's words; a side read from recorded fates never
// fails, and the replayed side's failure reads the same. The original's goroutine, which may have
// run batches ahead, is gone when the verifier returns.
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
	// record packs a side's fates as a replay that did not fail records them.
	record := func(prog *p4.Program, tr *trafficgen.Trace) []sim.Outcome {
		sw, err := sim.NewFromAST(prog, nil, fateOnly)
		if err != nil {
			t.Fatal(err)
		}
		var fates []sim.Outcome
		for _, pkt := range tr.Packets {
			out, err := sw.Process(sim.Input{Port: pkt.Port, Data: pkt.Data})
			if err != nil {
				t.Fatal(err)
			}
			c, _ := out.Outcome()
			fates = append(fates, c)
		}
		return fates
	}
	const msg = ": sim: action note: register_write: index 9 out of range for r[4]"
	for _, c := range []struct {
		name           string
		badOrig, badDP int
		want           string
	}{
		{"deployment-first", 1100, 600, "controller: deployment, packet 600" + msg},
		{"original-first", 600, 1100, "controller: original, packet 600" + msg},
		{"same-batch", 700, 650, "controller: deployment, packet 650" + msg},
		{"tie", 700, 700, "controller: original, packet 700" + msg},
		// A side that fails nowhere may be read from its recorded fates; the
		// other side's failure is reported the same way.
		{"deployment-only", -1, 600, "controller: deployment, packet 600" + msg},
		{"original-only", 600, -1, "controller: original, packet 600" + msg},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tr := trace(c.badOrig, c.badDP)
			var rec Recorded
			if c.badOrig < 0 {
				rec.Original = record(original, tr)
			}
			if c.badDP < 0 {
				rec.DataPlane = record(optimized, tr)
			}
			for _, replay := range []replayFunc{replayFates, lockstepReplay} {
				_, err := verify(context.Background(), replay, original, nil, optimized, nil, nil, tr,
					ResilientOptions{Replicas: 1}, Recorded{})
				if err == nil || err.Error() != c.want {
					t.Errorf("err = %v, want %q", err, c.want)
				}
			}
			if rec.Original != nil || rec.DataPlane != nil {
				_, err := verify(context.Background(), replayFates, original, nil, optimized, nil, nil, tr,
					ResilientOptions{Replicas: 1}, rec)
				if err == nil || err.Error() != c.want {
					t.Errorf("recorded: err = %v, want %q", err, c.want)
				}
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("%d goroutines after the verifier returned, %d before", n, before)
			}
		})
	}
}

// TestReplayFatesCanceled: a context canceled mid-verify ends the replay at
// the next batch with its error, leaves no goroutine behind, and the
// original begins no batch once the replay has returned.
func TestReplayFatesCanceled(t *testing.T) {
	prog := p4.MustParse(`
header_type h_t { fields { a : 8; } }
header h_t h;
counter seen { type : packets; instance_count : 1; }
parser start { extract(h); return ingress; }
action fwd() { modify_field(standard_metadata.egress_spec, 2); count(seen, 0); }
table t { actions { fwd; } default_action : fwd; }
control ingress { apply(t); }
`)
	tr := &trafficgen.Trace{}
	for i := 0; i < 16*sim.ReplayBatchSize; i++ {
		tr.Packets = append(tr.Packets, trafficgen.Packet{Port: 1, Data: []byte{byte(i)}})
	}
	before := runtime.NumGoroutine()
	sw := func() *sim.Switch {
		s, err := sim.NewFromAST(prog, &rt.Config{}, fateOnly)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	replayed := func(s *sim.Switch) int { return int(s.Counter("seen")[0].Packets) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	original := sw()
	_, err := replayFates(ctx, original, sw(), Recorded{}, tr, func(i int, _ sim.Input, _ sim.Fate, _ *sim.Output) error {
		if seen++; i == sim.ReplayBatchSize+10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 2*sim.ReplayBatchSize {
		t.Errorf("step saw %d packets, want the %d of the batches begun before the cancel", seen, 2*sim.ReplayBatchSize)
	}
	// Batch 1 was held when the cancel came: fateRing-1 more may have been
	// full, one more may have begun once batch 1's buffer came back.
	if n, most := replayed(original), (2+fateRing)*sim.ReplayBatchSize; n > most {
		t.Errorf("original replayed %d packets, at most %d were begun before the replay returned", n, most)
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after the replay returned, %d before", n, before)
	}

	// With done closed and every buffer free, the original begins nothing,
	// however a select would pick.
	done := make(chan struct{})
	close(done)
	for range 32 {
		free := make(chan []sim.Fate, fateRing)
		for range fateRing {
			free <- make([]sim.Fate, 0, sim.ReplayBatchSize)
		}
		full := make(chan origBatch, fateRing)
		original = sw()
		replayOriginal(original, tr, free, full, done)
		if n := replayed(original); n != 0 || len(full) != 0 {
			t.Fatalf("after done closed the original replayed %d packets in %d batches, want none", n, len(full))
		}
	}
}
