package profile

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// TestInterpreterPlanBuiltOnDemand: preparing a program lowers only the
// replay plan; the interpreter's plan is built by the first replay that
// forces it, from the rules as they stand then, and a failure to build it
// is that replay's error.
func TestInterpreterPlanBuiltOnDemand(t *testing.T) {
	ctx := context.Background()
	w, err := workloads.Get("natgre")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(cfg *rt.Config) *Prepared {
		prep, err := PrepareContext(ctx, p4.MustParse(w.Source), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		return prep
	}
	prep := prepare(w.Config())
	want, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 1, Interpret: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 1, Interpret: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Engine.Engine != "interpreter" {
		t.Errorf("second forced replay differs (engine %s): %s", got.Engine.Engine, got.Diff(want))
	}

	// A rule for a table the program lacks, added after preparing and after a
	// compiled replay, fails the interpreter plan's build: had preparing built
	// it, the forced replay would succeed.
	cfg := w.Config()
	broken := prepare(cfg)
	cfg.Rules = append(cfg.Rules, rt.Rule{Table: "nosuch", Action: "nop"})
	if _, err := broken.Profiler().RunWith(ctx, trace, RunOptions{Interpret: true}); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("forced replay over a plan that does not build: err = %v, want the build error", err)
	}
}

// fatesKey is the key the differential harness binds outcome vectors to; a
// replay's own key is the pipeline's business (core.Fates).
var fatesKey = [32]byte{'f', 'a', 't', 'e', 's'}

// recordedFates binds the replay's vector to fatesKey and reads it back.
func recordedFates(p *Profile) []sim.Outcome {
	p.BindFates(fatesKey)
	return p.Fates(fatesKey)
}

// TestRunWithCombinationsProfileEqual is the profiling differential
// harness: for every bundled workload, every engine/shard/dedup
// combination of RunWith must produce a profile Equal to the reference
// replay (interpreter, one shard, no dedup) — the guarantee the compiled
// engine and flow deduplication are allowed to exist under — and the same
// outcome at every trace index, which the reference holds to each packet's
// own Output. It also pins the EngineReport: stateful programs must report
// the dedup and sharding fallback instead of silently taking them, and
// their compiled replays at two shards or more must have run pipelined. A
// profile derived from a replayed one records no vector: it answers no key.
func TestRunWithCombinationsProfileEqual(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := w.Trace(2)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := PrepareContext(ctx, p4.MustParse(w.Source), w.Config())
			if err != nil {
				t.Fatal(err)
			}
			if engine, reason := prep.Engine(); engine != "compiled" {
				t.Fatalf("workload did not lower: engine=%s reason=%q", engine, reason)
			}
			// Every replay below runs the program itself at the fate level,
			// lowered for the collector or on the interpreter.
			if got := prep.Lowering().Observe; got != sim.ObserveFate {
				t.Fatalf("replay plan observes the %s, want the fate", got)
			}
			stateful := len(prep.stateful) > 0

			ref, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 1, Interpret: true, NoDedup: true})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Engine == nil || ref.Engine.Engine != "interpreter" || ref.Engine.FallbackReason != "forced" {
				t.Fatalf("reference EngineReport = %+v", ref.Engine)
			}
			refFates := recordedFates(ref)
			if len(refFates) != len(trace.Packets) {
				t.Fatalf("reference replay recorded %d outcomes for %d packets", len(refFates), len(trace.Packets))
			}
			sw, err := sim.NewFromAST(p4.MustParse(w.Source), w.Config(), sim.Options{Observe: sim.ObserveFate})
			if err != nil {
				t.Fatal(err)
			}
			for i, pkt := range trace.Packets {
				out, err := sw.Process(sim.Input{Port: pkt.Port, Data: pkt.Data})
				if err != nil {
					t.Fatal(err)
				}
				if want := out.Outcome(); refFates[i] != want {
					t.Fatalf("packet %d: reference recorded %#x, the packet's own output packs as %#x", i, refFates[i], want)
				}
			}
			if derived, _ := ref.SkipUnlessMissed("nosuch", nil); derived == nil || derived.Fates(fatesKey) != nil {
				t.Errorf("a derived profile answers the key of the profile it was derived from")
			} else if derived.BindFates(fatesKey); derived.Fates(fatesKey) != nil {
				t.Errorf("a derived profile bound to a key yields a vector")
			}

			for _, shards := range []int{1, 2, 4} {
				for _, noDedup := range []bool{false, true} {
					// How a replay was carried out — dedup, why not, how many
					// packets and workers — does not depend on the engine.
					var compiledReport EngineReport
					for _, interp := range []bool{false, true} {
						opts := RunOptions{Shards: shards, Interpret: interp, NoDedup: noDedup}
						label := fmt.Sprintf("shards=%d noDedup=%v interp=%v", shards, noDedup, interp)
						spans := obs.NewCollector(0)
						got, err := prep.Profiler().RunWith(obs.WithTracer(ctx, obs.NewTracer(spans)), trace, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if want := stateful && shards > 1 && !interp; ranPipelined(spans) != want {
							t.Errorf("%s: sim.replay pipelined = %v, want %v", label, !want, want)
						}
						if !got.Equal(ref) {
							t.Fatalf("%s: profile diverges from reference:\n%s", label, got.Diff(ref))
						}
						if got.Fates(fatesKey) != nil {
							t.Fatalf("%s: an unbound vector answers a key", label)
						}
						if fates := recordedFates(got); !slices.Equal(fates, refFates) {
							t.Fatalf("%s: outcome vector (%d entries) differs from the reference's", label, len(fates))
						}
						if got.Fates([32]byte{}) != nil {
							t.Fatalf("%s: a vector answers a key it was not bound to", label)
						}
						rep := got.Engine
						if rep == nil {
							t.Fatalf("%s: no EngineReport", label)
						}
						wantEngine := "compiled"
						if interp {
							wantEngine = "interpreter"
						}
						if rep.Engine != wantEngine {
							t.Errorf("%s: engine = %s, want %s (reason %q)", label, rep.Engine, wantEngine, rep.FallbackReason)
						}
						if !interp {
							compiledReport = *rep
						} else {
							want := compiledReport
							want.Engine, want.FallbackReason = "interpreter", "forced"
							if *rep != want {
								t.Errorf("%s: EngineReport %+v, the compiled replay's %+v", label, *rep, compiledReport)
							}
						}
						if stateful {
							if rep.Dedup || rep.Shards != 1 {
								t.Errorf("%s: stateful program reports dedup=%v shards=%d", label, rep.Dedup, rep.Shards)
							}
							if !noDedup && rep.DedupReason != "stateful-tables" {
								t.Errorf("%s: dedup_reason = %q, want stateful-tables", label, rep.DedupReason)
							}
						} else {
							if rep.Dedup == noDedup {
								t.Errorf("%s: dedup = %v", label, rep.Dedup)
							}
							if rep.Dedup && rep.UniquePackets > got.TotalPackets {
								t.Errorf("%s: %d unique packets out of %d total", label, rep.UniquePackets, got.TotalPackets)
							}
						}
					}
				}
			}
		})
	}
}

// ranPipelined reports whether a recorded replay's sim.replay span says it
// ran pipelined.
func ranPipelined(spans *obs.Collector) bool {
	for _, s := range spans.Spans() {
		if s.Name == "sim.replay" && slices.Contains(s.Attrs, obs.Bool("pipeline", true)) {
			return true
		}
	}
	return false
}

// TestDedupCollapsesRepeatedFlows drives dedup with a trace it can
// actually collapse — a handful of distinct packets repeated thousands of
// times — and checks the counters (weighted exactly like the full replay),
// the replay volume (UniquePackets equals the distinct flow count, which is
// the 10x-class win the engine exists for) and the outcome vector of the
// flows, expanded per packet, against the full replay's.
func TestDedupCollapsesRepeatedFlows(t *testing.T) {
	w, err := workloads.Get("natgre")
	if err != nil {
		t.Fatal(err)
	}
	base, err := w.Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	distinct := 16
	rng := rand.New(rand.NewSource(9))
	trace := &trafficgen.Trace{}
	for i := 0; i < 8000; i++ {
		trace.Packets = append(trace.Packets, base.Packets[rng.Intn(distinct)])
	}

	prep, err := PrepareContext(context.Background(), p4.MustParse(w.Source), w.Config())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Profiler().RunWith(context.Background(), trace, RunOptions{Shards: 1, NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	// Shards split the flows, not the trace: a flow is replayed once however
	// many shards there are, and no shard is started without a flow to replay.
	for _, shards := range []int{1, 4, 64} {
		got, err := prep.Profiler().RunWith(context.Background(), trace, RunOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Fatalf("shards=%d: deduplicated profile diverges:\n%s", shards, got.Diff(ref))
		}
		if !slices.Equal(recordedFates(got), recordedFates(ref)) {
			t.Fatalf("shards=%d: the vector expanded through the flow index differs from the packet-by-packet one", shards)
		}
		if got.Engine.UniquePackets != distinct {
			t.Errorf("shards=%d: replayed %d unique packets, want %d", shards, got.Engine.UniquePackets, distinct)
		}
		if want := min(shards, distinct); got.Engine.Shards != want {
			t.Errorf("shards=%d: engine report says %d workers, want %d", shards, got.Engine.Shards, want)
		}
		if got.TotalPackets != 8000 {
			t.Errorf("shards=%d: TotalPackets = %d, want 8000", shards, got.TotalPackets)
		}
	}
}

// TestInstrumentedPacketPlanByteExact holds a compiled plan that observes the
// packet to the interpreter's bytes on the instrumented clone, trailer
// appended and drops neutralized, as bench's sim.exec probe lowers it —
// where natgre rewrites addresses and recomputes an IPv4 checksum. The
// replay plan of the program skips write-back and checksum because its
// caller reads neither; online, network and the bench probe forward or
// time real bytes and build a packet plan, which must not inherit those
// shortcuts.
func TestInstrumentedPacketPlanByteExact(t *testing.T) {
	for _, name := range []string{"natgre", "l2l3_acl", "ex1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := w.Trace(3)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := Instrument(p4.MustParse(w.Source))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ir.Build(inst.AST)
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.Options{Trailer: TrailerName, NeutralizeDrops: true}
			compiled, err := sim.New(prog, w.Config(), opts)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := sim.New(prog, w.Config(), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Interpret = true
			interp, err := sim.New(prog, w.Config(), opts)
			if err != nil {
				t.Fatal(err)
			}
			ins := make([]sim.Input, len(trace.Packets))
			for i, pkt := range trace.Packets {
				ins[i] = sim.Input{Port: pkt.Port, Data: pkt.Data}
			}
			// One whole-trace batch into the arena, as bench/layers.go's
			// sim.exec probe runs it.
			outs := make([]sim.Output, len(ins))
			if _, err := batched.ProcessBatch(ins, outs, sim.BatchOpts{SkipExec: true, ReuseData: true}); err != nil {
				t.Fatal(err)
			}
			changed := 0
			for i, in := range ins {
				want, err := interp.Process(in)
				if err != nil {
					t.Fatal(err)
				}
				got, err := compiled.Process(in)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("packet %d: compiled %+v, interpreter %+v", i, got, want)
				}
				if !bytes.Equal(outs[i].Data, want.Data) {
					t.Fatalf("packet %d: batch data % x, interpreter % x", i, outs[i].Data, want.Data)
				}
				if !bytes.HasPrefix(want.Data, in.Data) {
					changed++
				}
			}
			if name == "natgre" && changed == 0 {
				t.Errorf("%s rewrote no packet of the trace: the write-back path went unexercised", name)
			}
		})
	}
}
