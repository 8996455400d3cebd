package profile

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// perPacketFold is the collector as it was before it counted marker
// patterns, kept here as the reference: one Process call per packet on the
// interpreter's plan, the executed markers read from that packet's
// execution marks, and every Profile map updated packet by packet with
// freshly built keys. It shares nothing with the collector but the
// prepared program.
func perPacketFold(t *testing.T, prep *Prepared, trace *trafficgen.Trace) *Profile {
	t.Helper()
	pl, err := prep.interp()
	if err != nil {
		t.Fatal(err)
	}
	sw := sim.NewFromPlan(pl)
	prof := &Profile{
		Hits:         map[string]int{},
		Applied:      map[string]int{},
		ActionCounts: map[string]int{},
		Sets:         map[string]int{},
	}
	for i, pkt := range trace.Packets {
		out, err := sw.Process(sim.Input{Port: pkt.Port, Data: pkt.Data})
		if err != nil {
			t.Fatalf("reference: packet %d: %v", i, err)
		}
		if len(out.Data) != len(prep.Ins.Fields) {
			t.Fatalf("reference: packet %d: %d execution marks, want %d", i, len(out.Data), len(prep.Ins.Fields))
		}
		prof.TotalPackets++
		if out.WouldDrop {
			prof.Drops++
		}
		if out.ToCPU {
			prof.ToCPU++
		}
		var entries []string
		seen := map[string]bool{}
		for j, info := range prep.Ins.Fields {
			if out.Data[j] == 0 {
				continue
			}
			base := info.Table + "." + info.Action
			entry := base
			if prep.missSlot[j] {
				entry = base + missTag
			} else {
				prof.Hits[info.Table]++
			}
			if !seen[info.Table] {
				seen[info.Table] = true
				prof.Applied[info.Table]++
			}
			prof.ActionCounts[base]++
			entries = append(entries, entry)
		}
		if len(entries) > 0 {
			prof.Sets[SetKey(entries)]++
		}
	}
	return prof
}

// TestCollectorMatchesPerPacketFold holds the pattern-counting collector to
// the per-packet fold on every bundled workload, with and without flow
// dedup, on one shard and four: the profile must be Equal, and the fields
// Equal does not compare (ActionCounts, ToCPU) identical too.
func TestCollectorMatchesPerPacketFold(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := w.Trace(5)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := PrepareContext(ctx, p4.MustParse(w.Source), w.Config())
			if err != nil {
				t.Fatal(err)
			}
			want := perPacketFold(t, prep, trace)
			for _, shards := range []int{1, 4} {
				for _, noDedup := range []bool{false, true} {
					label := fmt.Sprintf("shards=%d noDedup=%v", shards, noDedup)
					got, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: shards, NoDedup: noDedup})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !got.Equal(want) {
						t.Errorf("%s: profile differs from the per-packet fold: %s", label, got.Diff(want))
					}
					if !reflect.DeepEqual(got.ActionCounts, want.ActionCounts) {
						t.Errorf("%s: ActionCounts = %v, per-packet fold %v", label, got.ActionCounts, want.ActionCounts)
					}
					if got.Drops != want.Drops || got.ToCPU != want.ToCPU {
						t.Errorf("%s: drops/to-cpu = %d/%d, per-packet fold %d/%d",
							label, got.Drops, got.ToCPU, want.Drops, want.ToCPU)
					}
				}
			}
		})
	}
}

// TestReplayAllocCeiling pins the collector's point: a sequential,
// dedup-free replay of natgre's 10 000 packets allocates per distinct
// execution set, not per packet. Measured 96 allocations per RunWith since
// the replay records its outcome vector (95 before, 84 while the arena was
// sized once for a batch of trailers, 108 before that); the per-packet fold
// the collector replaced measured 65 042.
func TestReplayAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply to -race builds")
	}
	ctx := context.Background()
	w, err := workloads.Get("natgre")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Packets) != 10000 {
		t.Fatalf("natgre trace has %d packets, the ceiling is set for 10000", len(trace.Packets))
	}
	prep, err := PrepareContext(ctx, p4.MustParse(w.Source), w.Config())
	if err != nil {
		t.Fatal(err)
	}
	p := prep.Profiler()
	opts := RunOptions{Shards: 1, NoDedup: true}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.RunWith(ctx, trace, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("natgre, 10000 packets: %.0f allocations per RunWith", allocs)
	if allocs > 100 {
		t.Errorf("%.0f allocations per RunWith, want <= 100: the replay scratch grows by doubling again, or something allocates per packet", allocs)
	}
}

// TestReplayByteCeiling: a replay's register state is recycled, so what a
// repeated RunWith allocates is its batch scratch, not the program's
// registers. failure declares 368 000 register cells (2.9 MB): a second
// prep.Profiler().RunWith measured 3 200 312 bytes when every replay
// allocated them afresh, 237 776 with the first replay's slab reused, about
// 70 000 once the arena held a batch of execution marks instead of a batch
// of packets, and about 115 000 now that the replay records a 2-byte outcome
// per packet (40 000 bytes of failure's 20 000-packet vector).
func TestReplayByteCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply to -race builds")
	}
	ctx := context.Background()
	w, err := workloads.Get("failure")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareContext(ctx, p4.MustParse(w.Source), w.Config())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("failure, %d packets: %d bytes allocated by a second RunWith", len(trace.Packets), bytes)
	if bytes >= 128<<10 {
		t.Errorf("a second RunWith allocated %d bytes, want < 128 KiB: register state is allocated per replay again, or the arena holds whole packets", bytes)
	}
}

// TestPipelinedReplayByteCeiling: a pipelined replay recycles its batch
// records, their marks arenas and the parse stage's state like a Switch
// recycles its registers, so a second RunWith of failure at two shards
// allocates its outcome vector (40 000 bytes), the collector, the profile
// and the pipeline's channels: about 50 000 bytes, less than the
// one-goroutine replay's 115 000, whose collector takes a batch of inputs
// and outputs per RunWith. Taking fresh records every replay costs about
// 700 000.
func TestPipelinedReplayByteCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply to -race builds")
	}
	ctx := context.Background()
	w, err := workloads.Get("failure")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareContext(ctx, p4.MustParse(w.Source), w.Config())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		spans := obs.NewCollector(0)
		if _, err := prep.Profiler().RunWith(obs.WithTracer(ctx, obs.NewTracer(spans)), trace, RunOptions{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		if !ranPipelined(spans) {
			t.Fatal("failure at two shards did not replay pipelined")
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("failure, %d packets, pipelined: %d bytes allocated by a second RunWith", len(trace.Packets), bytes)
	if bytes >= 96<<10 {
		t.Errorf("a second pipelined RunWith allocated %d bytes, want < 96 KiB: the batch records or their arenas are allocated per replay again", bytes)
	}
}
