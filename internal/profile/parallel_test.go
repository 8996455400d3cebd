package profile

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// TestShardedReplayMatchesSequential is the merge-determinism property:
// for every bundled workload, shard count, and trace seed, the sharded
// replay's merged profile is Profile.Equal to the sequential replay.
// Stateful workloads exercise the sequential fallback through the same
// entry point.
func TestShardedReplayMatchesSequential(t *testing.T) {
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7} {
			trace, err := w.Trace(seed)
			if err != nil {
				t.Fatalf("%s: trace: %v", name, err)
			}
			prep, err := PrepareContext(context.Background(), p4.MustParse(w.Source), w.Config())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p := prep.Profiler()
			want, err := p.RunWith(context.Background(), trace, RunOptions{Shards: 1})
			if err != nil {
				t.Fatalf("%s: sequential: %v", name, err)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				got, err := p.RunWith(context.Background(), trace, RunOptions{Shards: shards})
				if err != nil {
					t.Fatalf("%s seed=%d shards=%d: %v", name, seed, shards, err)
				}
				if diff := want.Diff(got); diff != "" {
					t.Errorf("%s seed=%d shards=%d: sharded profile diverged: %s", name, seed, shards, diff)
				}
				if want.ToCPU != got.ToCPU || want.Drops != got.Drops {
					t.Errorf("%s seed=%d shards=%d: drops/to-cpu diverged: %d/%d vs %d/%d",
						name, seed, shards, want.Drops, want.ToCPU, got.Drops, got.ToCPU)
				}
				if !reflect.DeepEqual(want.Applied, got.Applied) {
					t.Errorf("%s seed=%d shards=%d: applied counts diverged", name, seed, shards)
				}
				if !reflect.DeepEqual(want.ActionCounts, got.ActionCounts) {
					t.Errorf("%s seed=%d shards=%d: action counts diverged", name, seed, shards)
				}
			}
		}
	}
}

// TestStatefulTablesPerWorkload pins the static fallback detection: the
// sketch/Bloom-filter workloads are stateful (their registers are read and
// written on the packet path), the rest shard freely.
func TestStatefulTablesPerWorkload(t *testing.T) {
	want := map[string][]string{
		"ex1":         {"Sketch_1", "Sketch_2"},
		"failure":     {"retrans_cms_1", "retrans_cms_2", "retrans_detect"},
		"l2l3_acl":    nil,
		"maglev":      {"lb_backend", "lb_sig"},
		"natgre":      nil,
		"quickstart":  nil,
		"sourceguard": {"sg_bf1", "sg_bf2"},
		"stress":      nil,
		"syncookie":   {"sc_check"},
	}
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepareContext(context.Background(), p4.MustParse(w.Source), w.Config())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		expect, known := want[name]
		if !known {
			t.Errorf("workload %s not covered by this test; add its expectation", name)
			continue
		}
		if got := prep.stateful; !reflect.DeepEqual(got, expect) {
			t.Errorf("%s: stateful tables = %v, want %v", name, got, expect)
		}
	}
}

// TestShardedReplaySpans checks which replay path actually ran: a
// stateless workload under >1 shards emits the sharded span, a stateful
// one emits the fallback span (naming its tables) and replays
// sequentially.
func TestShardedReplaySpans(t *testing.T) {
	replaySpans := func(name string, shards int) map[string]int {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector(0)
		ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
		prep, err := PrepareContext(ctx, p4.MustParse(w.Source), w.Config())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: shards}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		counts := map[string]int{}
		for _, s := range col.Spans() {
			counts[s.Name]++
		}
		return counts
	}
	if got := replaySpans("natgre", 4); got["sim.replay-sharded"] != 1 || got["sim.replay"] != 0 {
		t.Errorf("natgre at 4 shards: spans %v, want one sim.replay-sharded and no sim.replay", got)
	}
	if got := replaySpans("ex1", 4); got["sim.replay-fallback"] != 1 || got["sim.replay"] != 1 {
		t.Errorf("ex1 at 4 shards: spans %v, want sim.replay-fallback plus a sequential sim.replay", got)
	}
}

// TestRunWithCanceled: a replay under an already-canceled context returns
// context.Canceled at every shard count, including one shard and a
// stateful program, which is always replayed on one shard (pipelined at
// two).
func TestRunWithCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name   string
		shards int
	}{{"natgre", 1}, {"natgre", 2}, {"syncookie", 1}, {"syncookie", 2}} {
		w, err := workloads.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepareContext(context.Background(), p4.MustParse(w.Source), w.Config())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		prof, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: c.shards})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s at %d shards: err = %v, want context.Canceled", c.name, c.shards, err)
		}
		if prof != nil {
			t.Errorf("%s at %d shards: returned a profile of %d packets", c.name, c.shards, prof.TotalPackets)
		}
	}
}

// cancelAfter is a context canceled by the n-th call of its Err: the
// replay's own check between batches cancels it, in the middle of the
// trace.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	n      atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestPipelinedReplayCanceledMidway: canceling a pipelined replay part way
// through stops all three stages; RunWith returns context.Canceled and
// leaves no goroutine behind.
func TestPipelinedReplayCanceledMidway(t *testing.T) {
	w, err := workloads.Get("failure")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareContext(context.Background(), p4.MustParse(w.Source), w.Config())
	if err != nil {
		t.Fatal(err)
	}
	if batches := len(trace.Packets) / sim.ReplayBatchSize; batches < 20 {
		t.Fatalf("failure's trace has %d batches; the cancel needs more to land midway", batches)
	}
	before := runtime.NumGoroutine()
	for _, calls := range []int32{2, 5, 10, 20} {
		inner, cancel := context.WithCancel(context.Background())
		ctx := &cancelAfter{Context: inner, cancel: cancel}
		ctx.n.Store(calls)
		prof, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 2})
		cancel()
		if !errors.Is(err, context.Canceled) || prof != nil {
			t.Errorf("canceled at check %d: profile %v, err = %v, want context.Canceled", calls, prof != nil, err)
		}
		if after := settledGoroutines(before); after != before {
			t.Errorf("canceled at check %d: %d goroutines after the replay, %d before", calls, after, before)
		}
	}
}

// settledGoroutines returns the goroutine count once it is back to want, or
// after ten seconds: a goroutine that has signalled its caller still takes
// a moment to exit, but one blocked for good never does.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for n != want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPipelinedErrorIsTheSequentialOne: a pipelined replay reports the
// failure the one-goroutine loop reports — the first packet that fails in
// trace order, with the same text — even when the parser runs ahead into a
// later packet that fails to parse, in the same batch or a later one.
func TestPipelinedErrorIsTheSequentialOne(t *testing.T) {
	const source = `
header_type h_t { fields { a : 8; b : 8; } }
header_type m_t { fields { v : 16; } }
header h_t h;
metadata m_t m;
register r { width : 16; instance_count : 4; }
parser start { extract(h); return select(h.a) { 255 : spin; default : ingress; } }
parser spin { return select(h.a) { 255 : spin; default : ingress; } }
action bump() { register_read(m.v, r, h.b); add_to_field(m.v, 1); register_write(r, h.b, m.v); }
table t { actions { bump; } default_action : bump; }
control ingress { apply(t); }
`
	const parseErr, execErr = "sim: parser exceeded", "sim: action bump: register_read: index 9 out of range for r[4]"
	prep, err := PrepareContext(context.Background(), p4.MustParse(source), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.stateful) == 0 {
		t.Fatal("the test program is not stateful: its replays would not pipeline")
	}
	// trace is 3000 packets (six batches) that replay cleanly but for the
	// ones at badExec (a register index out of range) and badParse (a
	// parser loop).
	trace := func(badExec, badParse int) *trafficgen.Trace {
		tr := &trafficgen.Trace{}
		for i := range 3000 {
			data := []byte{1, byte(i % 4)}
			switch i {
			case badExec:
				data[1] = 9
			case badParse:
				data[0] = 255
			}
			tr.Packets = append(tr.Packets, trafficgen.Packet{Port: 1, Data: data})
		}
		return tr
	}
	for _, c := range []struct {
		name              string
		badExec, badParse int
		want              string
	}{
		{"parse error later in the batch", 1100, 1300, "profile: packet 1100: " + execErr},
		{"parse error in the next batch", 1100, 1600, "profile: packet 1100: " + execErr},
		{"parse error two batches on", 1100, 2100, "profile: packet 1100: " + execErr},
		{"parse error first", 1300, 1100, "profile: packet 1100: " + parseErr},
		{"parse error alone", -1, 2100, "profile: packet 2100: " + parseErr},
	} {
		tr := trace(c.badExec, c.badParse)
		var got [2]string
		for i, shards := range []int{1, 2} {
			_, err := prep.Profiler().RunWith(context.Background(), tr, RunOptions{Shards: shards})
			if err == nil {
				t.Fatalf("%s at %d shards: the replay succeeded", c.name, shards)
			}
			got[i] = err.Error()
		}
		if got[0] != got[1] {
			t.Errorf("%s: sequential error %q, pipelined %q", c.name, got[0], got[1])
		}
		if !strings.HasPrefix(got[1], c.want) {
			t.Errorf("%s: error %q, want %q", c.name, got[1], c.want)
		}
	}
}

func TestMergeProfiles(t *testing.T) {
	a := &Profile{
		TotalPackets: 3,
		Hits:         map[string]int{"t1": 2},
		Applied:      map[string]int{"t1": 3},
		ActionCounts: map[string]int{"t1.a": 2, "t1.miss": 1},
		Sets:         map[string]int{"t1.a": 2, "t1.miss!miss": 1},
		Drops:        1,
	}
	b := &Profile{
		TotalPackets: 2,
		Hits:         map[string]int{"t1": 1, "t2": 1},
		Applied:      map[string]int{"t1": 2, "t2": 1},
		ActionCounts: map[string]int{"t1.a": 1, "t2.b": 1},
		Sets:         map[string]int{"t1.a": 1, "t1.a|t2.b": 1},
		ToCPU:        1,
	}
	got := MergeProfiles(a, nil, b)
	want := &Profile{
		TotalPackets: 5,
		Hits:         map[string]int{"t1": 3, "t2": 1},
		Applied:      map[string]int{"t1": 5, "t2": 1},
		ActionCounts: map[string]int{"t1.a": 3, "t1.miss": 1, "t2.b": 1},
		Sets:         map[string]int{"t1.a": 3, "t1.miss!miss": 1, "t1.a|t2.b": 1},
		Drops:        1,
		ToCPU:        1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeProfiles = %+v, want %+v", got, want)
	}
	empty := MergeProfiles()
	if empty.TotalPackets != 0 || len(empty.Sets) != 0 {
		t.Errorf("MergeProfiles() = %+v, want empty", empty)
	}
}

// TestShardedReplayScalesWithCores asserts the wall-clock point of the
// engine: on a machine with at least 4 CPUs, 4-shard replay of a
// register-free workload is at least 1.5x the sequential throughput (the
// work is embarrassingly parallel, so 4 real cores comfortably clear a
// 1.5x floor even under scheduler noise). On fewer cores the shards
// time-slice and no speedup is possible, so the test skips — merge
// *correctness* is covered unconditionally above; this guards the
// *performance* claim where it can hold.
func TestShardedReplayScalesWithCores(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short mode")
	}
	if cpus := runtime.GOMAXPROCS(0); cpus < 4 {
		t.Skipf("needs >=4 CPUs for a parallel speedup, have %d", cpus)
	}
	w, err := workloads.Get("natgre")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareContext(context.Background(), p4.MustParse(w.Source), w.Config())
	if err != nil {
		t.Fatal(err)
	}
	p := prep.Profiler()
	replay := func(shards int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ { // best-of-3 damps scheduler noise
			start := time.Now()
			if _, err := p.RunWith(context.Background(), trace, RunOptions{Shards: shards}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	seq, par := replay(1), replay(4)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, 4 shards %v, speedup %.2fx", seq, par, speedup)
	if speedup < 1.5 {
		t.Errorf("4-shard replay speedup %.2fx, want >= 1.5x", speedup)
	}
}

func BenchmarkSetKey(b *testing.B) {
	entries := []string{"acl_udp.drop", "ipv4_fwd.set_egr", "acl_dhcp.nop!miss"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SetKey(entries)
	}
}
