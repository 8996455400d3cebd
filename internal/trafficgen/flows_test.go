package trafficgen_test

import (
	"reflect"
	"sync"
	"testing"

	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// stringKeyedDedup is the string-keyed map dedup the flow index replaced
// (internal/profile's dedupPackets), kept as the reference: first trace
// index and multiplicity of every distinct (port, frame), in
// first-occurrence order.
func stringKeyedDedup(packets []trafficgen.Packet) (first, weights []int) {
	idx := map[string]int{}
	var buf []byte
	for i := range packets {
		pkt := &packets[i]
		buf = append(buf[:0],
			byte(pkt.Port>>56), byte(pkt.Port>>48), byte(pkt.Port>>40), byte(pkt.Port>>32),
			byte(pkt.Port>>24), byte(pkt.Port>>16), byte(pkt.Port>>8), byte(pkt.Port))
		buf = append(buf, pkt.Data...)
		if j, ok := idx[string(buf)]; ok {
			weights[j]++
			continue
		}
		idx[string(buf)] = len(first)
		first = append(first, i)
		weights = append(weights, 1)
	}
	return first, weights
}

func sameFlows(t *testing.T, label string, got *trafficgen.Flows, packets []trafficgen.Packet) {
	t.Helper()
	first, weights := stringKeyedDedup(packets)
	if !reflect.DeepEqual(got.First, first) {
		t.Errorf("%s: first indices differ from the string-keyed reference (%d flows vs %d)", label, len(got.First), len(first))
	}
	if !reflect.DeepEqual(got.Weights, weights) {
		t.Errorf("%s: weights differ from the string-keyed reference", label)
	}
}

// testTraces is every registered workload's default trace plus the shapes
// that stress the index: heavy duplication, nothing but duplicates, nothing.
func testTraces(t *testing.T) map[string]*trafficgen.Trace {
	t.Helper()
	traces := map[string]*trafficgen.Trace{
		"zipf":  trafficgen.ZipfTCPTrace(trafficgen.ZipfSpec{Total: 5000, Seed: 3}),
		"empty": {},
	}
	dup := &trafficgen.Trace{}
	for i := 0; i < 300; i++ {
		dup.Packets = append(dup.Packets, trafficgen.Packet{Port: 7, Data: []byte{1, 2, 3, 4}})
	}
	traces["all-duplicates"] = dup
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if traces[name], err = w.Trace(1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return traces
}

func TestFlowsMatchesStringKeyedDedup(t *testing.T) {
	for name, trace := range testTraces(t) {
		sameFlows(t, name, trace.Flows(), trace.Packets)
	}
}

// With a constant hash every probe starts at the same slot, so telling
// flows apart rests on the byte comparison alone. The same port with
// different bytes, and the same bytes on different ports, are different
// flows.
func TestFlowsExactUnderHashCollisions(t *testing.T) {
	trace := trafficgen.ZipfTCPTrace(trafficgen.ZipfSpec{Total: 600, Flows: 40, Seed: 5})
	for i := 0; i < 40; i++ {
		pkt := trace.Packets[i]
		pkt.Port++
		trace.Packets = append(trace.Packets, pkt)
	}
	got := trafficgen.BuildFlows(trace.Packets, func(*trafficgen.Packet) uint64 { return 42 })
	sameFlows(t, "constant hash", got, trace.Packets)
	if len(got.First) < 2 {
		t.Fatalf("%d flows: the trace does not exercise collisions", len(got.First))
	}
}

// The memo follows Packets: after an append, a truncation or a re-slice a
// Trace answers like a fresh Trace over the same packets, never with what
// it computed before.
func TestTraceMemoFollowsPackets(t *testing.T) {
	base := trafficgen.ZipfTCPTrace(trafficgen.ZipfSpec{Total: 2000, Flows: 50, Seed: 9})
	extra := trafficgen.Packet{Port: 99, Data: []byte("not a flow seen before")}
	edits := map[string]func(tr *trafficgen.Trace){
		"append":            func(tr *trafficgen.Trace) { tr.Packets = append(tr.Packets, extra) },
		"append-in-place":   func(tr *trafficgen.Trace) { tr.Packets = append(tr.Packets[:1500], extra) },
		"truncate":          func(tr *trafficgen.Trace) { tr.Packets = tr.Packets[:700] },
		"re-slice":          func(tr *trafficgen.Trace) { tr.Packets = tr.Packets[1:] },
		"re-slice-same-len": func(tr *trafficgen.Trace) { tr.Packets = append(tr.Packets[1:], extra) },
		"empty":             func(tr *trafficgen.Trace) { tr.Packets = nil },
	}
	for name, edit := range edits {
		tr := &trafficgen.Trace{Packets: append(make([]trafficgen.Packet, 0, 4000), base.Packets...)}
		before, _ := tr.Digest(), tr.Flows()
		edit(tr)
		fresh := &trafficgen.Trace{Packets: append([]trafficgen.Packet(nil), tr.Packets...)}
		if got, want := tr.Digest(), fresh.Digest(); got != want {
			t.Errorf("%s: digest %s, a fresh trace over the same packets has %s", name, got, want)
		}
		if tr.Digest() == before {
			t.Errorf("%s: digest did not move", name)
		}
		if got, want := tr.Flows(), fresh.Flows(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stale flow index", name)
		}
		sameFlows(t, name, tr.Flows(), tr.Packets)
	}
}

func TestTraceMemoComputesOnce(t *testing.T) {
	trace := trafficgen.ZipfTCPTrace(trafficgen.ZipfSpec{Total: 2000, Seed: 1})
	want := (&trafficgen.Trace{Packets: trace.Packets}).Digest()
	if trace.Digest() != want {
		t.Fatal("memoized digest differs from a fresh one")
	}
	if n := testing.AllocsPerRun(10, func() { _ = trace.Digest() }); n != 0 {
		t.Errorf("a repeated Digest allocates %v times, want 0", n)
	}
	flows := trace.Flows()
	if n := testing.AllocsPerRun(10, func() { _ = trace.Flows() }); n != 0 {
		t.Errorf("a repeated Flows allocates %v times, want 0", n)
	}
	if trace.Flows() != flows {
		t.Error("a repeated Flows rebuilt the index")
	}
}

// Digest and Flows are safe to call from many goroutines at once (run
// under -race), and all of them get the one answer.
func TestTraceMemoConcurrent(t *testing.T) {
	trace := trafficgen.ZipfTCPTrace(trafficgen.ZipfSpec{Total: 4000, Seed: 2})
	want := (&trafficgen.Trace{Packets: trace.Packets}).Digest()
	digests := make([]string, 8)
	flows := make([]*trafficgen.Flows, 8)
	var wg sync.WaitGroup
	for g := range digests {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				digests[g], flows[g] = trace.Digest(), trace.Flows()
			} else {
				flows[g], digests[g] = trace.Flows(), trace.Digest()
			}
		}(g)
	}
	wg.Wait()
	for g := range digests {
		if digests[g] != want {
			t.Errorf("goroutine %d: digest %s, want %s", g, digests[g], want)
		}
		if flows[g] != flows[0] {
			t.Errorf("goroutine %d got a flow index of its own", g)
		}
	}
	sameFlows(t, "concurrent", flows[0], trace.Packets)
}
