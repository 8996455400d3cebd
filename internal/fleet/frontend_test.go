package fleet

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"p2go/internal/core"
	"p2go/internal/network"
	"p2go/internal/p4"
	"p2go/internal/report"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/workloads"
)

// referenceInjections is how injections were built before generation was
// bounded: the workload's whole trace, then cut to Count.
func referenceInjections(t *testing.T, spec Spec) []network.Injection {
	t.Helper()
	var out []network.Injection
	for _, inj := range spec.Injections {
		w, err := workloads.Get(inj.Workload)
		if err != nil {
			t.Fatal(err)
		}
		traceSeed := inj.Seed
		if traceSeed == 0 {
			traceSeed = 1
		}
		whole, err := w.Trace(traceSeed)
		if err != nil {
			t.Fatal(err)
		}
		pkts := whole.Packets
		if inj.Count > 0 && inj.Count < len(pkts) {
			pkts = pkts[:inj.Count]
		}
		for _, pkt := range pkts {
			out = append(out, network.Injection{At: network.Hop{Device: inj.Device, Port: pkt.Port}, Data: pkt.Data})
		}
	}
	return out
}

// referenceRun is the fleet front end as it was before PR 15 — every device
// parsed, printed and formatted on its own, every injection generated whole —
// in front of the same per-device back end (runDevice) Run uses.
func referenceRun(t *testing.T, spec Spec, opts Options) *report.FleetResult {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := network.NewTopology()
	var devices []resolvedDevice
	for _, d := range spec.Devices {
		src := d.Program
		var cfg *rt.Config
		if d.Workload != "" {
			w, err := workloads.Get(d.Workload)
			if err != nil {
				t.Fatal(err)
			}
			if src == "" {
				src = w.Source
			}
			cfg = w.Config()
		}
		if d.Rules != "" {
			parsed, err := rt.Parse(d.Rules)
			if err != nil {
				t.Fatal(err)
			}
			cfg = parsed
		}
		prog, err := p4.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.AddDevice(d.Name, prog, cfg); err != nil {
			t.Fatal(err)
		}
		rules := ""
		if cfg != nil {
			rules = rt.Format(cfg)
		}
		devices = append(devices, resolvedDevice{spec: d, prog: prog, cfg: cfg, printed: p4.Print(prog), rules: rules})
	}
	for _, l := range spec.Links {
		if err := topo.Link(network.Hop{Device: l.From.Device, Port: l.From.Port},
			network.Hop{Device: l.To.Device, Port: l.To.Port}); err != nil {
			t.Fatal(err)
		}
	}
	traces, devErrs := topo.CollectDeviceTraces(referenceInjections(t, spec))
	if len(devErrs) > 0 {
		t.Fatal(devErrs[0])
	}
	opts.Core.AnalysisCache = core.NewAnalysisCache()
	var rows []report.FleetDevice
	for _, dev := range devices {
		row, err := runDevice(context.Background(), spec, opts, dev, traces[dev.spec.Name], nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return report.AggregateFleet(spec.Name, rows)
}

// frontEndSpecs are the shapes the front end must not change the answer
// on: homogeneous fleets of three workloads, a linked pair (the downstream
// device's trace is what the edge forwarded, so injection order matters), a
// fleet mixing a workload's own rules with inline ones, and uncapped and
// over-long counts.
func frontEndSpecs() []Spec {
	linked := Spec{
		Name: "linked",
		Devices: []DeviceSpec{
			{Name: "edge", Workload: "quickstart"},
			{Name: "downstream", Workload: "quickstart"},
		},
		Links: []LinkSpec{{From: HopSpec{Device: "edge", Port: 1}, To: HopSpec{Device: "downstream", Port: 1}}},
		Injections: []InjectionSpec{
			{Device: "edge", Workload: "quickstart", Seed: 1, Count: 50},
			{Device: "downstream", Workload: "natgre", Seed: 2, Count: 30},
			{Device: "edge", Workload: "quickstart", Seed: 3, Count: 5000},
		},
	}
	qs, _ := workloads.Get("quickstart")
	mixed := Synthetic("quickstart", 4, 9, 60)
	mixed.Name = "mixed-rules"
	mixed.Devices[1].Rules = rt.Format(qs.Config())
	mixed.Devices[2].Rules = mixed.Devices[1].Rules
	mixed.Devices[3].Program = qs.Source
	mixed.Injections[3].Count = 0
	return []Spec{
		Synthetic("ex1", 8, 11, 400),
		Synthetic("natgre", 8, 21, 400),
		Synthetic("quickstart", 8, 31, 400),
		linked,
		mixed,
	}
}

// TestFrontEndMatchesReference: bounded generation and resolve-once give the
// fleet the same packets and the same canonical program/rules text as the
// old front end did, so the result is FleetEquivalent and every device key
// is unchanged — a DeviceCache filled by the old front end (a spill
// directory written by an earlier commit) serves every row of the new one.
func TestFrontEndMatchesReference(t *testing.T) {
	for _, spec := range frontEndSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			opts := Options{Core: core.Options{Parallelism: 1}, DeviceCache: newMapCache()}
			want := referenceRun(t, spec, opts)

			cold, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if diffs := report.FleetEquivalent(want, cold); len(diffs) > 0 {
				t.Fatalf("not equivalent to the reference front end:\n  %s", strings.Join(diffs, "\n  "))
			}

			served, err := Run(context.Background(), spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range served.Devices {
				if row.Status == report.FleetOptimized && !row.Cached {
					t.Errorf("device %s: key moved, the reference's cached row was not served", row.Device)
				}
			}
			if diffs := report.FleetEquivalent(want, served); len(diffs) > 0 {
				t.Errorf("cache-served result differs:\n  %s", strings.Join(diffs, "\n  "))
			}
		})
	}
}

// TestBuildInjectionsOrder: the injection sequence is the reference's,
// packet for packet, whatever pool width generated it.
func TestBuildInjectionsOrder(t *testing.T) {
	for _, spec := range frontEndSpecs() {
		want := referenceInjections(t, spec)
		for _, workers := range []int{1, 8} {
			spec.DeviceParallelism = workers
			got, err := BuildInjections(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d workers: %d injections, want %d", spec.Name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].At != want[i].At || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("%s, %d workers: injection %d differs from the reference", spec.Name, workers, i)
				}
			}
		}
	}
}

// TestResolveSharesDistinctPrograms: devices with the same (source, rules)
// pair share one parsed program and one execution plan per observation
// level; devices with different rules do not; every device has a config of
// its own.
func TestResolveSharesDistinctPrograms(t *testing.T) {
	spec := frontEndSpecs()[4] // sw-0: workload rules; sw-1, sw-2: the same inline rules; sw-3: inline program
	devs, topo, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if devs[1].prog != devs[2].prog || devs[0].prog != devs[3].prog {
		t.Error("devices with one (source, rules) pair were parsed separately")
	}
	if devs[0].prog == devs[1].prog {
		t.Error("devices with different rules share a resolved entry")
	}
	plan := topo.Plan
	if plan("sw-0000") != plan("sw-0003") || plan("sw-0001") != plan("sw-0002") || plan("sw-0000") == plan("sw-0001") {
		t.Error("plans are not one per distinct (source, rules) pair")
	}
	for _, d := range devs {
		if level := plan(d.spec.Name).Lowering().Observe; level != sim.ObserveFate {
			t.Errorf("unlinked device %s runs at the %s level, want fate", d.spec.Name, level)
		}
	}

	// One pair at two levels: the edge forwards whole packets, while the
	// downstream device, which no link leaves, observes fates.
	_, linked, err := resolve(frontEndSpecs()[3])
	if err != nil {
		t.Fatal(err)
	}
	edge, down := linked.Plan("edge"), linked.Plan("downstream")
	if edge.Lowering().Observe != sim.ObservePacket || down.Lowering().Observe != sim.ObserveFate {
		t.Errorf("edge at %s, downstream at %s; want packet and fate", edge.Lowering().Observe, down.Lowering().Observe)
	}
	// 64 devices of two workloads lower two plans.
	_, wide, err := resolve(fleet64Spec())
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[*sim.Plan]bool{}
	for i := 0; i < 64; i++ {
		distinct[wide.Plan(fmt.Sprintf("sw-%02d", i))] = true
	}
	if len(distinct) != 2 || distinct[nil] {
		t.Errorf("fleet-64 shape: %d distinct plans, want 2", len(distinct))
	}
	for i, a := range devs {
		for _, b := range devs[i+1:] {
			if a.cfg == b.cfg {
				t.Errorf("devices %s and %s share a config", a.spec.Name, b.spec.Name)
			}
		}
		if a.printed != devs[0].printed || a.rules != devs[0].rules {
			t.Errorf("device %s: canonical text differs", a.spec.Name)
		}
	}
}

// allocBudgetSpec is 64 quickstart injections of 40 packets each.
func allocBudgetSpec() Spec {
	s := Synthetic("quickstart", 64, 1, 40)
	s.DeviceParallelism = 1
	return s
}

// TestBuildInjectionsAllocBudget: building 64 x 40 injections allocates for
// 2 560 packets, not for the 64 000 a whole quickstart trace per injection
// comes to. Measured 0.72 MB; the parent commit (whole traces, then cut)
// measured 23.7 MB, so the 1 MiB ceiling catches generate-then-discard
// coming back with room to spare on either side.
func TestBuildInjectionsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	const ceiling = 1 << 20
	spec := allocBudgetSpec()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inj, err := BuildInjections(context.Background(), spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj) != 64*40 {
		t.Fatalf("%d injections, want %d", len(inj), 64*40)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("BuildInjections allocated %d bytes for %d packets, ceiling %d", got, len(inj), ceiling)
	}
}

// TestValidateRefusesOversizedFleets: a spec that fits the daemon's 8 MiB
// request cap can still name far more traffic than a job should hold; it is
// refused on its counts, before a packet is generated.
func TestValidateRefusesOversizedFleets(t *testing.T) {
	huge := Spec{Devices: []DeviceSpec{{Name: "sw", Workload: "ex1"}}}
	for i := 0; i < 100000; i++ {
		huge.Injections = append(huge.Injections, InjectionSpec{Device: "sw", Workload: "ex1", Seed: int64(i + 1)})
	}
	overBudget := Spec{Devices: []DeviceSpec{{Name: "sw", Workload: "ex1"}}}
	for i := 0; i < 1000; i++ { // 1000 whole ex1 traces: 20M packets
		overBudget.Injections = append(overBudget.Injections, InjectionSpec{Device: "sw", Workload: "ex1", Seed: int64(i + 1), Count: 1 << 30})
	}
	manyDevices := Synthetic("quickstart", maxFleetDevices+1, 1, 1)
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"100k full-trace injections", huge, "injections, at most"},
		{"packet budget", overBudget, "packets, at most"},
		{"devices", manyDevices, "devices, at most"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(context.Background(), tc.spec, Options{})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > 4<<20 {
			t.Errorf("%s: refusing allocated %d bytes; something was generated first", tc.name, got)
		}
	}
	// The largest fleets the repo runs stay legal: 512 devices, and whole
	// traces for a 64-device fleet of the longest workload.
	for _, ok := range []Spec{Synthetic("quickstart", 512, 1, 400), Synthetic("ex1", 64, 1, 0)} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%s: %v", ok.Name, err)
		}
	}
}

var benchInjections []network.Injection

// BenchmarkBuildInjections is the fleet-64 front end: 64 injections (48
// natgre, 16 ex1) of 400 packets each, one worker.
func BenchmarkBuildInjections(b *testing.B) {
	spec := Spec{DeviceParallelism: 1}
	for i := 0; i < 64; i++ {
		wl := "natgre"
		if i%4 == 3 {
			wl = "ex1"
		}
		name := fmt.Sprintf("sw-%02d", i)
		spec.Devices = append(spec.Devices, DeviceSpec{Name: name, Workload: wl})
		spec.Injections = append(spec.Injections, InjectionSpec{Device: name, Workload: wl, Seed: int64(i + 1), Count: 400})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj, err := BuildInjections(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		benchInjections = inj
	}
}
