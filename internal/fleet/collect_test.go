package fleet

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"p2go/internal/faults"
	"p2go/internal/network"
	"p2go/internal/programs"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// referenceCollect is trace collection as it was before components fanned
// out: every device's switch booted at the packet level, every injection
// walked on one goroutine in global order, each packet copied on entry and
// again into the trace. It returns the traces and the error texts.
func referenceCollect(t *testing.T, spec Spec, set *faults.Set) (map[string]*trafficgen.Trace, []string) {
	t.Helper()
	devices, _, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	injections, err := BuildInjections(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	switches := map[string]*sim.Switch{}
	traces := map[string]*trafficgen.Trace{}
	for _, d := range devices {
		sw, err := sim.NewFromAST(d.prog, d.cfg, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		switches[d.spec.Name] = sw
		traces[d.spec.Name] = &trafficgen.Trace{}
	}
	links := map[network.Hop]network.Hop{}
	for _, l := range spec.Links {
		links[network.Hop{Device: l.From.Device, Port: l.From.Port}] = network.Hop{Device: l.To.Device, Port: l.To.Port}
	}
	var errs []string
	fail := func(device string, i int, err error) {
		errs = append(errs, (&network.DeviceError{Device: device, Injection: i, Err: err}).Error())
	}
	for i, inj := range injections {
		cur, payload := inj.At, append([]byte(nil), inj.Data...)
		for hop := 0; ; hop++ {
			if hop >= 16 {
				fail(cur.Device, i, fmt.Errorf("packet exceeded %d hops (forwarding loop?)", 16))
				break
			}
			tr := traces[cur.Device]
			tr.Packets = append(tr.Packets, trafficgen.Packet{Port: cur.Port, Data: append([]byte(nil), payload...)})
			if err := set.Err(faults.SimStep); err != nil {
				fail(cur.Device, i, err)
				break
			}
			out, err := switches[cur.Device].Process(sim.Input{Port: cur.Port, Data: payload})
			if err != nil {
				fail(cur.Device, i, err)
				break
			}
			next, linked := links[network.Hop{Device: cur.Device, Port: out.Port}]
			if out.Dropped || out.ToCPU || !linked {
				break
			}
			cur, payload = next, out.Data
		}
	}
	return traces, errs
}

// collect is Run's front end: resolve, then collect on the run's pool.
func collect(t *testing.T, spec Spec, set *faults.Set) (map[string]*trafficgen.Trace, []*network.DeviceError) {
	t.Helper()
	_, topo, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo.SetFaults(set)
	topo.SetParallelism(spec.DeviceParallelism)
	injections, err := BuildInjections(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo.CollectDeviceTraces(injections)
}

// fleet64Spec is shaped like the benchmark's fleet-64 job: 64 disconnected
// devices, three natgre to one ex1, 400 packets of their own workload each.
func fleet64Spec() Spec {
	s := Spec{Name: "fleet-64"}
	for i := 0; i < 64; i++ {
		name, wl := fmt.Sprintf("sw-%02d", i), "natgre"
		if i%4 == 3 {
			wl = "ex1"
		}
		s.Devices = append(s.Devices, DeviceSpec{Name: name, Workload: wl})
		s.Injections = append(s.Injections, InjectionSpec{Device: name, Workload: wl, Seed: int64(100 + i), Count: 400})
	}
	return s
}

// erroringSpec has a device whose rules send 10/8 through a counter index
// past the array's end: every packet for 10/8 fails on it, the rest pass.
// It sits behind a linked edge and, on its own, in a component of its own.
func erroringSpec() Spec {
	bad := strings.Replace(programs.QuickstartRulesText, "10.0.0.0/8 => 1", "10.0.0.0/8 => 20", 1)
	return Spec{
		Name: "erroring",
		Devices: []DeviceSpec{
			{Name: "edge", Workload: "quickstart"},
			{Name: "bad", Workload: "quickstart", Rules: bad},
			{Name: "lone", Workload: "quickstart", Rules: bad},
			{Name: "fine", Workload: "natgre"},
		},
		Links: []LinkSpec{{From: HopSpec{Device: "edge", Port: 1}, To: HopSpec{Device: "bad", Port: 1}}},
		Injections: []InjectionSpec{
			{Device: "edge", Workload: "quickstart", Seed: 4, Count: 300},
			{Device: "lone", Workload: "quickstart", Seed: 5, Count: 200},
			{Device: "fine", Workload: "natgre", Seed: 6, Count: 200},
			{Device: "bad", Workload: "quickstart", Seed: 7, Count: 100},
		},
	}
}

// TestCollectMatchesReference: collecting per connected component, on fate
// plans where nothing forwards the output and on the run's pool, records
// byte-for-byte the traces the one-goroutine, packet-plan, global-order loop
// did, and the same device errors in the same order with the same text.
func TestCollectMatchesReference(t *testing.T) {
	type tc struct {
		spec   Spec
		faults []faults.Spec
	}
	var cases []tc
	for _, s := range frontEndSpecs() {
		cases = append(cases, tc{spec: s})
	}
	linked := frontEndSpecs()[3]
	linked.Name = "linked-faults"
	cases = append(cases,
		tc{spec: Enterprise(1)},
		tc{spec: fleet64Spec()},
		tc{spec: erroringSpec()},
		tc{spec: linked, faults: []faults.Spec{{Point: faults.SimStep, From: 40, To: 90}}},
		tc{spec: Synthetic("quickstart", 6, 41, 50), faults: []faults.Spec{{Point: faults.SimStep, Probability: 0.05, Seed: 3}}})
	for _, c := range cases {
		want, wantErrs := referenceCollect(t, c.spec, faults.MustSet(c.faults...))
		if c.spec.Name == "erroring" {
			if seen := len(want["bad"].Packets) + len(want["lone"].Packets); len(wantErrs) == 0 || len(wantErrs) >= seen {
				t.Fatalf("erroring: %d errors over %d packets, want some to fail and some to pass", len(wantErrs), seen)
			}
		}
		if len(c.faults) > 0 && len(wantErrs) == 0 {
			t.Fatalf("%s: the fault plan fired nothing", c.spec.Name)
		}
		for _, workers := range []int{1, 8} {
			spec := c.spec
			spec.DeviceParallelism = workers
			var set *faults.Set
			if len(c.faults) > 0 {
				set = faults.MustSet(c.faults...)
			}
			got, gotErrs := collect(t, spec, set)
			var errs []string
			for _, e := range gotErrs {
				errs = append(errs, e.Error())
			}
			if !slices.Equal(errs, wantErrs) {
				t.Errorf("%s, %d workers: errors\n  %v\nwant\n  %v", spec.Name, workers, errs, wantErrs)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d workers: %d traces, want %d", spec.Name, workers, len(got), len(want))
			}
			for name, w := range want {
				g := got[name]
				if g == nil || len(g.Packets) != len(w.Packets) {
					t.Fatalf("%s, %d workers: device %s trace differs in length", spec.Name, workers, name)
				}
				for i := range w.Packets {
					if g.Packets[i].Port != w.Packets[i].Port || !bytes.Equal(g.Packets[i].Data, w.Packets[i].Data) {
						t.Fatalf("%s, %d workers: device %s packet %d differs", spec.Name, workers, name, i)
					}
				}
			}
		}
	}
}

// TestCollectAllocBudget: trace collection for a fleet-64-shaped spec copies
// each recorded packet once and runs its fate plans out of their arenas.
// Measured 4.9 MB; the parent commit (two copies per packet, packet plans
// serializing every output) measured 12.2 MB, so the 8 MiB ceiling catches
// either coming back.
func TestCollectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply under -race")
	}
	const ceiling = 8 << 20
	spec := fleet64Spec()
	spec.DeviceParallelism = 1
	_, topo, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo.SetParallelism(1)
	inj, err := BuildInjections(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	topo.CollectDeviceTraces(inj) // fills the register free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errs := topo.CollectDeviceTraces(inj)
	runtime.ReadMemStats(&after)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("collection of %d injections allocated %d bytes", len(inj), got)
	if got > ceiling {
		t.Errorf("collection allocated %d bytes, ceiling %d", got, ceiling)
	}
}
