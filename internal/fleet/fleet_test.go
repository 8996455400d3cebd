package fleet

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/report"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// testHooks wraps the real compiler and profiler with call counters — the
// same stand-in for the service artifact cache the core package's
// TestIncrementalRerunUsesCache uses, here counting across a whole fleet.
type testHooks struct {
	compiles atomic.Int64
	profiles atomic.Int64
}

func (h *testHooks) core() core.Options {
	return core.Options{
		Parallelism: 1,
		CompileHook: func(_ context.Context, ast *p4.Program, tgt tofino.Target) (*tofino.Result, error) {
			h.compiles.Add(1)
			return tofino.Compile(ast, tgt)
		},
		ProfileHook: func(ctx context.Context, ast *p4.Program, cfg *rt.Config, tr *trafficgen.Trace) (*profile.Profile, error) {
			h.profiles.Add(1)
			prep, err := profile.PrepareContext(ctx, ast, cfg)
			if err != nil {
				return nil, err
			}
			return prep.Profiler().RunWith(ctx, tr, profile.RunOptions{Shards: 1})
		},
	}
}

// mapCache is an in-memory DeviceCache.
type mapCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapCache() *mapCache { return &mapCache{m: map[string][]byte{}} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[key]
	return d, ok
}

func (c *mapCache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), data...)
}

func TestValidate(t *testing.T) {
	good := Synthetic("quickstart", 2, 1, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("synthetic spec invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no devices", func(s *Spec) { s.Devices = nil }, "no devices"},
		{"duplicate device", func(s *Spec) { s.Devices[1].Name = s.Devices[0].Name }, "duplicate"},
		{"unnamed device", func(s *Spec) { s.Devices[0].Name = "" }, "no name"},
		{"no program", func(s *Spec) { s.Devices[0].Workload = "" }, "neither a workload"},
		{"unknown workload", func(s *Spec) { s.Devices[0].Workload = "nope" }, "unknown workload"},
		{"no injections", func(s *Spec) { s.Injections = nil }, "no injections"},
		{"injection at unknown device", func(s *Spec) { s.Injections[0].Device = "ghost" }, "unknown device"},
		{"injection unknown workload", func(s *Spec) { s.Injections[0].Workload = "nope" }, "unknown workload"},
		{"negative count", func(s *Spec) { s.Injections[0].Count = -1 }, "negative count"},
		{"link unknown device", func(s *Spec) {
			s.Links = []LinkSpec{{From: HopSpec{Device: "ghost"}, To: HopSpec{Device: s.Devices[0].Name}}}
		}, "unknown device"},
		{"bad pass", func(s *Spec) { s.Passes = []string{"phase99"} }, "unknown pass"},
		{"negative parallelism", func(s *Spec) { s.DeviceParallelism = -1 }, "negative parallelism"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Synthetic("quickstart", 2, 1, 10)
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestFingerprintIgnoresParallelism(t *testing.T) {
	a := Synthetic("quickstart", 2, 1, 10)
	b := Synthetic("quickstart", 2, 1, 10)
	b.DeviceParallelism = 8
	b.Parallelism = 4
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on parallelism knobs; fan-out must not change the artifact key")
	}
	c := Synthetic("quickstart", 3, 1, 10)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprints collide across different fleets")
	}
	d := Synthetic("quickstart", 2, 1, 10)
	d.Injections[0].Seed = 99
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("fingerprint ignores injection seeds")
	}
}

// TestRunSyntheticAggregates: a homogeneous fleet optimizes every device
// against its own trace and the aggregate counts add up, with rows in
// spec order.
func TestRunSyntheticAggregates(t *testing.T) {
	spec := Synthetic("quickstart", 3, 1, 40)
	spec.DeviceParallelism = 2
	res, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "fleet" || res.Name != spec.Name {
		t.Errorf("kind/name = %q/%q", res.Kind, res.Name)
	}
	if res.DeviceCount != 3 || res.Optimized != 3 || res.Skipped != 0 || res.Failed != 0 {
		t.Fatalf("counts = %d/%d/%d/%d, want 3 optimized", res.DeviceCount, res.Optimized, res.Skipped, res.Failed)
	}
	if res.TotalPackets != 3*40 {
		t.Errorf("total packets = %d, want 120", res.TotalPackets)
	}
	// Quickstart is 2 stages with nothing to optimize.
	if res.StagesBefore != 6 || res.StagesAfter != 6 {
		t.Errorf("stages = %d -> %d, want 6 -> 6", res.StagesBefore, res.StagesAfter)
	}
	for i, row := range res.Devices {
		if row.Device != spec.Devices[i].Name {
			t.Errorf("row %d = %q, want spec order (%q)", i, row.Device, spec.Devices[i].Name)
		}
		if row.Status != report.FleetOptimized || row.Result == nil {
			t.Errorf("row %s: status %q, result %v", row.Device, row.Status, row.Result != nil)
		}
		if row.Packets != 40 {
			t.Errorf("row %s saw %d packets, want 40", row.Device, row.Packets)
		}
	}
	if res.DurationSeconds <= 0 {
		t.Error("duration not recorded")
	}
}

// TestFleetSharedCacheDedup is the tentpole acceptance check: a fleet of
// N devices running the same program issues strictly fewer compiles than
// N independent runs would — the shared AnalysisCache answers every
// device after the first.
func TestFleetSharedCacheDedup(t *testing.T) {
	const n = 4
	solo := &testHooks{}
	if _, err := Run(context.Background(), Synthetic("quickstart", 1, 1, 30),
		Options{Core: solo.core()}); err != nil {
		t.Fatal(err)
	}
	soloCompiles := solo.compiles.Load()
	if soloCompiles == 0 {
		t.Fatal("solo run issued no compiles; hooks not exercised")
	}

	fleet := &testHooks{}
	spec := Synthetic("quickstart", n, 1, 30)
	spec.DeviceParallelism = 1 // deterministic hook counts: no racing first-misses
	res, err := Run(context.Background(), spec, Options{Core: fleet.core()})
	if err != nil {
		t.Fatal(err)
	}
	fleetCompiles := fleet.compiles.Load()
	if fleetCompiles >= n*soloCompiles {
		t.Errorf("fleet of %d issued %d compiles, want strictly fewer than %d×%d=%d (shared cache not deduping)",
			n, fleetCompiles, n, soloCompiles, n*soloCompiles)
	}
	// Same program on every device: the fleet compiles exactly what one
	// device does, and the other n-1 devices hit.
	if fleetCompiles != soloCompiles {
		t.Errorf("fleet compiles = %d, want %d (one device's worth)", fleetCompiles, soloCompiles)
	}
	if res.CompileHits == 0 {
		t.Error("report shows zero cross-device compile cache hits")
	}
	if int64(res.CompileMisses) != fleetCompiles {
		t.Errorf("report compile misses = %d, hook saw %d", res.CompileMisses, fleetCompiles)
	}
}

// TestExternalAnalysisCacheAcrossFleets: an explicitly shared cache
// carries analyses across fleet jobs — the p2god-wide incremental story.
func TestExternalAnalysisCacheAcrossFleets(t *testing.T) {
	shared := core.NewAnalysisCache()
	hooks := &testHooks{}
	spec := Synthetic("quickstart", 2, 1, 30)
	spec.DeviceParallelism = 1
	opts := Options{Core: hooks.core()}
	opts.Core.AnalysisCache = shared
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	cold := hooks.compiles.Load()
	res, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm := hooks.compiles.Load() - cold; warm != 0 {
		t.Errorf("re-run of the same fleet recompiled %d times, want 0", warm)
	}
	if res.CompileMisses != 0 {
		t.Errorf("re-run reports %d compile misses, want 0", res.CompileMisses)
	}
	if res.Optimized != 2 {
		t.Errorf("re-run optimized %d devices, want 2", res.Optimized)
	}
}

// TestConcurrentDevicesDoNotDoubleMiss: the store under the analysis cache
// is single-flight, so devices of a homogeneous fleet racing on the same
// compile run it once — a fleet at DeviceParallelism 8 misses exactly what
// it misses one device at a time, and every other lookup is a hit.
func TestConcurrentDevicesDoNotDoubleMiss(t *testing.T) {
	run := func(deviceParallelism int) *report.FleetResult {
		t.Helper()
		// ex1 compiles take milliseconds: long enough that racing devices
		// would meet inside one.
		spec := Synthetic("ex1", 8, 1, 300)
		spec.DeviceParallelism = deviceParallelism
		res, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.CompileMisses == 0 {
		t.Fatal("sequential fleet reports no compile misses; counters not exercised")
	}
	if par.CompileMisses != seq.CompileMisses || par.CompileHits != seq.CompileHits {
		t.Errorf("compile lookups at DeviceParallelism 8 = %d hits / %d misses, at 1 = %d / %d",
			par.CompileHits, par.CompileMisses, seq.CompileHits, seq.CompileMisses)
	}
}

// TestConcurrentFleetsReportOwnLookups: two fleets running at once over
// one shared analysis cache each report the lookups of their own devices —
// the same totals they report running alone — not whatever the shared
// cache's counters moved by in the meantime.
func TestConcurrentFleetsReportOwnLookups(t *testing.T) {
	specs := []Spec{Synthetic("quickstart", 6, 1, 30), Synthetic("quickstart", 9, 2, 30)}
	lookups := func(r *report.FleetResult) [2]int {
		return [2]int{r.CompileHits + r.CompileMisses, r.ProfileHits + r.ProfileMisses}
	}
	var solo [2][2]int
	for i, spec := range specs {
		res, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = lookups(res)
	}

	opts := Options{Core: core.Options{Parallelism: 1, AnalysisCache: core.NewAnalysisCache()}}
	var (
		wg   sync.WaitGroup
		both [2]*report.FleetResult
		errs [2]error
	)
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			both[i], errs[i] = Run(context.Background(), spec, opts)
		}(i, spec)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := lookups(both[i]); got != solo[i] {
			t.Errorf("fleet %d reports %v compile/profile lookups beside a concurrent fleet, %v alone", i, got, solo[i])
		}
	}
}

// TestDeviceCacheServesRows: a second run with the same DeviceCache
// serves every row from cache without recomputing anything, and marks
// the rows cached.
func TestDeviceCacheServesRows(t *testing.T) {
	cache := newMapCache()
	hooks := &testHooks{}
	spec := Synthetic("quickstart", 2, 1, 30)
	first, err := Run(context.Background(), spec, Options{Core: hooks.core(), DeviceCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range first.Devices {
		if row.Cached {
			t.Errorf("cold run marked %s cached", row.Device)
		}
	}
	cold := hooks.compiles.Load()

	second, err := Run(context.Background(), spec, Options{Core: hooks.core(), DeviceCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm := hooks.compiles.Load() - cold; warm != 0 {
		t.Errorf("device-cached re-run still compiled %d times", warm)
	}
	for _, row := range second.Devices {
		if !row.Cached || row.Status != report.FleetOptimized || row.Result == nil {
			t.Errorf("row %s: cached=%v status=%q", row.Device, row.Cached, row.Status)
		}
	}
	if second.Optimized != first.Optimized || second.StagesAfter != first.StagesAfter {
		t.Errorf("cached aggregate diverged: %d/%d vs %d/%d",
			second.Optimized, second.StagesAfter, first.Optimized, first.StagesAfter)
	}
}

// TestRunRecordsSkipped: a device no traffic reaches lands in the result
// as a skipped row with a reason, not an error and not silently absent.
func TestRunRecordsSkipped(t *testing.T) {
	spec := Synthetic("quickstart", 2, 1, 20)
	spec.Devices = append(spec.Devices, DeviceSpec{Name: "idle", Workload: "quickstart"})
	res, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized != 2 || res.Skipped != 1 || res.Failed != 0 {
		t.Fatalf("counts = %d/%d/%d, want 2 optimized + 1 skipped", res.Optimized, res.Skipped, res.Failed)
	}
	var idle *report.FleetDevice
	for i := range res.Devices {
		if res.Devices[i].Device == "idle" {
			idle = &res.Devices[i]
		}
	}
	if idle == nil || idle.Status != report.FleetSkipped || idle.Reason == "" {
		t.Errorf("idle row = %+v, want skipped with a reason", idle)
	}
}

// TestRunAttributesDeviceFaults: an injected data-plane failure fails
// that device's row (with the error text naming it) while the rest of
// the fleet completes.
func TestRunAttributesDeviceFaults(t *testing.T) {
	spec := Synthetic("quickstart", 3, 1, 20)
	// Each device sees 20 events (its own packets, devices are
	// disconnected). Failing events 0..19 lands every failure on the
	// first device injected, sw-0000.
	set := faults.MustSet(faults.Spec{Point: faults.SimStep, From: 0, To: 20})
	res, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}, Faults: set})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Optimized != 2 {
		t.Fatalf("counts = %d failed / %d optimized, want 1/2", res.Failed, res.Optimized)
	}
	row := res.Devices[0]
	if row.Device != "sw-0000" || row.Status != report.FleetFailed {
		t.Fatalf("row 0 = %+v, want sw-0000 failed", row)
	}
	if !strings.Contains(row.Error, "sw-0000") {
		t.Errorf("error %q does not name the device", row.Error)
	}
}

// TestRunCanceledContext: cancellation is a fleet-level error, not n
// failed rows.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Synthetic("quickstart", 2, 1, 10), Options{Core: core.Options{Parallelism: 1}})
	if err == nil {
		t.Fatal("canceled fleet returned no error")
	}
}

// TestRunLinkedTopology: injections propagate across links, so a
// downstream device optimizes against the traffic its upstream forwarded.
func TestRunLinkedTopology(t *testing.T) {
	spec := Spec{
		Name: "linked",
		Devices: []DeviceSpec{
			{Name: "edge", Workload: "quickstart"},
			{Name: "downstream", Workload: "quickstart"},
		},
		// Quickstart routes 10/8 to port 1 (7 of every 10 trace packets);
		// wire that port onward.
		Links:      []LinkSpec{{From: HopSpec{Device: "edge", Port: 1}, To: HopSpec{Device: "downstream", Port: 1}}},
		Injections: []InjectionSpec{{Device: "edge", Workload: "quickstart", Seed: 1, Count: 50}},
	}
	res, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	edge, down := res.Devices[0], res.Devices[1]
	if edge.Packets != 50 {
		t.Errorf("edge saw %d packets, want all 50", edge.Packets)
	}
	if down.Status == report.FleetOptimized && (down.Packets == 0 || down.Packets >= 50) {
		t.Errorf("downstream saw %d packets, want a forwarded subset", down.Packets)
	}
	if down.Status == report.FleetSkipped && edge.Status != report.FleetOptimized {
		t.Errorf("unexpected statuses: edge %q downstream %q", edge.Status, down.Status)
	}
}

// TestRunEnterpriseTopology is the §6 demonstrator as a fleet job: the
// Ex. 1 edge firewall linked to a core router, the enterprise trace
// injected at the edge. The core optimizes against only what the edge
// forwarded, and the fleet goes from 8+1 to 3+1 stages.
func TestRunEnterpriseTopology(t *testing.T) {
	res, err := Run(context.Background(), Enterprise(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized != 2 {
		t.Fatalf("optimized %d devices, want 2: %+v", res.Optimized, res.Devices)
	}
	if res.StagesBefore != 8+1 || res.StagesAfter != 3+1 {
		t.Errorf("fleet stages %d -> %d, want 9 -> 4", res.StagesBefore, res.StagesAfter)
	}
	edge, corert := res.Devices[0], res.Devices[1]
	// The core sees everything but the firewall's drops (8% blocked UDP,
	// 14% rogue DHCP, 1% DNS limit).
	if edge.Packets != 20000 || corert.Packets != 20000-(1600+2800+200) {
		t.Errorf("packets seen: edge %d, core %d; want 20000 and 15400", edge.Packets, corert.Packets)
	}
	if len(edge.Result.OffloadedTables) == 0 {
		t.Error("edge device should offload the DNS branch")
	}
}

// TestDeviceTunesLikeOneJob: a fleet device whose schedule has the tune
// pass searches under its workload's accuracy table, exactly as a single
// optimize job of that workload on the device's trace does.
func TestDeviceTunesLikeOneJob(t *testing.T) {
	spec := Synthetic("maglev", 1, 1, 0)
	spec.Passes = []string{"tune", "phase2", "phase3", "phase4"}
	res, err := Run(context.Background(), spec, Options{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Devices[0]
	if row.Status != report.FleetOptimized {
		t.Fatalf("device row: %+v", row)
	}
	w, err := workloads.Get("maglev")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Packets != len(trace.Packets) {
		t.Fatalf("device saw %d packets, the workload trace has %d", row.Packets, len(trace.Packets))
	}
	want, err := core.Optimize(context.Background(), p4.MustParse(w.Source), w.Config(), trace, core.Options{Parallelism: 1, Passes: spec.Passes, TuneAccuracyTable: w.TuneAccuracyTable})
	if err != nil {
		t.Fatal(err)
	}
	if got := row.Result.Bindings; got != p4.FormatBindings(want.Bindings) {
		t.Errorf("fleet device bindings %q, single job %q", got, p4.FormatBindings(want.Bindings))
	}
}

// TestDeviceKeysStable pins device keys recorded before the hardware
// model's spelling moved into tofino.Target.Key: a moved key orphans every
// spilled "fleetdev:" row.
func TestDeviceKeysStable(t *testing.T) {
	dev := resolvedDevice{printed: "control ingress { }\n", rules: "table_add t a 1 => 2\n"}
	tr := trafficgen.QuickstartTrace(10, 1)
	passes := []string{"phase2", "phase3"}
	for _, g := range []struct {
		tgt  tofino.Target
		want string
	}{
		{tofino.DefaultTarget(), "0d77e803464800fa2d1a8064a3474af694d1b6cc3e96f81cfda7ff60ad9d0be7"},
		{tofino.Target{Stages: 7, StageSRAMBytes: 1000, StageTCAMBytes: 200, MaxTablesPerStage: 3, StageALUs: 5},
			"4e8bee36693e04e47126a13b6d8c1fcdb551afd7afc908df19ff697943d199ef"},
	} {
		if got := deviceKey(dev, tr, passes, core.Options{Target: g.tgt}); got != g.want {
			t.Errorf("deviceKey(target %s) = %s, want %s", g.tgt.Key(), got, g.want)
		}
	}
}
