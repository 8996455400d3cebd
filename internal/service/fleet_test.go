package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2go/internal/faults"
	"p2go/internal/fleet"
	"p2go/internal/report"
)

func postFleet(t *testing.T, base string, spec fleet.Spec) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/fleets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp
}

func awaitFleet(t *testing.T, m *Manager, id string) *report.FleetResult {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id, true)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.Terminal() {
			if st.State != StateDone {
				t.Fatalf("fleet job ended %s: %s", st.State, st.Error)
			}
			var res report.FleetResult
			if err := json.Unmarshal(st.Result, &res); err != nil {
				t.Fatalf("fleet result JSON: %v", err)
			}
			return &res
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("fleet job %s never finished", id)
	return nil
}

// TestServeFleetEndToEnd is the fleet acceptance criterion: POST /fleets
// with a topology where one device gets traffic and one does not returns
// an aggregated fleet report carrying per-device optimized and skipped
// rows, visible through GET /fleets and counted in the fleet metric
// families.
func TestServeFleetEndToEnd(t *testing.T) {
	srv, m := newTestServer(t, ManagerConfig{Workers: 2, QueueDepth: 8})

	spec := fleet.Synthetic("quickstart", 2, 1, 30)
	spec.Devices = append(spec.Devices, fleet.DeviceSpec{Name: "idle", Workload: "quickstart"})
	st, resp := postFleet(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if st.Kind != "fleet" || st.Workload != spec.Name {
		t.Fatalf("submit status = %+v, want kind fleet named %q", st, spec.Name)
	}

	res := awaitFleet(t, m, st.ID)
	if res.Kind != "fleet" || res.DeviceCount != 3 {
		t.Fatalf("result = kind %q, %d devices; want a 3-device fleet", res.Kind, res.DeviceCount)
	}
	if res.Optimized != 2 || res.Skipped != 1 || res.Failed != 0 {
		t.Fatalf("counts = %d/%d/%d, want 2 optimized + 1 skipped", res.Optimized, res.Skipped, res.Failed)
	}
	for _, row := range res.Devices {
		switch row.Device {
		case "idle":
			if row.Status != report.FleetSkipped || row.Reason == "" {
				t.Errorf("idle row = %+v, want skipped with a reason", row)
			}
		default:
			if row.Status != report.FleetOptimized || row.Result == nil || row.Packets != 30 {
				t.Errorf("row %s = status %q, packets %d", row.Device, row.Status, row.Packets)
			}
		}
	}
	if res.StagesBefore != 4 || res.StagesAfter != 4 {
		t.Errorf("fleet stages = %d -> %d, want 4 -> 4 (two 2-stage quickstarts)", res.StagesBefore, res.StagesAfter)
	}
	// The report is the one surface for how much the fleet deduped.
	if res.CompileHits == 0 {
		t.Error("homogeneous fleet reports zero cross-device compile cache hits")
	}
	if res.CompileMisses == 0 || res.ProfileMisses == 0 {
		t.Errorf("cold fleet reports %d compile / %d profile misses, want both > 0",
			res.CompileMisses, res.ProfileMisses)
	}

	// The fleet listing shows the job; the generic job listing does too.
	body := getBody(t, srv.URL+"/fleets")
	if !strings.Contains(body, st.ID) {
		t.Errorf("GET /fleets lacks %s: %s", st.ID, body)
	}
	var served struct {
		Result struct {
			Kind string `json:"kind"`
		} `json:"result"`
	}
	fleetBody := getBody(t, srv.URL+"/fleets/"+st.ID)
	if err := json.Unmarshal([]byte(fleetBody), &served); err != nil || served.Result.Kind != "fleet" {
		t.Errorf("GET /fleets/%s lacks the fleet result (%v)", st.ID, err)
	}

	metrics := getBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		"p2god_fleet_jobs_total 1",
		`p2god_fleet_devices_total{status="optimized"} 2`,
		`p2god_fleet_devices_total{status="skipped"} 1`,
		"p2god_fleet_device_fanout",
		"p2god_fleet_job_duration_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics lack %q:\n%s", want, grepLines(metrics, "p2god_fleet"))
		}
	}
	if strings.Contains(metrics, "cross_device") {
		t.Errorf("metrics still export a second copy of the report's cache counters:\n%s",
			grepLines(metrics, "cross_device"))
	}

	// An identical resubmission completes via the job artifact cache.
	st2, _ := postFleet(t, srv.URL, spec)
	final2, _ := m.Get(st2.ID, true)
	deadline := time.Now().Add(30 * time.Second)
	for !final2.State.Terminal() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		final2, _ = m.Get(st2.ID, true)
	}
	if final2.State != StateDone || !final2.Cached {
		t.Errorf("identical fleet resubmission: state %s cached %v, want done from cache", final2.State, final2.Cached)
	}
}

func TestServeFleetBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 2})

	_, resp := postFleet(t, srv.URL, fleet.Spec{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty fleet spec: %s, want 400", resp.Status)
	}
	// A fleet payload on the plain job endpoint must name its kind.
	spec := fleet.Synthetic("quickstart", 1, 1, 10)
	st, resp := postJob(t, srv.URL, JobSpec{Kind: "optimize", Fleet: &spec})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fleet spec on an optimize job: %s (%+v), want 400", resp.Status, st)
	}
	r, err := http.Get(srv.URL + "/fleets/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fleet job: %s, want 404", r.Status)
	}
}

// TestServeFleetDeviceFaultAttribution: a data-plane fault during trace
// collection fails exactly the affected device's row; the fleet job
// itself still completes with the healthy devices optimized.
func TestServeFleetDeviceFaultAttribution(t *testing.T) {
	set := faults.MustSet(faults.Spec{Point: faults.SimStep, From: 0, To: 20})
	srv, m := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 4, Faults: set})

	spec := fleet.Synthetic("quickstart", 3, 1, 20)
	st, _ := postFleet(t, srv.URL, spec)
	res := awaitFleet(t, m, st.ID)
	if res.Failed != 1 || res.Optimized != 2 {
		t.Fatalf("counts = %d failed / %d optimized, want 1/2", res.Failed, res.Optimized)
	}
	if row := res.Devices[0]; row.Device != "sw-0000" || row.Status != report.FleetFailed || !strings.Contains(row.Error, "sw-0000") {
		t.Errorf("row 0 = %+v, want sw-0000 failed with an attributed error", row)
	}
	metrics := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, `p2god_fleet_devices_total{status="failed"} 1`) {
		t.Errorf("metrics lack the failed device row:\n%s", grepLines(metrics, "p2god_fleet_devices"))
	}
}

// TestFleetCrossJobAnalysisCache: the daemon-wide analysis cache carries
// compiles across separate fleet jobs — a second fleet of the same
// program (different traffic, so a different job digest) recompiles
// nothing.
func TestFleetCrossJobAnalysisCache(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.Start()
	t.Cleanup(func() { m.Drain(5 * time.Second) })

	first, err := m.Submit(JobSpec{Kind: "fleet", Fleet: specPtr(fleet.Synthetic("quickstart", 2, 1, 30))})
	if err != nil {
		t.Fatal(err)
	}
	res1 := awaitFleet(t, m, first.ID)
	if res1.CompileMisses == 0 {
		t.Fatal("first fleet compiled nothing; cache counters broken")
	}

	second, err := m.Submit(JobSpec{Kind: "fleet", Fleet: specPtr(fleet.Synthetic("quickstart", 2, 77, 30))})
	if err != nil {
		t.Fatal(err)
	}
	res2 := awaitFleet(t, m, second.ID)
	if res2.CompileMisses != 0 {
		t.Errorf("second fleet of the same program recompiled %d times, want 0 (daemon-wide analysis cache)", res2.CompileMisses)
	}
	if res2.CompileHits == 0 {
		t.Error("second fleet reports no compile hits")
	}
	// Different seeds mean different traces: profiles are new work.
	if res2.ProfileMisses == 0 {
		t.Error("second fleet with different traffic should re-profile")
	}
}

func specPtr(s fleet.Spec) *fleet.Spec { return &s }

// deviceRowKey extracts the fields of a device row that are deterministic
// across runs (timings and cache provenance are not).
type deviceRowKey struct {
	Device, Status, Reason, Error string
	Packets                       int
	StagesBefore, StagesAfter     int
	OptimizedP4                   string
}

func rowKeys(t testing.TB, res *report.FleetResult) []deviceRowKey {
	t.Helper()
	out := make([]deviceRowKey, 0, len(res.Devices))
	for _, d := range res.Devices {
		k := deviceRowKey{Device: d.Device, Status: d.Status, Reason: d.Reason,
			Error: d.Error, Packets: d.Packets}
		if d.Result != nil {
			k.StagesBefore = d.Result.StagesBefore
			k.StagesAfter = d.Result.StagesAfter
			k.OptimizedP4 = d.Result.OptimizedP4
		}
		out = append(out, k)
	}
	return out
}

// TestFleetJournalRecovery is the crash-recovery satellite: a fleet job
// accepted but unfinished when the process dies (kill -9 leaves an
// accepted record with no terminal record) is recovered on restart, and
// — because finished device rows spilled through the artifact cache —
// only the devices that had not finished are recomputed. The recovered
// result equals an uninterrupted run.
func TestFleetJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	journalPath := filepath.Join(dir, "journal.jsonl")
	fullSpec := fleet.Synthetic("quickstart", 3, 1, 30)

	// Baseline: the uninterrupted run on a fresh manager.
	base := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	base.Start()
	baseSt, err := base.Submit(JobSpec{Kind: "fleet", Fleet: specPtr(fullSpec)})
	if err != nil {
		t.Fatal(err)
	}
	baseline := awaitFleet(t, base, baseSt.ID)
	base.Drain(5 * time.Second)

	// "First boot": the daemon finishes two of the three devices before
	// dying. A partial fleet over the same device inputs produces exactly
	// the spilled device rows a killed 3-device fleet would have left —
	// device keys depend on program, rules, trace, passes, and target,
	// not on the enclosing fleet.
	m1 := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(0, cacheDir)})
	m1.Start()
	partSt, err := m1.Submit(JobSpec{Kind: "fleet", Fleet: specPtr(fleet.Synthetic("quickstart", 2, 1, 30))})
	if err != nil {
		t.Fatal(err)
	}
	awaitFleet(t, m1, partSt.ID)
	m1.Drain(5 * time.Second)

	// The kill -9 journal: the full fleet was accepted (and two device
	// rows recorded mid-flight) but never finished.
	j1, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	j1.Accepted("j-000042", JobSpec{Kind: "fleet", Fleet: specPtr(fullSpec)})
	j1.Device("j-000042", "sw-0000", report.FleetOptimized)
	j1.Device("j-000042", "sw-0001", report.FleetOptimized)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recover the journal, requeue, and finish the fleet from
	// the same spill directory.
	j2, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending, _, err := j2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Spec.Kind != "fleet" || pending[0].Spec.Fleet == nil {
		t.Fatalf("recovered %d specs (%+v), want the one unfinished fleet", len(pending), pending)
	}
	if pending[0].ID != "j-000042" {
		t.Fatalf("recovered ID %q, want the original j-000042", pending[0].ID)
	}
	m2 := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(0, cacheDir), Journal: j2})
	accepted, dropped := m2.Requeue(pending)
	if accepted != 1 || dropped != 0 {
		t.Fatalf("requeue accepted %d dropped %d", accepted, dropped)
	}
	m2.Start()
	t.Cleanup(func() { m2.Drain(5 * time.Second) })
	recovered := awaitFleet(t, m2, m2.List()[0].ID)

	// Only the unfinished device recomputed: the two finished before the
	// crash come back from the spilled device cache.
	cachedByDevice := map[string]bool{}
	for _, row := range recovered.Devices {
		cachedByDevice[row.Device] = row.Cached
	}
	if !cachedByDevice["sw-0000"] || !cachedByDevice["sw-0001"] {
		t.Errorf("finished devices recomputed after recovery: %+v", cachedByDevice)
	}
	if cachedByDevice["sw-0002"] {
		t.Error("unfinished device claimed a cache hit; nothing should have stored it")
	}

	// The recovered result equals the uninterrupted run (timings and
	// cache provenance aside).
	got, want := rowKeys(t, recovered), rowKeys(t, baseline)
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("recovered fleet diverged from the uninterrupted run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if recovered.Optimized != baseline.Optimized || recovered.StagesAfter != baseline.StagesAfter {
		t.Errorf("aggregates diverged: %d/%d vs %d/%d",
			recovered.Optimized, recovered.StagesAfter, baseline.Optimized, baseline.StagesAfter)
	}

	// The journal is clean again: the recovered job finished, so a second
	// recovery finds nothing pending. Read it as a restart would, once m2
	// has drained: a waiter wakes before the finished record is appended.
	m2.Drain(5 * time.Second)
	pending2, _, err := j2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending2) != 0 {
		t.Errorf("journal still pending after recovery: %+v", pending2)
	}
}
