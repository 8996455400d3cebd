package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"p2go/internal/cache"
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

// writeCheckpoint runs the fleet through the checkpoint writer of a manager
// over the spill directory dir, filing its rows under digest, and returns
// the checkpoint it wrote.
func writeCheckpoint(tb testing.TB, dir string, spec fleet.Spec, digest string) []byte {
	tb.Helper()
	m := NewManager(ManagerConfig{Cache: NewCache(0, dir)})
	rows := m.openDeviceCache(digest)
	_, err := fleet.Run(context.Background(), spec, fleet.Options{DeviceCache: rows})
	rows.close()
	if err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(m.checkpointPath(digest))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

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
// — because finished device rows were appended to the job's checkpoint —
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
	// dying. A partial fleet over the same device inputs, run through the
	// manager's own checkpoint writer under the full fleet's digest, leaves
	// exactly the checkpoint a killed 3-device fleet would have left —
	// device keys depend on program, rules, trace, passes, and target,
	// not on the enclosing fleet.
	writeCheckpoint(t, cacheDir, fleet.Synthetic("quickstart", 2, 1, 30),
		JobSpec{Kind: "fleet", Fleet: specPtr(fullSpec)}.RouteKey())

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
	// crash come back from the checkpoint.
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

// fleetRowFiles lists the files in a spill directory that hold fleet device
// rows: checkpoints, and the per-row spill files an older p2god wrote.
func fleetRowFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, pattern := range []string{"fleetckpt_*", "fleetdev_*"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, files...)
	}
	return out
}

// TestDoneFleetsLeaveNoRowFiles: a fleet that ends done removes its
// checkpoint once its report is stored, so N cold fleets leave their N
// reports in the spill directory and no row file. Spilling each row to a
// file of its own left one per optimized device, and nothing removed them.
func TestDoneFleetsLeaveNoRowFiles(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(0, dir)})
	m.Start()
	t.Cleanup(func() { m.Drain(5 * time.Second) })
	const fleets, devices = 3, 4
	for i := int64(0); i < fleets; i++ {
		st, err := m.Submit(JobSpec{Kind: "fleet", Fleet: specPtr(fleet.Synthetic("quickstart", devices, 100*i+1, 30))})
		if err != nil {
			t.Fatal(err)
		}
		if res := awaitFleet(t, m, st.ID); res.Optimized != devices {
			t.Fatalf("fleet %d optimized %d of %d devices", i, res.Optimized, devices)
		}
	}
	if files := fleetRowFiles(t, dir); len(files) != 0 {
		t.Errorf("%d done fleets left row files: %v", fleets, files)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != fleets {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("spill directory holds %v, want the %d fleet reports alone", names, fleets)
	}
}

// logHook is a slog handler that hands every record to a function.
type logHook func(slog.Record)

func (h logHook) Enabled(context.Context, slog.Level) bool      { return true }
func (h logHook) Handle(_ context.Context, r slog.Record) error { h(r); return nil }
func (h logHook) WithAttrs([]slog.Attr) slog.Handler            { return h }
func (h logHook) WithGroup(string) slog.Handler                 { return h }

// TestCanceledFleetCheckpointServesResubmission: a fleet canceled after its
// first device keeps its checkpoint, and the same spec submitted to a
// restarted daemon over the same directory is served that row from it,
// computes the rest, and ends with the rows an uninterrupted run gives.
func TestCanceledFleetCheckpointServesResubmission(t *testing.T) {
	dir := t.TempDir()
	spec := fleet.Synthetic("quickstart", 3, 7, 30)
	spec.DeviceParallelism = 1 // one device at a time: the cancel lands between rows
	job := JobSpec{Kind: "fleet", Fleet: &spec}

	base := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	base.Start()
	baseSt, err := base.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	baseline := awaitFleet(t, base, baseSt.ID)
	base.Drain(5 * time.Second)

	// Cancel the job from inside its first device's log line.
	var m1 *Manager
	m1 = NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(0, dir),
		Logger: slog.New(logHook(func(r slog.Record) {
			if r.Message != "fleet device finished" {
				return
			}
			r.Attrs(func(a slog.Attr) bool {
				if a.Key == "job_id" {
					m1.Cancel(a.Value.String())
				}
				return true
			})
		}))})
	m1.Start()
	st, err := m1.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ = m1.Wait(context.Background(), st.ID, time.Minute, false); st.State != StateCanceled {
		t.Fatalf("fleet ended %s (%s), want canceled", st.State, st.Error)
	}
	m1.Drain(5 * time.Second)
	if files := fleetRowFiles(t, dir); len(files) != 1 {
		t.Fatalf("canceled fleet left row files %v, want its checkpoint", files)
	}

	m2 := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(0, dir)})
	m2.Start()
	t.Cleanup(func() { m2.Drain(5 * time.Second) })
	st2, err := m2.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	res := awaitFleet(t, m2, st2.ID)
	for i, row := range res.Devices {
		if row.Cached != (i == 0) {
			t.Errorf("row %s cached=%v; want only the device finished before the cancel served", row.Device, row.Cached)
		}
	}
	gotJSON, _ := json.Marshal(rowKeys(t, res))
	wantJSON, _ := json.Marshal(rowKeys(t, baseline))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("resumed fleet diverged from the uninterrupted run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if files := fleetRowFiles(t, dir); len(files) != 0 {
		t.Errorf("the resumed fleet ended done and left %v", files)
	}
}

// TestCheckpointBytesUnchanged: testdata/checkpoint-quickstart-2 is the
// checkpoint of a two-device quickstart fleet as the checkpoint writer laid
// records out before every file p2god reads back shared the record codec.
// The shared reader takes every byte of it, the shared writer lays the same
// records out byte for byte, and a fleet resumed over it serves both rows.
func TestCheckpointBytesUnchanged(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "checkpoint-quickstart-2"))
	if err != nil {
		t.Fatal(err)
	}
	rows, n := cache.ReadRecords(old)
	var again []byte
	for _, r := range rows {
		again = cache.AppendRecord(again, r.Key, r.Val)
	}
	if len(rows) != 2 || n != len(old) || !bytes.Equal(again, old) {
		t.Fatalf("%d rows in %d of %d bytes, re-encoded equal: %v", len(rows), n, len(old), bytes.Equal(again, old))
	}

	spec := fleet.Synthetic("quickstart", 2, 11, 30)
	spec.DeviceParallelism = 1
	job := JobSpec{Kind: "fleet", Fleet: &spec}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fleetckpt_"+job.RouteKey()), old, 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(0, dir)})
	m.Start()
	defer m.Drain(5 * time.Second)
	st, err := m.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range awaitFleet(t, m, st.ID).Devices {
		if !row.Cached {
			t.Errorf("row %s recomputed, want it served from the checkpoint", row.Device)
		}
	}
}

// TestDamagedCheckpointRecordsRecomputed: a checkpoint record with a flipped
// byte, or cut short, is never served, and neither is anything after it;
// those devices are recomputed to the rows a fresh run gives, and appended
// where the bad record began.
func TestDamagedCheckpointRecordsRecomputed(t *testing.T) {
	spec := fleet.Synthetic("quickstart", 2, 11, 30)
	spec.DeviceParallelism = 1 // records in device order
	job := JobSpec{Kind: "fleet", Fleet: &spec}
	digest := job.RouteKey()

	base := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	base.Start()
	baseSt, err := base.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	want := rowKeys(t, awaitFleet(t, base, baseSt.ID))
	base.Drain(5 * time.Second)

	whole := writeCheckpoint(t, t.TempDir(), spec, digest)
	rows, n := cache.ReadRecords(whole)
	if len(rows) != 2 || n != len(whole) {
		t.Fatalf("checkpoint of a 2-device fleet: %d rows in %d of %d bytes", len(rows), n, len(whole))
	}
	// The first record ends where its encoding does.
	first := len(cache.AppendRecord(nil, rows[0].Key, rows[0].Val))
	flipped := func(at int) []byte {
		b := bytes.Clone(whole)
		b[at] ^= 0x40
		return b
	}
	for _, tc := range []struct {
		name   string
		ckpt   []byte
		served int // leading devices served from the checkpoint
	}{
		{"whole", whole, 2},
		{"second record's row flipped", flipped(len(whole) - 20), 1},
		{"second record's length flipped", flipped(first + 6), 1},
		{"second record's CRC flipped", flipped(len(whole) - 1), 1},
		{"first record's row flipped", flipped(first / 2), 0},
		{"torn at the last byte", whole[:len(whole)-1], 1},
		{"torn in the second header", whole[:first+5], 1},
		{"torn in the first record", whole[:first-1], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "fleetckpt_"+digest), tc.ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(0, dir)})
			m.Start()
			defer m.Drain(5 * time.Second)
			st, err := m.Submit(job)
			if err != nil {
				t.Fatal(err)
			}
			res := awaitFleet(t, m, st.ID)
			for i, row := range res.Devices {
				if row.Cached != (i < tc.served) {
					t.Errorf("row %s cached=%v, want the first %d served", row.Device, row.Cached, tc.served)
				}
			}
			if got := rowKeys(t, res); !slices.Equal(got, want) {
				t.Errorf("rows %+v, want %+v", got, want)
			}
		})
	}

	// A run's first append cuts a torn tail off, so the rows it appends are
	// served after it.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fleetckpt_"+digest), whole[:len(whole)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := writeCheckpoint(t, dir, spec, digest)
	if rows, n := cache.ReadRecords(resumed); len(rows) != 2 || n != len(resumed) {
		t.Errorf("checkpoint resumed after a torn tail: %d rows in %d of %d bytes, want 2 in all", len(rows), n, len(resumed))
	}
}
