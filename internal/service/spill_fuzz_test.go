package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2go/internal/cache"
	"p2go/internal/fleet"
	"p2go/internal/report"
)

// The two jobs FuzzSpillFiles runs over a damaged spill directory: a
// quickstart profile, whose "job:" artifact is fuzzed, and a one-device
// quickstart fleet, whose checkpoint is.
var (
	spillProfileSpec = JobSpec{Kind: "profile", Workload: "quickstart", Seed: 1}
	spillFleetSpec   = JobSpec{Kind: "fleet", Fleet: specPtr(fleet.Synthetic("quickstart", 1, 1, 30))}
)

// spillRun runs the profile job, then the fleet job, on a fresh one-worker
// Manager over the spill directory, and returns both terminal statuses and
// the corruptions the Manager counted.
func spillRun(tb testing.TB, dir string) (prof, fl JobStatus, corruptions int) {
	tb.Helper()
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2, Cache: NewCache(0, dir)})
	m.Start()
	defer m.Drain(5 * time.Second)
	run := func(spec JobSpec) JobStatus {
		st, err := m.Submit(spec)
		if err != nil {
			tb.Fatal(err)
		}
		st, _ = m.Wait(context.Background(), st.ID, time.Minute, true)
		if st.State != StateDone {
			tb.Fatalf("%s job ended %s: %s", spec.Kind, st.State, st.Error)
		}
		return st
	}
	prof, fl = run(spillProfileSpec), run(spillFleetSpec)
	return prof, fl, corruptionCount(tb, m)
}

// corruptionCount reads p2god_cache_corruption_total off m's exposition.
func corruptionCount(tb testing.TB, m *Manager) (n int) {
	tb.Helper()
	var buf bytes.Buffer
	m.Metrics().WritePrometheus(&buf, nil)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "p2god_cache_corruption_total "); ok {
			if _, err := fmt.Sscan(v, &n); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return n
}

// TestFlippedSpillByteRecomputed: one flipped byte anywhere in a spilled
// "job:" artifact — lengths, key, report or checksum — makes the file a
// miss: the job is recomputed, the damage counted once, the file replaced
// by the recomputed report's record, and the damaged bytes never served.
func TestFlippedSpillByteRecomputed(t *testing.T) {
	spec := JobSpec{Workload: "quickstart", Seed: 4}
	key := "job:" + spec.RouteKey()
	stored := []byte(`{"kind":"optimize","stages":[8,3],"seed":4}`)
	fresh := []byte(`{"kind":"optimize","recomputed":true}`)
	file := cache.AppendRecord(nil, key, stored)
	for off := range file {
		dir := t.TempDir()
		flipped := bytes.Clone(file)
		flipped[off] ^= 0x08
		if err := os.WriteFile(filepath.Join(dir, "job_"+spec.RouteKey()), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		m := NewManager(ManagerConfig{Workers: 1, Cache: NewCache(0, dir)})
		fills := 0
		m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
			fills++
			return fresh, nil
		}
		m.Start()
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st = waitTerminal(t, m, st.ID)
		m.Drain(time.Second)
		if st.State != StateDone || st.Cached || !bytes.Equal(st.Result, fresh) || fills != 1 {
			t.Fatalf("byte %d flipped: %s cached=%v result %q after %d fills; want the one recompute served",
				off, st.State, st.Cached, st.Result, fills)
		}
		if n := corruptionCount(t, m); n != 1 {
			t.Fatalf("byte %d flipped: %d corruptions counted, want 1", off, n)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "job_"+spec.RouteKey())); !bytes.Equal(got, cache.AppendRecord(nil, key, fresh)) {
			t.Fatalf("byte %d flipped: spill file %q after the recompute, want its record", off, got)
		}
	}
}

// withoutResources re-encodes a job report without its resources block,
// the one part of a profile report that differs between runs.
func withoutResources(tb testing.TB, data []byte) string {
	tb.Helper()
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		tb.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	delete(v, "resources")
	out, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return string(out)
}

// fleetResult decodes a fleet job's report.
func fleetResult(tb testing.TB, st JobStatus) *report.FleetResult {
	tb.Helper()
	var res report.FleetResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		tb.Fatalf("fleet result JSON: %v", err)
	}
	if len(res.Devices) != 1 {
		tb.Fatalf("fleet result has %d device rows, want 1", len(res.Devices))
	}
	return &res
}

// FuzzSpillFiles writes arbitrary bytes as the spill file of the profile
// job's "job:" artifact and as the fleet job's checkpoint — what a
// restarted or peer p2god reads back from a shared cache directory — and
// runs both jobs through a Manager over it:
//
//   - nothing panics, and both jobs finish;
//   - a job spill file that is exactly one valid record under the job's key,
//     whose value is valid JSON, is served as that value: validHit checks
//     only the JSON, because it runs on every cached resubmit;
//   - any other file (a bad, torn, foreign or other key's record, or a
//     record of a value that is not JSON) is recomputed to the report a
//     fresh run gives (its resources block aside), counted once in
//     p2god_cache_corruption_total, and replaced by the record of the
//     recomputed report;
//   - a device whose checkpoint record is missing, bad or does not decode as
//     an optimized row is recomputed to the fresh run's row; one whose
//     record is valid is served as cached;
//   - the done fleet leaves no checkpoint behind.
//
// The corpus under testdata/fuzz/FuzzSpillFiles holds a real job spill file
// and a real checkpoint, torn prefixes of both, a checkpoint with one byte
// flipped, a job file with one byte flipped, and a job file written in the
// unframed format spill files had before records.
func FuzzSpillFiles(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte(`{"kind":"profile"}`), []byte(`{"status":"optimized"}`))

	// A fresh run names the files and gives the reports to compare with.
	fresh := f.TempDir()
	freshProf, freshFleet, n := spillRun(f, fresh)
	if n != 0 {
		f.Fatalf("a fresh run counted %d corruptions", n)
	}
	jobKey := "job:" + spillProfileSpec.RouteKey()
	jobFile := "job_" + spillProfileSpec.RouteKey()
	ckptFile := "fleetckpt_" + spillFleetSpec.RouteKey()
	if _, err := os.Stat(filepath.Join(fresh, ckptFile)); !os.IsNotExist(err) {
		f.Fatalf("the done fleet left its checkpoint %s (%v)", ckptFile, err)
	}
	wantProf := withoutResources(f, freshProf.Result)
	wantRow := rowKeys(f, fleetResult(f, freshFleet))
	// The device's key, from a checkpoint the manager's writer fills.
	rows, _ := cache.ReadRecords(writeCheckpoint(f, f.TempDir(), *spillFleetSpec.Fleet, spillFleetSpec.RouteKey()))
	if len(rows) != 1 {
		f.Fatalf("a one-device fleet checkpointed %d rows", len(rows))
	}
	deviceKey := rows[0].Key

	f.Fuzz(func(t *testing.T, job, ckpt []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, jobFile), job, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ckptFile), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		prof, fl, corruptions := spillRun(t, dir)

		recs, end := cache.ReadRecords(job)
		if len(recs) == 1 && end == len(job) && recs[0].Key == jobKey && json.Valid(recs[0].Val) {
			if !prof.Cached || !bytes.Equal(prof.Result, recs[0].Val) || corruptions != 0 {
				t.Fatalf("valid record: cached=%v, %d corruptions, served %q", prof.Cached, corruptions, prof.Result)
			}
		} else {
			if prof.Cached || corruptions != 1 {
				t.Fatalf("damaged spill file: cached=%v, %d corruptions; want recomputed and counted once", prof.Cached, corruptions)
			}
			if got := withoutResources(t, prof.Result); got != wantProf {
				t.Fatalf("recomputed report\n%s\nwant\n%s", got, wantProf)
			}
			if spilled, err := os.ReadFile(filepath.Join(dir, jobFile)); err != nil ||
				!bytes.Equal(spilled, cache.AppendRecord(nil, jobKey, prof.Result)) {
				t.Fatalf("spill after the recompute: %q (%v), want the recomputed report's record", spilled, err)
			}
		}

		var row []byte
		present := false
		rows, _ := cache.ReadRecords(ckpt)
		for _, r := range rows {
			if !bytes.Contains(ckpt, cache.AppendRecord(nil, r.Key, r.Val)) {
				t.Fatalf("the reader accepted a record the writer would not have written")
			}
			if r.Key == deviceKey {
				row, present = r.Val, true
			}
		}
		var decoded report.FleetDevice
		optimized := present && json.Unmarshal(row, &decoded) == nil && decoded.Status == report.FleetOptimized
		res := fleetResult(t, fl)
		if got := res.Devices[0].Cached; got != optimized {
			t.Fatalf("device row served cached=%v, but the checkpoint holds a valid optimized row for it: %v", got, optimized)
		}
		if !optimized {
			if got := rowKeys(t, res); got[0] != wantRow[0] {
				t.Fatalf("recomputed device row %+v, want %+v", got[0], wantRow[0])
			}
		}
		if _, err := os.Stat(filepath.Join(dir, ckptFile)); !os.IsNotExist(err) {
			t.Fatalf("the done fleet left its checkpoint (%v)", err)
		}
	})
}
