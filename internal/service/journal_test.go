package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"p2go/internal/cache"
)

// TestJournalCrashRecovery is the kill -9 scenario: jobs journaled as
// accepted but never finished — the process died with them queued — are
// recovered in acceptance order on the next start and run to completion.
func TestJournalCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Workers never started: submissions stay queued, exactly as if the
	// process were killed before the pool touched them.
	m1 := NewManager(ManagerConfig{Workers: 1, Journal: j1})
	seeds := []int64{11, 12, 13}
	for _, seed := range seeds {
		if _, err := m1.Submit(JobSpec{Workload: "quickstart", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close() // the "crash"; every accepted record is already fsynced

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending, warnings, err := j2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("clean journal produced warnings: %v", warnings)
	}
	if len(pending) != len(seeds) {
		t.Fatalf("recovered %d job(s), want %d", len(pending), len(seeds))
	}
	for i, p := range pending {
		if p.Spec.Seed != seeds[i] {
			t.Errorf("recovered[%d].Spec.Seed = %d, want %d (acceptance order)", i, p.Spec.Seed, seeds[i])
		}
		if p.ID == "" {
			t.Errorf("recovered[%d] lost its original ID", i)
		}
	}

	m2 := NewManager(ManagerConfig{Workers: 2, Journal: j2})
	m2.execFn = func(ctx context.Context, job *Job) ([]byte, error) { return []byte(`{}`), nil }
	accepted, dropped := m2.Requeue(pending)
	if accepted != len(seeds) || dropped != 0 {
		t.Fatalf("requeue = %d accepted, %d dropped", accepted, dropped)
	}
	m2.Start()
	for _, st := range m2.List() {
		if fin := waitTerminal(t, m2, st.ID); fin.State != StateDone {
			t.Errorf("recovered job %s = %s (%q)", st.ID, fin.State, fin.Error)
		}
	}
	m2.Drain(time.Second)

	// Every recovered job finished, so a further recovery finds nothing.
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	left, _, err := j3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("second recovery found %d job(s), want 0", len(left))
	}
}

// TestDrainRequeuesQueuedJobs: a graceful drain persists still-queued jobs
// as requeued (terminal for this process, recoverable by the next) and
// reports them; the running job is canceled at the drain deadline and is
// not recovered.
func TestDrainRequeuesQueuedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{Workers: 1, Journal: j})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	m.Start()

	blocker, _ := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	waitState(t, m, blocker.ID, StateRunning)
	q1, _ := m.Submit(JobSpec{Workload: "quickstart", Seed: 2})
	q2, _ := m.Submit(JobSpec{Workload: "quickstart", Seed: 3})

	rep := m.Drain(50 * time.Millisecond)
	if len(rep.Requeued) != 2 || rep.Requeued[0] != q1.ID || rep.Requeued[1] != q2.ID {
		t.Fatalf("drain requeued %v, want [%s %s]", rep.Requeued, q1.ID, q2.ID)
	}
	if len(rep.Canceled) != 0 {
		t.Errorf("drain canceled %v with a journal configured", rep.Canceled)
	}
	for _, id := range rep.Requeued {
		if st, _ := m.Get(id, false); st.State != StateRequeued {
			t.Errorf("job %s = %s, want requeued", id, st.State)
		}
	}
	if st, _ := m.Get(blocker.ID, false); st.State != StateCanceled {
		t.Errorf("running job = %s, want canceled at drain deadline", st.State)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending, _, err := j2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].Spec.Seed != 2 || pending[1].Spec.Seed != 3 {
		t.Fatalf("recovered %+v, want the two drained specs (seeds 2, 3)", pending)
	}
	if pending[0].ID != q1.ID || pending[1].ID != q2.ID {
		t.Fatalf("recovered IDs %s, %s, want the originals %s, %s",
			pending[0].ID, pending[1].ID, q1.ID, q2.ID)
	}
}

// TestDrainWithoutJournalCancels preserves the pre-journal behavior.
func TestDrainWithoutJournalCancels(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	m.Start()
	blocker, _ := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	waitState(t, m, blocker.ID, StateRunning)
	q, _ := m.Submit(JobSpec{Workload: "quickstart", Seed: 2})

	rep := m.Drain(50 * time.Millisecond)
	if len(rep.Canceled) != 1 || rep.Canceled[0] != q.ID || len(rep.Requeued) != 0 {
		t.Fatalf("journal-less drain = %+v, want the queued job canceled", rep)
	}
	if st, _ := m.Get(q.ID, false); st.State != StateCanceled {
		t.Errorf("queued job = %s, want canceled", st.State)
	}
}

// TestJournalTornLineTolerated: a crash mid-append leaves a torn final
// record; recovery skips it and keeps every complete record.
func TestJournalTornLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Accepted("j-000001", JobSpec{Kind: "optimize", Workload: "quickstart", Seed: 9})
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := cache.AppendRecord(nil, "j-000002", []byte(`{"op":"accepted","id":"j-000002","spec":{"seed":3}}`))
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending, warnings, err := j2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Spec.Seed != 9 {
		t.Fatalf("recovered %+v, want the one complete record", pending)
	}
	if len(warnings) != 1 {
		t.Fatalf("torn final record produced %d warning(s), want 1: %v", len(warnings), warnings)
	}
}

// TestJournalTruncationEveryOffset: recovery must be well-defined no
// matter where inside the last record a crash cut the write short. The
// journal is truncated at every byte offset of its final record; at each
// point recovery succeeds, always keeps the earlier record, never
// invents state, and warns exactly when a partial tail was dropped.
func TestJournalTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	master := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(master)
	if err != nil {
		t.Fatal(err)
	}
	j.Accepted("j-000001", JobSpec{Kind: "optimize", Workload: "quickstart", Seed: 1})
	j.Accepted("j-000002", JobSpec{Kind: "optimize", Workload: "quickstart", Seed: 2})
	j.Close()
	data, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	// base = end of the first record; everything past it belongs to the
	// last record.
	recs, _ := cache.ReadRecords(data)
	if len(recs) != 2 {
		t.Fatalf("journal of two appends holds %d records", len(recs))
	}
	base := len(cache.AppendRecord(nil, recs[0].Key, recs[0].Val))
	if base >= len(data) {
		t.Fatalf("journal layout unexpected: base %d of %d bytes", base, len(data))
	}

	for cut := base; cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%04d.jsonl", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jr, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		pending, warnings, err := jr.Recover()
		jr.Close()
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// The last record survives only when every byte of it made it to
		// disk.
		wantJobs := 1
		if cut == len(data) {
			wantJobs = 2
		}
		if len(pending) != wantJobs {
			t.Fatalf("cut %d: recovered %d job(s), want %d", cut, len(pending), wantJobs)
		}
		if pending[0].ID != "j-000001" || pending[0].Spec.Seed != 1 {
			t.Fatalf("cut %d: first record damaged: %+v", cut, pending[0])
		}
		if wantJobs == 2 && (pending[1].ID != "j-000002" || pending[1].Spec.Seed != 2) {
			t.Fatalf("cut %d: intact last record damaged: %+v", cut, pending[1])
		}
		wantWarnings := 0
		if cut > base && wantJobs == 1 {
			wantWarnings = 1 // a non-empty torn tail was dropped, loudly
		}
		if len(warnings) != wantWarnings {
			t.Fatalf("cut %d: %d warning(s) %v, want %d", cut, len(warnings), warnings, wantWarnings)
		}
	}
}

// TestJournalNilSafe: a nil journal is inert at every call site.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Accepted("x", JobSpec{})
	j.Finished("x", StateDone)
	j.Requeued("x")
	if err := j.Close(); err != nil {
		t.Error(err)
	}
}

// realJournal is the journal a manager writes for three accepted jobs, the
// first of which finished, and a fourth answered: what a daemon killed with
// two jobs queued leaves behind.
func realJournal(t *testing.T) (data []byte, specs map[string]JobSpec) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{Workers: 1, Journal: j})
	specs = map[string]JobSpec{}
	for _, seed := range []int64{17, 18, 19} {
		spec := JobSpec{Kind: "optimize", Workload: "quickstart", Seed: seed}
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		specs[st.ID] = spec
	}
	j.Finished("j-000001", StateDone)
	j.answered("j-000004")
	j.Close()
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return data, specs
}

// TestJournalFlippedByteNeverChangesSpec: one flipped byte anywhere in a
// real journal is a warning (the damaged record is the last one, or its
// lengths now run past the end) or an error; recovery never hands back a
// job whose spec is not the one it was accepted with.
func TestJournalFlippedByteNeverChangesSpec(t *testing.T) {
	data, specs := realJournal(t)
	pending, warnings, err := replayJournal(data, "real")
	if err != nil || len(warnings) != 0 || len(pending) != 2 {
		t.Fatalf("the undamaged journal: %d pending, warnings %q, %v; want 2 clean", len(pending), warnings, err)
	}
	for off := range data {
		for _, mask := range []byte{0x01, 0x40, 0xff} {
			b := bytes.Clone(data)
			b[off] ^= mask
			pending, warnings, err := replayJournal(b, "flipped")
			if err == nil && len(warnings) == 0 {
				t.Fatalf("byte %d ^ %#x: replayed %d jobs with no warning or error", off, mask, len(pending))
			}
			for _, p := range pending {
				if want, ok := specs[p.ID]; !ok || !reflect.DeepEqual(p.Spec, want) {
					t.Fatalf("byte %d ^ %#x: recovered %s with spec %+v, want %+v", off, mask, p.ID, p.Spec, want)
				}
			}
		}
	}
	// A flipped high bit in a length makes a record declare more than any
	// journal record holds. Before the last record that is corruption, not
	// a torn tail that would drop every record after it.
	recs, _ := cache.ReadRecords(data)
	start := 0
	for i, rec := range recs[:len(recs)-1] {
		for _, field := range []int{0, 4} {
			b := bytes.Clone(data)
			b[start+field] ^= 0x40
			if _, warnings, err := replayJournal(b, "flipped"); err == nil {
				t.Errorf("record %d of %d: a high bit flipped in a length replayed with warnings %q, want an error",
					i+1, len(recs), warnings)
			}
		}
		start += len(cache.AppendRecord(nil, rec.Key, rec.Val))
	}
}

// TestJournalZeroTailIsTorn: a power loss can leave zeros where unsynced
// records (device progress, admission answers) were appended. Recovery
// drops them with one warning and keeps every record before them; the same
// zeros with a record after them are corruption.
func TestJournalZeroTailIsTorn(t *testing.T) {
	data, _ := realJournal(t)
	want, _, err := replayJournal(data, "real")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 11, 12, 300, 4096} {
		got, warnings, err := replayJournal(append(bytes.Clone(data), make([]byte, n)...), "zeros")
		if err != nil || len(warnings) != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d zero bytes at the end: %v, warnings %q, %d pending; want the %d jobs and one warning",
				n, err, warnings, len(got), len(want))
		}
	}
	recs, _ := cache.ReadRecords(data)
	last := cache.AppendRecord(nil, recs[0].Key, recs[0].Val)
	mid := append(append(bytes.Clone(data), make([]byte, 64)...), last...)
	if _, _, err := replayJournal(mid, "zeros"); err == nil {
		t.Fatal("zeros followed by a record replayed without error")
	}
}

// TestJournalRefusesUndecodableRecords: a record whose checksum holds but
// whose value is not a journal entry for its key was never written by a
// journal; replay fails rather than skip it.
func TestJournalRefusesUndecodableRecords(t *testing.T) {
	data, _ := realJournal(t)
	for name, rec := range map[string][]byte{
		"not JSON":  cache.AppendRecord(nil, "j-000005", []byte("not json")),
		"wrong key": cache.AppendRecord(nil, "j-000005", []byte(`{"op":"accepted","id":"j-000006"}`)),
	} {
		if _, _, err := replayJournal(append(bytes.Clone(data), rec...), "bad"); err == nil ||
			!strings.Contains(err.Error(), "does not decode") {
			t.Errorf("%s: %v, want a decode error", name, err)
		}
	}
}

// TestJournalRefusesJSONLines: a journal of JSON lines, the format before
// records, is refused with an error that names the file, so a daemon
// started over it fails instead of dropping its contents.
func TestJournalRefusesJSONLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	old := `{"op":"accepted","id":"j-000001","spec":{"kind":"optimize","workload":"quickstart","seed":1},"time":"t"}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, err := j.Recover(); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Recover of a JSON-lines journal: %v, want an error naming %s", err, path)
	}
	if data, _ := os.ReadFile(path); string(data) != old {
		t.Errorf("the refused journal was rewritten to %q", data)
	}
	if _, _, err := ReadPending(path); err == nil {
		t.Error("ReadPending read a JSON-lines journal")
	}
}

// TestTakeoverCutsTornTail: a takeover record appended to a dead peer's
// journal that ends torn lands after the cut, so the next scan reads it
// and the job is no longer pending there.
func TestTakeoverCutsTornTail(t *testing.T) {
	data, _ := realJournal(t)
	path := filepath.Join(t.TempDir(), "peer.jsonl")
	rec := cache.AppendRecord(nil, "j-000009", []byte(`{"op":"accepted","id":"j-000009"}`))
	if err := os.WriteFile(path, append(bytes.Clone(data), rec[:20]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendTakeover(path, "j-000002", "r2"); err != nil {
		t.Fatal(err)
	}
	pending, warnings, err := ReadPending(path)
	if err != nil || len(warnings) != 0 {
		t.Fatalf("after the takeover: %v, warnings %q", err, warnings)
	}
	if ids := pendingIDs(pending); !reflect.DeepEqual(ids, []string{"j-000003"}) {
		t.Fatalf("pending after the takeover of j-000002: %q, want [j-000003]", ids)
	}
}

// TestConcurrentTakeoversKeepEveryRecord: survivors reclaiming different
// jobs from one dead peer at once, its journal ending torn, each cut the
// tail and append under the file's lock, so no cut removes another's
// takeover record, whole or half written.
func TestConcurrentTakeoversKeepEveryRecord(t *testing.T) {
	data, _ := realJournal(t)
	rec := cache.AppendRecord(nil, "j-000009", []byte(`{"op":"accepted","id":"j-000009"}`))
	torn := append(bytes.Clone(data), rec[:20]...)
	path := filepath.Join(t.TempDir(), "peer.jsonl")
	for round := range 50 {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		for i, id := range []string{"j-000002", "j-000003"} {
			go func() { errs <- AppendTakeover(path, id, fmt.Sprintf("r%d", i+2)) }()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		pending, warnings, err := ReadPending(path)
		if err != nil || len(warnings) != 0 || len(pending) != 0 {
			t.Fatalf("round %d: %v, warnings %q, pending %q after both takeovers; want none",
				round, err, warnings, pendingIDs(pending))
		}
	}
}
