package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"p2go/internal/cache"
	"p2go/internal/cluster"
)

// Journal is p2god's crash-safe, append-only job journal. Every accepted
// job is recorded before the submitter gets its 202; every terminal
// outcome is recorded when the job finishes. On restart, Recover replays
// the log: jobs with an accepted record but no terminal record — queued
// or running when the process died, whether by graceful drain or kill
// -9 — are returned for re-submission under their original IDs.
//
// In a replica group the journal is also the takeover substrate: each
// replica journals into the shared cluster directory, and a survivor
// that claims a dead peer's lease reads the peer's journal (ReadPending)
// to learn which jobs to reclaim, then appends a "takeover" record to it
// so a second scan — or the dead replica restarting — sees the job as
// already re-owned.
//
// The format is one cache record per entry: key the job ID, value the
// entry's JSON. Records that protect pending work — accepted, finished,
// requeued, takeover of a job that was queued — are fsynced per append.
// Records replay ignores — a fleet's device progress, the finished record
// of a job answered at admission — get no flush of their own and become
// durable with the next synced record, so a power loss can only drop (or
// zero) records recovery would have skipped. replayJournal says which
// damage recovery tolerates. A nil *Journal journals nothing.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// journalEntry is the value of one journal record.
type journalEntry struct {
	// Op is "accepted", "finished", "requeued", "device", or "takeover".
	Op string `json:"op"`
	// ID is the job ID the entry refers to.
	ID string `json:"id"`
	// Spec is present on accepted entries.
	Spec *JobSpec `json:"spec,omitempty"`
	// State is the terminal state on finished entries, or the device row
	// status on device entries.
	State string `json:"state,omitempty"`
	// Device is the device name on device entries (fleet job progress).
	Device string `json:"device,omitempty"`
	// By is the reclaiming replica on takeover entries.
	By string `json:"by,omitempty"`
	// Time is RFC3339Nano, informational only.
	Time string `json:"time"`
}

// maxJournalRecord is the longest record a torn tail may declare, so a
// damaged length in the middle of a journal is corruption, not a torn tail
// that swallows every record after it. It is eight times maxSpecBytes, room
// for any real spec; a crash that cuts a longer record fails recovery,
// which names the journal rather than drop what follows the cut.
const maxJournalRecord = 64 << 20

// PendingJob is one accepted-but-unfinished job recovered from a
// journal, keyed by the ID it was originally accepted under — recovery
// and takeover both re-serve results under that ID.
type PendingJob struct {
	ID   string
	Spec JobSpec
}

// OpenJournal opens (creating if needed) the journal at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open journal: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// Recover replays the journal and returns every job that was accepted
// but never finished, in acceptance order, plus warnings for tolerated
// damage (a torn final record). It then compacts the journal to empty:
// the caller re-submits the pending jobs, and each re-submission appends
// a fresh accepted record, so the log never grows across restarts.
func (j *Journal) Recover() ([]PendingJob, []string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	pending, warnings, err := ReadPending(j.path)
	if err != nil {
		return nil, warnings, err
	}
	// Appends go to the end of the file whatever its offset (O_APPEND).
	if err := j.f.Truncate(0); err != nil {
		return nil, warnings, err
	}
	return pending, warnings, nil
}

// ReadPending replays a journal file read-only — no truncation, no open
// handle kept — and returns its accepted-but-unfinished jobs. This is
// how a surviving replica inspects a dead peer's journal before taking
// its work over; tolerated damage comes back as warnings.
func ReadPending(path string) ([]PendingJob, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil // peer never journaled anything
		}
		return nil, nil, fmt.Errorf("service: read journal: %w", err)
	}
	return replayJournal(data, path)
}

// replayJournal folds a journal's records into the pending set. A bad
// record the file ends inside (cache.TornTail) is a torn tail from a crash
// mid-append: it is dropped with a warning, because appends are whole
// records in order: every earlier record was written out before it. A bad
// record with bytes after it, or a record that passes its checksum but does
// not decode, is corruption and fails the replay. So does a journal of JSON
// lines, the format before records: it is refused, never read as damage.
func replayJournal(data []byte, path string) ([]PendingJob, []string, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, nil, fmt.Errorf(
			"service: journal %s holds JSON lines, a format this p2god does not read; move it aside to start", path)
	}
	recs, end := cache.ReadRecords(data)
	var warnings []string
	if end < len(data) {
		if !cache.TornTail(data[end:], maxJournalRecord) {
			return nil, nil, fmt.Errorf(
				"service: journal %s corrupt at byte %d (record %d, not a torn tail)", path, end, len(recs)+1)
		}
		warnings = append(warnings, fmt.Sprintf(
			"journal %s: dropping torn final record (%d bytes)", path, len(data)-end))
	}
	// pending maps a job to its accepted record while the job is pending.
	pending := map[string]int{}
	specs := make([]*JobSpec, len(recs))
	for i, rec := range recs {
		var e journalEntry
		if err := json.Unmarshal(rec.Val, &e); err != nil || e.ID != rec.Key {
			if err == nil {
				err = fmt.Errorf("entry id %q under key %q", e.ID, rec.Key)
			}
			return nil, warnings, fmt.Errorf(
				"service: journal %s record %d passes its checksum but does not decode: %v", path, i+1, err)
		}
		switch e.Op {
		case "accepted":
			if e.Spec != nil {
				pending[e.ID], specs[i] = i, e.Spec
			}
		case "finished", "takeover":
			// A takeover: another replica reclaimed the job; it is no
			// longer this journal's responsibility.
			delete(pending, e.ID)
		}
		// "requeued" documents a drain: the job stays pending. "device" is
		// mid-fleet progress: the re-run fleet job gets its finished rows
		// back from its checkpoint.
	}
	var out []PendingJob
	for i, rec := range recs {
		if at, ok := pending[rec.Key]; ok && at == i {
			out = append(out, PendingJob{ID: rec.Key, Spec: *specs[i]})
		}
	}
	return out, warnings, nil
}

// Accepted records an admitted job before its submitter is answered.
func (j *Journal) Accepted(id string, spec JobSpec) {
	j.append(journalEntry{Op: "accepted", ID: id, Spec: &spec}, true)
}

// Finished records a terminal outcome; the job will not be recovered.
func (j *Journal) Finished(id string, state JobState) {
	j.append(journalEntry{Op: "finished", ID: id, State: string(state)}, true)
}

// answered records a job served from the artifact cache at admission. It
// was never pending — replay ignores a finished with no accepted — so the
// record documents the request without paying for a flush.
func (j *Journal) answered(id string) {
	j.append(journalEntry{Op: "finished", ID: id, State: string(StateDone)}, false)
}

// Device records one finished device row of a running fleet job, so an
// operator reading the journal after a crash can see how far the fleet
// got. Recovery does not replay these — the re-run fleet job recovers
// finished rows from its checkpoint instead, each fsynced there before its
// record here — so they are not flushed one by one: the fleet's finished
// record syncs them.
func (j *Journal) Device(id, device, status string) {
	j.append(journalEntry{Op: "device", ID: id, Device: device, State: status}, false)
}

// Requeued documents that a drain left the job pending on purpose; it
// stays recoverable.
func (j *Journal) Requeued(id string) {
	j.append(journalEntry{Op: "requeued", ID: id}, true)
}

// AppendTakeover appends a takeover record to the journal at path (a
// dead peer's journal, not the caller's own): the named job is now owned
// by replica `by`. The append is direct — open, write one fsynced record,
// close — because the dead peer's journal has no live *Journal handle. A
// torn tail the peer left is cut off first, so the record is readable
// after it. Survivors reclaiming different jobs from one peer at once
// each hold the file's lock from the read to the write, so none cuts off
// another's record, whole or in flight.
func AppendTakeover(path, jobID, by string) error {
	rec, err := journalRecord(journalEntry{Op: "takeover", ID: jobID, By: by})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: append takeover: %w", err)
	}
	defer f.Close() // releases the lock
	var data []byte
	if err = cluster.LockFile(f); err == nil {
		data, err = io.ReadAll(f)
	}
	if err == nil {
		if _, end := cache.ReadRecords(data); end < len(data) && cache.TornTail(data[end:], maxJournalRecord) {
			err = f.Truncate(int64(end))
		}
	}
	if err == nil {
		_, err = f.Write(rec)
	}
	if err != nil {
		return fmt.Errorf("service: append takeover: %w", err)
	}
	return f.Sync()
}

// journalRecord stamps the entry's time and frames it as one record.
func journalRecord(e journalEntry) ([]byte, error) {
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return cache.AppendRecord(nil, e.ID, data), nil
}

// append writes one record and, for a record replay acts on, fsyncs.
// Errors are swallowed after marking nothing: the journal is a recovery
// aid; a full disk must not take the daemon down with it.
func (j *Journal) append(e journalEntry, durable bool) {
	if j == nil {
		return
	}
	rec, err := journalRecord(e)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	if _, err := j.f.Write(rec); err == nil && durable {
		_ = j.f.Sync()
	}
}

// Close closes the underlying file. Further appends are silent no-ops —
// which is exactly what Manager.Kill leans on to simulate kill -9.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
