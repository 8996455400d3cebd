package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
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
// The format is one JSON object per line. Records that protect pending
// work — accepted, finished, requeued, takeover of a job that was queued —
// are fsynced per append. Lines replay ignores — a fleet's device progress,
// the finished line of a job answered at admission — are written without a
// flush of their own and become durable with the next synced record: the
// bytes survive the process dying, and a power loss can only drop lines
// recovery would have skipped. A torn final line (the crash happened
// mid-write) is tolerated and reported as a warning; corruption anywhere
// before the final record is an error, because a journal that lies in the
// middle cannot be trusted at all.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// journalEntry is one journal line.
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
	if _, err := j.f.Seek(0, 0); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, nil, fmt.Errorf("service: read journal: %w", err)
	}
	pending, warnings, err := replayJournal(data, j.path)
	if err != nil {
		return nil, warnings, err
	}
	if err := j.f.Truncate(0); err != nil {
		return nil, warnings, err
	}
	if _, err := j.f.Seek(0, 0); err != nil {
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

// replayJournal folds journal bytes into the pending set. A final line
// that fails to parse is a torn tail from a crash mid-append: it is
// skipped with a warning, because appends are whole lines in order: every
// earlier record was written out before it. An unparseable line anywhere
// else is corruption and fails the replay.
func replayJournal(data []byte, path string) ([]PendingJob, []string, error) {
	type pendingAt struct {
		job PendingJob
		seq int
	}
	pending := map[string]pendingAt{}
	var warnings []string
	seq := 0
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed journal ends with '\n', leaving one empty trailing
	// element; drop empties at the end but not in the middle.
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	for i, line := range lines {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			if i == len(lines)-1 {
				warnings = append(warnings, fmt.Sprintf(
					"journal %s: dropping torn final record (%d bytes): %v", path, len(line), err))
				continue
			}
			return nil, warnings, fmt.Errorf(
				"service: journal %s corrupt at line %d (not a torn tail): %v", path, i+1, err)
		}
		switch e.Op {
		case "accepted":
			if e.Spec != nil {
				pending[e.ID] = pendingAt{job: PendingJob{ID: e.ID, Spec: *e.Spec}, seq: seq}
				seq++
			}
		case "finished":
			delete(pending, e.ID)
		case "takeover":
			// Another replica reclaimed the job; it is no longer this
			// journal's responsibility.
			delete(pending, e.ID)
		case "requeued":
			// still pending; the entry only documents the drain
		case "device":
			// mid-fleet progress; the fleet job itself is re-run on
			// recovery and its finished device rows come back from the
			// job's checkpoint, so the entry is informational
		}
	}
	order := make([]pendingAt, 0, len(pending))
	for _, p := range pending {
		order = append(order, p)
	}
	sort.Slice(order, func(a, b int) bool { return order[a].seq < order[b].seq })
	out := make([]PendingJob, 0, len(order))
	for _, p := range order {
		out = append(out, p.job)
	}
	return out, warnings, nil
}

// Accepted records an admitted job before its submitter is answered.
func (j *Journal) Accepted(id string, spec JobSpec) {
	if j == nil {
		return
	}
	j.append(journalEntry{Op: "accepted", ID: id, Spec: &spec}, true)
}

// Finished records a terminal outcome; the job will not be recovered.
func (j *Journal) Finished(id string, state JobState) {
	if j == nil {
		return
	}
	j.append(journalEntry{Op: "finished", ID: id, State: string(state)}, true)
}

// answered records a job served from the artifact cache at admission. It
// was never pending — replay ignores a finished with no accepted — so the
// line documents the request without paying for a flush.
func (j *Journal) answered(id string) {
	if j == nil {
		return
	}
	j.append(journalEntry{Op: "finished", ID: id, State: string(StateDone)}, false)
}

// Device records one finished device row of a running fleet job, so an
// operator reading the journal after a crash can see how far the fleet
// got. Recovery does not replay these — the re-run fleet job recovers
// finished rows from its checkpoint instead, each fsynced there before its
// line — so they are not flushed one by one: the fleet's finished record
// syncs them.
func (j *Journal) Device(id, device, status string) {
	if j == nil {
		return
	}
	j.append(journalEntry{Op: "device", ID: id, Device: device, State: status}, false)
}

// Requeued documents that a drain left the job pending on purpose; it
// stays recoverable.
func (j *Journal) Requeued(id string) {
	if j == nil {
		return
	}
	j.append(journalEntry{Op: "requeued", ID: id}, true)
}

// AppendTakeover appends a takeover record to the journal at path (a
// dead peer's journal, not the caller's own): the named job is now owned
// by replica `by`. The append is direct — open, write one fsynced line,
// close — because the dead peer's journal has no live *Journal handle.
func AppendTakeover(path, jobID, by string) error {
	e := journalEntry{
		Op:   "takeover",
		ID:   jobID,
		By:   by,
		Time: time.Now().UTC().Format(time.RFC3339Nano),
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: append takeover: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("service: append takeover: %w", err)
	}
	return f.Sync()
}

// append writes one line and, for a record replay acts on, fsyncs. Errors
// are swallowed after marking nothing: the journal is a recovery aid; a
// full disk must not take the daemon down with it.
func (j *Journal) append(e journalEntry, durable bool) {
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	if _, err := j.f.Write(append(data, '\n')); err == nil && durable {
		_ = j.f.Sync()
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
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
