package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"p2go/internal/cache"
	"p2go/internal/fleet"
	"p2go/internal/report"
)

// executeFleet runs a Kind "fleet" job: the fleet runner collects every
// device's observed trace and fans per-device optimizations across its
// own bounded pool (the job occupies exactly one service worker, so a
// fleet can never deadlock the job queue it was submitted through).
//
// Devices run over the daemon's analysis cache like every other job, so a
// homogeneous fleet of N devices compiles ~once, not N times, and shares
// those compiles with single jobs. Every optimized device row is appended
// to the job's checkpoint (see deviceCache) before its journal line, which
// is what lets a fleet job killed mid-run (kill -9) recompute only the
// devices that had not finished when it is recovered from the journal.
func (m *Manager) executeFleet(ctx context.Context, job *Job) ([]byte, error) {
	start := time.Now()
	rows := m.openDeviceCache(job.Digest)
	defer rows.close()
	res, err := fleet.Run(ctx, *job.Spec.Fleet, fleet.Options{
		Core:        m.coreOptions(job),
		DeviceCache: rows,
		OnDevice: func(row report.FleetDevice) {
			m.cfg.Journal.Device(job.ID, row.Device, row.Status)
			m.metrics.add(fleetDevices, row.Status, 1)
			m.logger.Info("fleet device finished",
				"job_id", job.ID, "digest", job.Digest, "replica_id", job.replica,
				"device", row.Device, "status", row.Status, "packets", row.Packets,
				"cached", row.Cached)
		},
		Faults: m.cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	m.metrics.FleetJobCompleted(res.DeviceCount, time.Since(start).Seconds())
	if job.replica != "" {
		// Attribution only; report.FleetEquivalent ignores it, so the
		// survivor's result after a takeover still compares equal.
		res.Replica = job.replica
	}
	// Resource attribution rides the same rule: FleetEquivalent ignores
	// it, like timings and cache counters.
	res.Resources = m.jobResources(job)
	return json.Marshal(res)
}

// checkpointPath is where the fleet job of the given digest keeps its
// checkpoint: beside the cache's spill, so a restarted daemon and every
// replica sharing the directory find it. "" without a spill directory.
func (m *Manager) checkpointPath(digest string) string {
	if m.cache.Dir() == "" {
		return ""
	}
	return filepath.Join(m.cache.Dir(), "fleetckpt_"+digest)
}

// removeCheckpoint deletes a done fleet's checkpoint: its report is stored,
// so no run of its digest needs the rows again.
func (m *Manager) removeCheckpoint(digest string) {
	if path := m.checkpointPath(digest); path != "" {
		_ = os.Remove(path)
	}
}

// deviceCache is the fleet runner's DeviceCache for one fleet job. A row is
// served from the job's checkpoint, read once when the job starts, or from
// the store's memory, where every optimized row also lives under a
// "fleetdev:" key (so fleets in one process share rows under the store's
// one bound). Put appends the row to the checkpoint and fsyncs it before it
// returns, so a row is durable before OnDevice journals its device line.
//
// The checkpoint is one append-only file of cache records (key = device
// key, value = the row) per fleet job, named by the job's digest: a
// restarted daemon, a peer taking the job over and a resubmission of a
// canceled or failed fleet all resume from it. A done fleet removes it
// (Manager.lookupJob). Rows are never read back from the spill: after a
// restart a fleet of another spec recomputes them.
type deviceCache struct {
	m    *Manager
	path string            // "" without a spill directory
	rows map[string][]byte // the checkpoint's valid records at job start
	// valid is the length of the checkpoint's valid prefix; torn says a bad
	// or short record follows it, which the first append cuts off.
	valid int64
	torn  bool

	mu  sync.Mutex
	f   *os.File // opened on the first Put
	err error    // why it could not be
}

// errNotInMemory is the fill of a memory-only row lookup: Do never reads
// the spill, and a fill that refuses stores nothing.
var errNotInMemory = errors.New("service: device row not in memory")

// openDeviceCache reads the checkpoint of the fleet job with this digest.
func (m *Manager) openDeviceCache(digest string) *deviceCache {
	d := &deviceCache{m: m, path: m.checkpointPath(digest)}
	if d.path == "" {
		return d
	}
	data, err := os.ReadFile(d.path)
	if err != nil {
		return d
	}
	recs, n := cache.ReadRecords(data)
	d.rows = make(map[string][]byte, len(recs))
	for _, r := range recs {
		d.rows[r.Key] = r.Val
	}
	d.valid, d.torn = int64(n), n < len(data)
	return d
}

func (d *deviceCache) Get(key string) ([]byte, bool) {
	data, ok := d.rows[key]
	if !ok {
		v, _, err := d.m.cache.Do("fleetdev:"+key, func() (any, error) { return nil, errNotInMemory })
		if err == nil {
			data, ok = v.([]byte)
		}
	}
	d.m.metrics.add(either(ok, cacheHits, cacheMisses), "fleetdev", 1)
	return data, ok
}

func (d *deviceCache) Put(key string, data []byte) {
	d.m.cache.Do("fleetdev:"+key, func() (any, error) { return data, nil })
	f := d.file()
	if f == nil {
		return
	}
	// One Write per record: appends from this job's devices, or from a
	// peer still finishing the same digest, never interleave.
	// A failed write or sync costs a recompute after a crash and nothing
	// else: the row is in memory and in this run's report.
	if _, err := f.Write(cache.AppendRecord(nil, key, data)); err == nil {
		_ = f.Sync()
	}
}

// file opens the checkpoint for appending on the first Put, cutting off a
// torn tail so this run's records are readable after it, and makes a newly
// created file's name durable. A checkpoint that cannot be opened leaves
// the rows in memory only: the checkpoint is a recovery aid, like the
// journal.
func (d *deviceCache) file() *os.File {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f != nil || d.err != nil || d.path == "" {
		return d.f
	}
	created := d.rows == nil
	f, err := os.OpenFile(d.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err == nil && d.torn {
		err = f.Truncate(d.valid)
	}
	if err != nil {
		if f != nil {
			f.Close()
		}
		d.err = err
		return nil
	}
	if created {
		if dir, err := os.Open(filepath.Dir(d.path)); err == nil {
			_ = dir.Sync()
			_ = dir.Close()
		}
	}
	d.f = f
	return f
}

// close closes the checkpoint; the fleet job has stopped appending.
func (d *deviceCache) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f != nil {
		_ = d.f.Close()
		d.f = nil
	}
}
