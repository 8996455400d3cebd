package service

import (
	"context"
	"encoding/json"
	"time"

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
// those compiles with single jobs. Whole device rows go through the same
// artifact cache as bytes — and so reach its disk spill — which is what
// lets a fleet job killed mid-run (kill -9) recompute only the devices
// that had not finished when it is recovered from the journal.
func (m *Manager) executeFleet(ctx context.Context, job *Job) ([]byte, error) {
	start := time.Now()
	res, err := fleet.Run(ctx, *job.Spec.Fleet, fleet.Options{
		Core:        m.coreOptions(job),
		DeviceCache: deviceCache{m: m},
		OnDevice: func(row report.FleetDevice) {
			m.cfg.Journal.Device(job.ID, row.Device, row.Status)
			m.metrics.FleetDevice(row.Status)
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
	if job.meter != nil {
		res.Resources = report.FromUsage(job.meter.Sample())
	}
	return json.Marshal(res)
}

// deviceCache adapts the manager's artifact cache to the fleet runner's
// DeviceCache: whole per-device rows stored under a "fleetdev" kind, so
// they ride the same LRU bound and disk spill as every other artifact.
type deviceCache struct{ m *Manager }

func (d deviceCache) Get(key string) ([]byte, bool) {
	data, ok := d.m.cache.GetBytes("fleetdev:" + key)
	d.m.metrics.Cache("fleetdev", ok)
	return data, ok
}

func (d deviceCache) Put(key string, data []byte) {
	d.m.cache.PutBytes("fleetdev:"+key, data)
}
