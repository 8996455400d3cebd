package service

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"p2go/internal/core"
	"p2go/internal/prof"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// TestMetricsExpositionGolden pins the /metrics exposition byte for byte:
// family order, HELP and TYPE text, sorted and escaped labels, empty
// families and pre-seeded kinds. It renders an empty registry and one
// that has seen every event kind, both beside the same analysis-cache
// counts and manager gauges. Run with -update to rewrite the golden file
// after a deliberate change to the exposition.
func TestMetricsExpositionGolden(t *testing.T) {
	stats := core.AnalysisCacheStats{CompileHits: 7, CompileMisses: 3, ProfileHits: 5, ProfileMisses: 2}
	gauges := map[string]float64{
		"p2god_jobs_queued":            2,
		"p2god_jobs_running":           1,
		"p2god_cache_entries":          12,
		"p2god_workers":                4,
		"p2god_queue_depth":            64,
		"p2god_profile_store_captures": 3,
		"p2god_profile_store_bytes":    40960,
	}
	var got bytes.Buffer
	render := func(title string, met *Metrics) {
		met.observeAnalyses(func() core.AnalysisCacheStats { return stats })
		fmt.Fprintf(&got, "## %s\n", title)
		met.WritePrometheus(&got, gauges)
	}
	render("empty registry", NewMetrics())
	met := NewMetrics()
	recordEveryEvent(met)
	render("every event", met)

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from %s (rerun with -update if the change is deliberate):\n%s", path, got.String())
	}
}

// recordEveryEvent drives one registry through every family, every label
// kind and every histogram, with label values that need escaping.
func recordEveryEvent(met *Metrics) {
	for range 3 {
		met.add(jobsSubmitted, "", 1)
	}
	met.add(queueRejected, "", 1)
	met.JobFinished(string(StateDone), 0.012)
	met.JobFinished(string(StateDone), 0)
	met.JobFinished(string(StateFailed), 1.5)
	met.JobFinished(string(StateCanceled), 40)
	met.observe(queueWait, "", 0.0007)
	met.observe(queueWait, "", 3)
	met.add(cacheHits, "job", 1)
	met.add(cacheMisses, "job", 1)
	met.add(cacheMisses, "fleetdev", 1)
	met.observe(phaseDuration, "baseline", 0.004)
	met.observe(phaseDuration, "phase2: merge \"t1\" \\ t2", 0.03)
	met.observe(phaseDuration, "phase4", 0.2)
	met.Replayed(20000, 0.004)
	met.Replayed(7, 0)
	met.add(fleetDevices, "optimized", 1)
	met.add(fleetDevices, "optimized", 1)
	met.add(fleetDevices, "skipped", 1)
	met.add(fleetDevices, "failed", 1)
	met.FleetJobCompleted(64, 2.25)
	met.FleetJobCompleted(3, 0.05)
	met.add(jobRetries, "", 1)
	met.add(workerPanics, "", 1)
	met.add(circuitOpened, "", 1)
	met.add(circuitRejected, "", 1)
	met.add(circuitRejected, "", 1)
	met.add(journalRecovered, "", 1)
	met.add(journalRequeued, "", 1)
	met.add(cacheCorruptions, "", 1)
	met.add(traceWriteErrors, "", 1)
	met.add(takeoverJobs, "", 1)
	met.add(fencedCommits, "", 1)
	met.add(leaseRenewals, "", 1)
	met.add(leaseRenewals, "", 1)
	met.add(leaseRenewFailures, "", 1)
	met.add(leaseAcquireFailures, "", 1)
	met.JobResources("optimize", prof.Usage{CPUSeconds: 0.75, HeapPeakBytes: 3 << 20, AllocObjects: 12345, AllocBytes: 9 << 20, GCCycles: 4})
	met.JobResources("fleet", prof.Usage{CPUSeconds: 0.125, HeapPeakBytes: 1 << 30, AllocObjects: 10, AllocBytes: 4096, GCCycles: 1})
	met.ProfileCaptured(prof.KindCPU, nil)
	met.ProfileCaptured(prof.KindHeap, nil)
	met.ProfileCaptured(prof.KindHeap, nil)
	met.ProfileCaptured(prof.KindCPU, errors.New("capture failed"))
}
