package service

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"

	"p2go/internal/core"
	"p2go/internal/obs"
	"p2go/internal/prof"
)

// Metrics is the daemon's metric registry. It is deliberately tiny — the
// counters and fixed-bucket histograms declared in the table below,
// rendered in the Prometheus text exposition format — so the service
// stays stdlib-only. Latency-shaped quantities (phase wall time, job wall
// time, queue wait, replay throughput) are histograms.
//
// A series is recorded with add or observe; the event methods below are
// the events that record more than one series, plus ProfileCaptured,
// which the profile store takes as a callback.
type Metrics struct {
	mu sync.Mutex

	// counts holds each counter family's values by label value and hists
	// each histogram family's histograms by label value, indexed by
	// series; the other kind's slot is nil.
	counts []map[string]float64
	hists  []map[string]*obs.Histogram

	// replaySeconds is the replay time behind the derived average rate.
	replaySeconds float64
	// analyses reads the lookup counters of the manager's analysis cache,
	// rendered as the compile and profile kinds of the two cache families;
	// nil (a registry without a manager) renders neither.
	analyses func() core.AnalysisCacheStats
}

// family declares one metric family of the exposition.
type family struct {
	name, help string
	// label is the family's one label key; "" for a single unlabelled
	// series, which is exposed (at zero) from the start.
	label string
	// buckets are a histogram's bounds; nil for a counter.
	buckets []float64
	// seed lists label values exposed at zero before their first event,
	// so dashboards keyed on them never see a missing series.
	seed []string
}

// series names one family of the table.
type series int

// families is the table: every family, in exposition order.
var families []family

func counter(name, help, label string, seed ...string) series {
	families = append(families, family{name: name, help: help, label: label, seed: seed})
	return series(len(families) - 1)
}

func histogram(name, help, label string, buckets []float64) series {
	families = append(families, family{name: name, help: help, label: label, buckets: buckets})
	return series(len(families) - 1)
}

// The table, in exposition order (package variables initialise in
// declaration order).
var (
	jobsSubmitted = counter("p2god_jobs_submitted_total", "Jobs accepted into the queue.", "")
	jobsFinished  = counter("p2god_jobs_finished_total", "Jobs reaching a terminal state, by outcome.", "outcome")
	queueRejected = counter("p2god_queue_rejected_total", "Submissions bounced with 429 (queue full).", "")
	// Byte artifacts (job, fleetdev) are counted per lookup; the compile
	// and profile kinds are read from the analysis cache at scrape time.
	cacheHits       = counter("p2god_cache_hits_total", "Artifact cache hits, by artifact kind.", "kind")
	cacheMisses     = counter("p2god_cache_misses_total", "Artifact cache misses (fills), by artifact kind.", "kind")
	packetsReplayed = counter("p2god_replayed_packets_total", "Packets replayed through the behavioral simulator.", "")
	// Network-wide jobs and their per-device fan-out by row status. How
	// much a homogeneous fleet deduped is in its report, not here.
	fleetJobs    = counter("p2god_fleet_jobs_total", "Fleet (network-wide) jobs completed.", "")
	fleetDevices = counter("p2god_fleet_devices_total", "Fleet device rows finished, by row status.", "status")
	// Resilience: every degradation path the daemon takes is counted, so
	// failures are observable rather than silent.
	jobRetries       = counter("p2god_job_retries_total", "Transient job failures retried with backoff.", "")
	workerPanics     = counter("p2god_worker_panics_total", "Worker panics recovered into failed jobs.", "")
	circuitOpened    = counter("p2god_circuit_opened_total", "Per-digest circuit breakers opened after repeated failures.", "")
	circuitRejected  = counter("p2god_circuit_rejected_total", "Submissions rejected by an open circuit breaker.", "")
	journalRecovered = counter("p2god_journal_recovered_total", "Jobs recovered from the journal on restart.", "")
	journalRequeued  = counter("p2god_journal_requeued_total", "Queued jobs persisted to the journal at drain.", "")
	cacheCorruptions = counter("p2god_cache_corruption_total", "Corrupted cached artifacts detected and recomputed.", "")
	traceWriteErrors = counter("p2god_trace_write_errors_total", "Per-job trace files that failed to persist.", "")
	// Replica-group lease traffic and failover. Takeovers say a replica
	// died and its work moved; fenced commits say fencing stopped a stale
	// replica's write.
	takeoverJobs         = counter("p2god_cluster_takeover_jobs_total", "Jobs reclaimed from dead replicas' journals.", "")
	fencedCommits        = counter("p2god_cluster_fenced_commits_total", "Result commits rejected by stale-lease fencing.", "")
	leaseRenewals        = counter("p2god_cluster_lease_renewals_total", "Successful lease renewals.", "")
	leaseRenewFailures   = counter("p2god_cluster_lease_renew_failures_total", "Failed lease renewal attempts.", "")
	leaseAcquireFailures = counter("p2god_cluster_lease_acquire_failures_total", "Job-lease acquisitions lost to another replica.", "")
	// Resource attribution: what jobs cost the daemon itself. The CPU
	// total is derived at scrape time from the per-kind CPU histogram.
	jobCPUTotal          = counter("p2god_job_cpu_seconds_total", "Total process CPU time attributed to jobs.", "")
	jobAllocObjects      = counter("p2god_job_allocs_total", "Heap objects allocated while jobs ran.", "")
	jobAllocBytes        = counter("p2god_job_alloc_bytes_total", "Heap bytes allocated while jobs ran.", "")
	jobGCCycles          = counter("p2god_job_gc_cycles_total", "GC cycles completed while jobs ran.", "")
	profileCaptures      = counter("p2god_profile_captures_total", "Self-profile captures stored, by capture kind.", "kind", prof.KindCPU, prof.KindHeap)
	profileCaptureErrors = counter("p2god_profile_capture_errors_total", "Self-profile captures that failed.", "")

	phaseDuration     = histogram("p2god_phase_duration_seconds", "Pipeline phase wall time distribution, by phase.", "phase", obs.DurationBuckets())
	jobDuration       = histogram("p2god_job_duration_seconds", "Job wall time distribution, by outcome.", "outcome", obs.DurationBuckets())
	queueWait         = histogram("p2god_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.", "", obs.DurationBuckets())
	fleetDeviceFanout = histogram("p2god_fleet_device_fanout", "Devices per fleet job.", "",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096})
	fleetJobDuration = histogram("p2god_fleet_job_duration_seconds", "Fleet job wall time distribution.", "", obs.DurationBuckets())
	replayRate       = histogram("p2god_replay_rate_packets_per_second", "Per-replay simulator throughput distribution.", "", obs.ThroughputBuckets())
	jobCPU           = histogram("p2god_job_cpu_seconds", "Per-job process CPU time distribution, by job kind.", "kind", obs.DurationBuckets())
	jobHeapPeak      = histogram("p2god_job_heap_peak_bytes", "Per-job peak in-use heap distribution.", "", obs.BytesBuckets())
)

// NewMetrics creates an empty registry: every unlabelled series and every
// seeded label value exposed at zero.
func NewMetrics() *Metrics {
	m := &Metrics{
		counts: make([]map[string]float64, len(families)),
		hists:  make([]map[string]*obs.Histogram, len(families)),
	}
	for s, f := range families {
		labels := f.seed
		if f.label == "" {
			labels = []string{""}
		}
		if f.buckets == nil {
			m.counts[s] = map[string]float64{}
			for _, l := range labels {
				m.counts[s][l] = 0
			}
			continue
		}
		m.hists[s] = map[string]*obs.Histogram{}
		for _, l := range labels {
			m.hist(series(s), l)
		}
	}
	return m
}

// add adds v to a counter series.
func (m *Metrics) add(s series, label string, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[s][label] += v
}

// observe records v in a histogram series.
func (m *Metrics) observe(s series, label string, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist(s, label).Observe(v)
}

// hist returns a histogram series, creating it on first use. The caller
// holds mu.
func (m *Metrics) hist(s series, label string) *obs.Histogram {
	h := m.hists[s][label]
	if h == nil {
		h = obs.NewHistogram(families[s].buckets...)
		m.hists[s][label] = h
	}
	return h
}

// either picks the series a two-way event lands in: yes if ok, else no.
func either(ok bool, yes, no series) series {
	if ok {
		return yes
	}
	return no
}

// observeAnalyses sets the source of the compile and profile cache counts.
func (m *Metrics) observeAnalyses(stats func() core.AnalysisCacheStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.analyses = stats
}

// JobFinished counts a terminal job and observes its wall time in the
// per-outcome job-duration histogram.
func (m *Metrics) JobFinished(outcome string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[jobsFinished][outcome]++
	m.hist(jobDuration, outcome).Observe(seconds)
}

// Replayed accumulates simulator replay volume and time, and observes the
// replay's throughput.
func (m *Metrics) Replayed(packets int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[packetsReplayed][""] += float64(packets)
	m.replaySeconds += seconds
	if seconds > 0 {
		m.hist(replayRate, "").Observe(float64(packets) / seconds)
	}
}

// FleetJobCompleted records one finished fleet job: its device fan-out
// and wall time.
func (m *Metrics) FleetJobCompleted(devices int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[fleetJobs][""]++
	m.hist(fleetDeviceFanout, "").Observe(float64(devices))
	m.hist(fleetJobDuration, "").Observe(seconds)
}

// JobResources records one finished job's measured resource consumption:
// CPU seconds into the per-kind histogram, peak heap into the bytes
// histogram, allocation and GC deltas into the counters.
func (m *Metrics) JobResources(kind string, u prof.Usage) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist(jobCPU, kind).Observe(u.CPUSeconds)
	m.hist(jobHeapPeak, "").Observe(float64(u.HeapPeakBytes))
	m.counts[jobAllocObjects][""] += float64(u.AllocObjects)
	m.counts[jobAllocBytes][""] += float64(u.AllocBytes)
	m.counts[jobGCCycles][""] += float64(u.GCCycles)
}

// ProfileCaptured counts one self-capture attempt of the given kind;
// a non-nil err counts it as failed instead.
func (m *Metrics) ProfileCaptured(kind string, err error) {
	if err != nil {
		m.add(profileCaptureErrors, "", 1)
		return
	}
	m.add(profileCaptures, kind, 1)
}

// WritePrometheus renders every family of the table, the derived gauges,
// and the caller-supplied gauges (queue depth, running jobs, cache
// entries — values owned by the manager) in the Prometheus text
// exposition format. Every family gets HELP and TYPE lines, and label
// sets are rendered in sorted order, so the output is deterministic for a
// given registry state.
func (m *Metrics) WritePrometheus(w io.Writer, gauges map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	// Derived counters replace their series in a scrape-time view.
	counts := slices.Clone(m.counts)
	cpuSeconds := 0.0
	for _, h := range m.hists[jobCPU] {
		cpuSeconds += h.Sum()
	}
	counts[jobCPUTotal] = map[string]float64{"": cpuSeconds}
	if m.analyses != nil {
		st := m.analyses()
		analysed := func(s series, compile, profile int) {
			counts[s] = maps.Clone(counts[s])
			counts[s]["compile"], counts[s]["profile"] = float64(compile), float64(profile)
		}
		analysed(cacheHits, st.CompileHits, st.ProfileHits)
		analysed(cacheMisses, st.CompileMisses, st.ProfileMisses)
	}

	for s, f := range families {
		if f.buckets != nil {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.name, f.help, f.name)
			for _, k := range sortedKeys(m.hists[s]) {
				if f.label == "" {
					m.hists[s][k].WriteProm(w, f.name)
				} else {
					m.hists[s][k].WriteProm(w, f.name, obs.String(f.label, k))
				}
			}
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name)
		for _, k := range sortedKeys(counts[s]) {
			if f.label == "" {
				fmt.Fprintf(w, "%s %g\n", f.name, counts[s][k])
			} else {
				fmt.Fprintf(w, "%s{%s=%q} %g\n", f.name, f.label, k, counts[s][k])
			}
		}
	}

	var hits, misses float64
	for _, v := range counts[cacheHits] {
		hits += v
	}
	for _, v := range counts[cacheMisses] {
		misses += v
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	fmt.Fprintf(w, "# HELP p2god_cache_hit_ratio Overall artifact cache hit ratio.\n# TYPE p2god_cache_hit_ratio gauge\np2god_cache_hit_ratio %g\n", ratio)

	rate := 0.0
	if m.replaySeconds > 0 {
		rate = counts[packetsReplayed][""] / m.replaySeconds
	}
	fmt.Fprintf(w, "# HELP p2god_replay_packets_per_second Average simulator replay throughput.\n# TYPE p2god_replay_packets_per_second gauge\np2god_replay_packets_per_second %g\n", rate)

	for _, n := range sortedKeys(gauges) {
		fmt.Fprintf(w, "# HELP %s Manager-owned gauge.\n# TYPE %s gauge\n%s %g\n", n, n, n, gauges[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
