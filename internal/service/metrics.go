package service

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"p2go/internal/core"
	"p2go/internal/obs"
	"p2go/internal/prof"
)

// Metrics is the daemon's metric registry. It is deliberately tiny — a
// handful of counters and fixed-bucket histograms rendered in the
// Prometheus text exposition format — so the service stays stdlib-only.
//
// Latency-shaped quantities (phase wall time, job wall time, queue wait,
// replay throughput) are histograms.
type Metrics struct {
	mu sync.Mutex

	jobsSubmitted int64
	jobsFinished  map[string]int64 // by outcome: done, failed, canceled
	rejected      int64

	cacheHits   map[string]int64 // by artifact kind: job, fleetdev
	cacheMisses map[string]int64
	// analyses reads the lookup counters of the manager's analysis cache,
	// rendered as the compile and profile kinds of the two cache families;
	// nil (a registry without a manager) renders neither.
	analyses func() core.AnalysisCacheStats

	phaseDuration map[string]*obs.Histogram // by stage-history label
	jobDuration   map[string]*obs.Histogram // by outcome
	queueWait     *obs.Histogram
	replayRate    *obs.Histogram // packets/sec per replay

	packetsReplayed int64
	replaySeconds   float64

	// Fleet counters: network-wide jobs and their per-device fan-out by row
	// status. How much a homogeneous fleet deduped is in its report
	// (compile/profile hits and misses), not here.
	fleetJobs         int64
	fleetDevices      map[string]int64 // by row status: optimized, skipped, failed
	fleetDeviceFanout *obs.Histogram   // devices per fleet job
	fleetJobDuration  *obs.Histogram

	// Resilience counters: every degradation path the daemon takes is
	// counted here, so failures are observable rather than silent.
	jobRetries       int64
	workerPanics     int64
	circuitOpened    int64
	circuitRejected  int64
	journalRecovered int64
	journalRequeued  int64
	cacheCorruptions int64
	traceWriteErrors int64

	// Cluster counters: replica-group lease traffic and failover events.
	// Takeovers and fenced commits are the two that matter on a dashboard —
	// the first says a replica died and its work moved, the second says
	// fencing did its job on a stale replica.
	takeoverJobs         int64
	fencedCommits        int64
	leaseRenewals        int64
	leaseRenewFailures   int64
	leaseAcquireFailures int64

	// Resource attribution: what jobs cost the daemon itself. CPU time is
	// a histogram by job kind (plus a derived _total); allocs,
	// alloc bytes, and GC cycles are plain counters; peak heap per job is
	// a bytes histogram.
	jobCPU          map[string]*obs.Histogram // by job kind
	jobHeapPeak     *obs.Histogram
	jobAllocObjects int64
	jobAllocBytes   int64
	jobGCCycles     int64

	// Profile-store counters: self-captures taken (by kind) and failed.
	profileCaptures      map[string]int64 // by capture kind: cpu, heap
	profileCaptureErrors int64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobsFinished:  map[string]int64{},
		cacheHits:     map[string]int64{},
		cacheMisses:   map[string]int64{},
		phaseDuration: map[string]*obs.Histogram{},
		jobDuration:   map[string]*obs.Histogram{},
		queueWait:     obs.NewHistogram(obs.DurationBuckets()...),
		replayRate:    obs.NewHistogram(obs.ThroughputBuckets()...),
		fleetDevices:  map[string]int64{},
		fleetDeviceFanout: obs.NewHistogram(
			1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
		fleetJobDuration: obs.NewHistogram(obs.DurationBuckets()...),
		jobCPU:           map[string]*obs.Histogram{},
		jobHeapPeak:      obs.NewHistogram(obs.BytesBuckets()...),
		// Pre-seeded with the two known kinds so the family exposes
		// zero-valued series before the first capture — dashboards keyed
		// on it never see a missing series.
		profileCaptures: map[string]int64{prof.KindCPU: 0, prof.KindHeap: 0},
	}
}

// JobSubmitted counts an accepted submission.
func (m *Metrics) JobSubmitted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsSubmitted++
}

// QueueRejected counts a submission bounced on a full queue.
func (m *Metrics) QueueRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

// JobFinished counts a terminal job and observes its wall time in the
// per-outcome job-duration histogram.
func (m *Metrics) JobFinished(outcome string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsFinished[outcome]++
	h := m.jobDuration[outcome]
	if h == nil {
		h = obs.NewHistogram(obs.DurationBuckets()...)
		m.jobDuration[outcome] = h
	}
	h.Observe(seconds)
}

// QueueWaited observes how long a job sat in the queue before a worker
// picked it up.
func (m *Metrics) QueueWaited(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueWait.Observe(seconds)
}

// observeAnalyses sets the source of the compile and profile cache counts.
func (m *Metrics) observeAnalyses(stats func() core.AnalysisCacheStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.analyses = stats
}

// Cache counts one artifact-cache lookup of a byte artifact (a job result
// or a fleet device row). Compile and profile lookups are not counted one
// by one: the analysis cache counts them itself (see observeAnalyses).
func (m *Metrics) Cache(kind string, hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.cacheHits[kind]++
	} else {
		m.cacheMisses[kind]++
	}
}

// PhaseObserved observes wall time for one pipeline phase.
func (m *Metrics) PhaseObserved(phase string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.phaseDuration[phase]
	if h == nil {
		h = obs.NewHistogram(obs.DurationBuckets()...)
		m.phaseDuration[phase] = h
	}
	h.Observe(seconds)
}

// Replayed accumulates simulator replay volume and time, and observes the
// replay's throughput.
func (m *Metrics) Replayed(packets int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.packetsReplayed += int64(packets)
	m.replaySeconds += seconds
	if seconds > 0 {
		m.replayRate.Observe(float64(packets) / seconds)
	}
}

// FleetDevice counts one finished device row of a fleet job by status.
func (m *Metrics) FleetDevice(status string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fleetDevices[status]++
}

// FleetJobCompleted records one finished fleet job: its device fan-out
// and wall time.
func (m *Metrics) FleetJobCompleted(devices int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fleetJobs++
	m.fleetDeviceFanout.Observe(float64(devices))
	m.fleetJobDuration.Observe(seconds)
}

// JobRetried counts one transient-failure retry of a job.
func (m *Metrics) JobRetried() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobRetries++
}

// WorkerPanicked counts a worker panic converted into a failed job.
func (m *Metrics) WorkerPanicked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workerPanics++
}

// CircuitOpened counts a per-digest circuit breaker opening.
func (m *Metrics) CircuitOpened() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.circuitOpened++
}

// CircuitRejected counts a submission bounced off an open circuit.
func (m *Metrics) CircuitRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.circuitRejected++
}

// JournalRecovered counts a job re-submitted from the journal on start.
func (m *Metrics) JournalRecovered() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journalRecovered++
}

// JournalRequeued counts a queued job persisted for recovery at drain.
func (m *Metrics) JournalRequeued() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journalRequeued++
}

// CacheCorruptionDetected counts a corrupted cached artifact that was
// detected, purged, and recomputed.
func (m *Metrics) CacheCorruptionDetected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheCorruptions++
}

// TraceWriteFailed counts a per-job trace file that could not be written
// (the job itself is unaffected).
func (m *Metrics) TraceWriteFailed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.traceWriteErrors++
}

// TakeoverJob counts a job reclaimed from a dead replica's journal.
func (m *Metrics) TakeoverJob() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.takeoverJobs++
}

// FencedCommit counts a result commit rejected because the job's lease
// was superseded (the stale-replica write that fencing exists to stop).
func (m *Metrics) FencedCommit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fencedCommits++
}

// LeaseRenewed counts one membership/job lease renewal attempt.
func (m *Metrics) LeaseRenewed(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.leaseRenewals++
	} else {
		m.leaseRenewFailures++
	}
}

// LeaseAcquireFailed counts a job-lease acquisition that lost to another
// replica (held or raced).
func (m *Metrics) LeaseAcquireFailed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.leaseAcquireFailures++
}

// JobResources records one finished job's measured resource consumption:
// CPU seconds into the per-kind histogram, peak heap into the bytes
// histogram, allocation and GC deltas into the counters.
func (m *Metrics) JobResources(kind string, u prof.Usage) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.jobCPU[kind]
	if h == nil {
		h = obs.NewHistogram(obs.DurationBuckets()...)
		m.jobCPU[kind] = h
	}
	h.Observe(u.CPUSeconds)
	m.jobHeapPeak.Observe(float64(u.HeapPeakBytes))
	m.jobAllocObjects += u.AllocObjects
	m.jobAllocBytes += u.AllocBytes
	m.jobGCCycles += u.GCCycles
}

// ProfileCaptured counts one self-capture attempt of the given kind;
// a non-nil err counts it as failed instead.
func (m *Metrics) ProfileCaptured(kind string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.profileCaptureErrors++
		return
	}
	m.profileCaptures[kind]++
}

// WritePrometheus renders every metric, plus the caller-supplied gauges
// (queue depth, running jobs, cache entries — values owned by the
// manager), in the Prometheus text exposition format. Every family gets
// HELP and TYPE lines, and label sets are rendered in sorted key order,
// so the output is deterministic for a given registry state.
func (m *Metrics) WritePrometheus(w io.Writer, gauges map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, rows map[string]string, values map[string]float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		var keys []string
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if rows == nil {
				fmt.Fprintf(w, "%s %g\n", name, values[k])
			} else {
				fmt.Fprintf(w, "%s{%s=%q} %g\n", name, rows["label"], k, values[k])
			}
		}
	}
	histogram := func(name, help, labelKey string, hists map[string]*obs.Histogram) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		var keys []string
		for k := range hists {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if labelKey == "" {
				hists[k].WriteProm(w, name)
			} else {
				hists[k].WriteProm(w, name, obs.String(labelKey, k))
			}
		}
	}
	toF := func(in map[string]int64) map[string]float64 {
		out := make(map[string]float64, len(in))
		for k, v := range in {
			out[k] = float64(v)
		}
		return out
	}

	counter("p2god_jobs_submitted_total", "Jobs accepted into the queue.",
		nil, map[string]float64{"": float64(m.jobsSubmitted)})
	counter("p2god_jobs_finished_total", "Jobs reaching a terminal state, by outcome.",
		map[string]string{"label": "outcome"}, toF(m.jobsFinished))
	counter("p2god_queue_rejected_total", "Submissions bounced with 429 (queue full).",
		nil, map[string]float64{"": float64(m.rejected)})
	cacheHits, cacheMisses := toF(m.cacheHits), toF(m.cacheMisses)
	if m.analyses != nil {
		st := m.analyses()
		cacheHits["compile"], cacheMisses["compile"] = float64(st.CompileHits), float64(st.CompileMisses)
		cacheHits["profile"], cacheMisses["profile"] = float64(st.ProfileHits), float64(st.ProfileMisses)
	}
	counter("p2god_cache_hits_total", "Artifact cache hits, by artifact kind.",
		map[string]string{"label": "kind"}, cacheHits)
	counter("p2god_cache_misses_total", "Artifact cache misses (fills), by artifact kind.",
		map[string]string{"label": "kind"}, cacheMisses)
	counter("p2god_replayed_packets_total", "Packets replayed through the behavioral simulator.",
		nil, map[string]float64{"": float64(m.packetsReplayed)})
	counter("p2god_fleet_jobs_total", "Fleet (network-wide) jobs completed.",
		nil, map[string]float64{"": float64(m.fleetJobs)})
	counter("p2god_fleet_devices_total", "Fleet device rows finished, by row status.",
		map[string]string{"label": "status"}, toF(m.fleetDevices))
	counter("p2god_job_retries_total", "Transient job failures retried with backoff.",
		nil, map[string]float64{"": float64(m.jobRetries)})
	counter("p2god_worker_panics_total", "Worker panics recovered into failed jobs.",
		nil, map[string]float64{"": float64(m.workerPanics)})
	counter("p2god_circuit_opened_total", "Per-digest circuit breakers opened after repeated failures.",
		nil, map[string]float64{"": float64(m.circuitOpened)})
	counter("p2god_circuit_rejected_total", "Submissions rejected by an open circuit breaker.",
		nil, map[string]float64{"": float64(m.circuitRejected)})
	counter("p2god_journal_recovered_total", "Jobs recovered from the journal on restart.",
		nil, map[string]float64{"": float64(m.journalRecovered)})
	counter("p2god_journal_requeued_total", "Queued jobs persisted to the journal at drain.",
		nil, map[string]float64{"": float64(m.journalRequeued)})
	counter("p2god_cache_corruption_total", "Corrupted cached artifacts detected and recomputed.",
		nil, map[string]float64{"": float64(m.cacheCorruptions)})
	counter("p2god_trace_write_errors_total", "Per-job trace files that failed to persist.",
		nil, map[string]float64{"": float64(m.traceWriteErrors)})
	counter("p2god_cluster_takeover_jobs_total", "Jobs reclaimed from dead replicas' journals.",
		nil, map[string]float64{"": float64(m.takeoverJobs)})
	counter("p2god_cluster_fenced_commits_total", "Result commits rejected by stale-lease fencing.",
		nil, map[string]float64{"": float64(m.fencedCommits)})
	counter("p2god_cluster_lease_renewals_total", "Successful lease renewals.",
		nil, map[string]float64{"": float64(m.leaseRenewals)})
	counter("p2god_cluster_lease_renew_failures_total", "Failed lease renewal attempts.",
		nil, map[string]float64{"": float64(m.leaseRenewFailures)})
	counter("p2god_cluster_lease_acquire_failures_total", "Job-lease acquisitions lost to another replica.",
		nil, map[string]float64{"": float64(m.leaseAcquireFailures)})

	// Resource attribution. The _total counter is derived from the
	// per-kind CPU histogram sums.
	cpuSeconds := 0.0
	for _, h := range m.jobCPU {
		cpuSeconds += h.Sum()
	}
	counter("p2god_job_cpu_seconds_total", "Total process CPU time attributed to jobs.",
		nil, map[string]float64{"": cpuSeconds})
	counter("p2god_job_allocs_total", "Heap objects allocated while jobs ran.",
		nil, map[string]float64{"": float64(m.jobAllocObjects)})
	counter("p2god_job_alloc_bytes_total", "Heap bytes allocated while jobs ran.",
		nil, map[string]float64{"": float64(m.jobAllocBytes)})
	counter("p2god_job_gc_cycles_total", "GC cycles completed while jobs ran.",
		nil, map[string]float64{"": float64(m.jobGCCycles)})
	counter("p2god_profile_captures_total", "Self-profile captures stored, by capture kind.",
		map[string]string{"label": "kind"}, toF(m.profileCaptures))
	counter("p2god_profile_capture_errors_total", "Self-profile captures that failed.",
		nil, map[string]float64{"": float64(m.profileCaptureErrors)})

	histogram("p2god_phase_duration_seconds", "Pipeline phase wall time distribution, by phase.",
		"phase", m.phaseDuration)
	histogram("p2god_job_duration_seconds", "Job wall time distribution, by outcome.",
		"outcome", m.jobDuration)
	histogram("p2god_queue_wait_seconds", "Time jobs spent queued before a worker picked them up.",
		"", map[string]*obs.Histogram{"": m.queueWait})
	histogram("p2god_fleet_device_fanout", "Devices per fleet job.",
		"", map[string]*obs.Histogram{"": m.fleetDeviceFanout})
	histogram("p2god_fleet_job_duration_seconds", "Fleet job wall time distribution.",
		"", map[string]*obs.Histogram{"": m.fleetJobDuration})
	histogram("p2god_replay_rate_packets_per_second", "Per-replay simulator throughput distribution.",
		"", map[string]*obs.Histogram{"": m.replayRate})
	histogram("p2god_job_cpu_seconds", "Per-job process CPU time distribution, by job kind.",
		"kind", m.jobCPU)
	histogram("p2god_job_heap_peak_bytes", "Per-job peak in-use heap distribution.",
		"", map[string]*obs.Histogram{"": m.jobHeapPeak})

	var hits, misses float64
	for _, v := range cacheHits {
		hits += v
	}
	for _, v := range cacheMisses {
		misses += v
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	fmt.Fprintf(w, "# HELP p2god_cache_hit_ratio Overall artifact cache hit ratio.\n# TYPE p2god_cache_hit_ratio gauge\np2god_cache_hit_ratio %g\n", ratio)

	rate := 0.0
	if m.replaySeconds > 0 {
		rate = float64(m.packetsReplayed) / m.replaySeconds
	}
	fmt.Fprintf(w, "# HELP p2god_replay_packets_per_second Average simulator replay throughput.\n# TYPE p2god_replay_packets_per_second gauge\np2god_replay_packets_per_second %g\n", rate)

	var names []string
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# HELP %s Manager-owned gauge.\n# TYPE %s gauge\n%s %g\n", n, n, n, gauges[n])
	}
}
