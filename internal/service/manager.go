package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"p2go/internal/cluster"
	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/prof"
	"p2go/internal/profile"
	"p2go/internal/report"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull means the bounded queue has no room (429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining means the manager is shutting down (503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrCircuitOpen means the spec's digest has failed persistently and
	// its circuit breaker is rejecting re-submissions until the cooldown
	// elapses (503 with Retry-After).
	ErrCircuitOpen = errors.New("service: circuit open for this job spec")
)

// transientError marks a failure worth retrying with backoff.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so the manager's per-job retry loop re-runs
// the job instead of failing it outright.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// maxFinishedJobs bounds how many terminal jobs are retained for status
// queries; the oldest are pruned first. Results stay available through
// the artifact cache regardless.
const maxFinishedJobs = 256

// maxWait caps how long one Wait (one GET ...?wait=) may park: a waiting
// client costs a request per half minute, a vanished one's goroutine is
// reclaimed within it.
const maxWait = 30 * time.Second

// ManagerConfig sizes the job manager.
type ManagerConfig struct {
	// Workers is the worker-pool size; <=0 means 2.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; <=0 means 16.
	QueueDepth int
	// JobTimeout bounds each job's run; 0 means no server-side default
	// (a job may still request its own).
	JobTimeout time.Duration
	// Cache is the artifact cache; nil means a fresh memory-only cache.
	Cache *Cache
	// Metrics is the registry; nil means a fresh one.
	Metrics *Metrics
	// Journal, when set, records accepted and finished jobs so that
	// queued/running work survives a crash or drain. nil disables it.
	Journal *Journal
	// MaxJobRetries bounds how many times a transiently-failing job is
	// re-run before failing for good; 0 means 2, negative disables retry.
	MaxJobRetries int
	// RetryBackoff is the first retry's delay (doubling per attempt);
	// <=0 means 10ms.
	RetryBackoff time.Duration
	// BreakerThreshold opens a spec's circuit after this many consecutive
	// failures; 0 means 3, negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects re-submissions
	// before allowing one trial job; <=0 means 30s.
	BreakerCooldown time.Duration
	// Faults is the fault-injection set for chaos tests; nil is inert.
	Faults *faults.Set
	// TraceDir, when set, persists each job's span tree as
	// <dir>/<job-id>.trace.json in Chrome trace-event format at job
	// finish. Traces are also always kept in memory (bounded) and served
	// by GET /jobs/{id}/trace regardless of this setting.
	TraceDir string
	// Parallelism is the default per-job worker count for sharded trace
	// replay and the Phase 3/4 candidate fan-out (core.Options
	// .Parallelism). 0 means one worker per CPU; 1 forces sequential.
	// A job may override it with JobSpec.Parallelism. Results are
	// parallelism-independent, so this does not enter cache keys or job
	// digests.
	Parallelism int
	// Cluster, when set, joins this manager to a replica group: job
	// ownership is guarded by per-digest leases with epoch fencing, job
	// IDs are replica-prefixed, and the manager reclaims
	// accepted-but-unfinished work from dead peers' journals. nil means
	// standalone (all lease machinery is skipped).
	Cluster *cluster.Node
	// ClusterRenewEvery is the period of the background cluster loop
	// (membership + job-lease renewal, then a takeover scan). 0 means
	// TTL/3. Negative disables the loop so tests can drive renewal and
	// takeover manually with RenewJobLeases/TakeoverScan.
	ClusterRenewEvery time.Duration
	// Peers is the replica set's advertised HTTP addresses, served at
	// GET /cluster so clients can discover the set for digest routing and
	// failover. Informational only — coordination runs over the shared
	// directory, not these addresses.
	Peers []string
	// Profiles, when set, is the daemon's self-profile store: its
	// captures are counted in the metrics and served at
	// GET /debug/profiles[/{id}]. nil disables the endpoints.
	Profiles *prof.Store
	// Logger receives structured job-lifecycle logs (accepted, started,
	// finished, fleet device rows), every line carrying job_id, digest,
	// and replica_id so logs correlate with traces and metrics. nil
	// discards them.
	Logger *slog.Logger
}

// jobTraceSpanCap bounds the spans retained per job; past it the
// collector counts drops instead of growing. A full optimize run on the
// seed workloads emits a few hundred spans.
const jobTraceSpanCap = 8192

// breakerState tracks one digest's consecutive failures.
type breakerState struct {
	fails     int
	openUntil time.Time
}

// Manager owns the job table, the bounded queue, and the worker pool.
type Manager struct {
	cfg     ManagerConfig
	cache   *Cache
	metrics *Metrics
	logger  *slog.Logger

	// analysis is the daemon's one view of the artifact cache for compiles,
	// profiles and prepared plans. Every job — optimize, profile, each
	// device of a fleet — runs over it, so analyses dedup across devices
	// and across jobs, single-flight, under the cache's LRU bound.
	analysis *core.AnalysisCache

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	queue    chan *Job
	queued   int
	running  int
	terminal int // tracked jobs in a terminal state; what pruneLocked bounds
	draining bool
	drainCh  chan struct{} // closed when draining is set; releases every Wait
	killed   bool          // Kill() simulated kill -9; suppress journal/lease writes
	seq      int
	breakers map[string]*breakerState // by job digest

	wg sync.WaitGroup
	// clusterWG tracks the background cluster loop; it is separate from wg
	// because Drain waits on the workers before canceling baseCtx, and the
	// cluster loop only exits on that cancel.
	clusterWG sync.WaitGroup

	// execFn computes a job's result bytes; replaced in tests to make
	// job behavior controllable. Production value is (*Manager).execute.
	execFn func(ctx context.Context, job *Job) ([]byte, error)
	// sleep is the retry-backoff clock; replaced in tests.
	sleep func(time.Duration)
	// now is the breaker clock; replaced in tests.
	now func() time.Time
}

// NewManager creates a manager; call Start to launch the workers.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Cache == nil {
		cfg.Cache = NewCache(0, "")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	switch {
	case cfg.MaxJobRetries == 0:
		cfg.MaxJobRetries = 2
	case cfg.MaxJobRetries < 0:
		cfg.MaxJobRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 3
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // disabled
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		cache:      cfg.Cache,
		metrics:    cfg.Metrics,
		logger:     cfg.Logger,
		analysis:   core.NewAnalysisCacheOver(cfg.Cache),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		queue:      make(chan *Job, cfg.QueueDepth),
		drainCh:    make(chan struct{}),
		breakers:   map[string]*breakerState{},
	}
	m.metrics.observeAnalyses(m.analysis.Stats)
	if cfg.Profiles != nil {
		// The store predates the manager; route its capture outcomes into
		// this registry now that both exist.
		cfg.Profiles.SetOnCapture(m.metrics.ProfileCaptured)
	}
	m.execFn = m.execute
	m.sleep = time.Sleep
	m.now = time.Now
	return m
}

// replicaID names this replica within its group; "" standalone. Logged
// on every lifecycle line so multi-replica logs stay attributable.
func (m *Manager) replicaID() string {
	if m.cfg.Cluster != nil {
		return m.cfg.Cluster.ID()
	}
	return ""
}

// Profiles returns the self-profile store (nil when disabled).
func (m *Manager) Profiles() *prof.Store { return m.cfg.Profiles }

// Metrics returns the registry (for the HTTP layer).
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Cache returns the artifact cache.
func (m *Manager) Cache() *Cache { return m.cache }

// Start launches the worker pool, and — in cluster mode — the background
// lease loop (membership + job-lease renewal, then a takeover scan).
func (m *Manager) Start() {
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.cfg.Cluster != nil && m.cfg.ClusterRenewEvery >= 0 {
		every := m.cfg.ClusterRenewEvery
		if every == 0 {
			every = m.cfg.Cluster.TTL() / 3
		}
		m.clusterWG.Add(1)
		go m.clusterLoop(every)
	}
}

// Submit validates and registers a job. A spec whose result the artifact
// cache already holds is answered on the spot — the returned status is
// terminal, done and cached; anything else is enqueued. It returns
// ErrQueueFull when the bounded queue has no room for a job that needs a
// worker and ErrDraining during shutdown.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	return m.submit(spec, "", "", nil)
}

// submit is the shared admission path. presetID keeps a recovered or
// taken-over job's original ID; takenOverFrom and lease are set when the
// job was reclaimed from a dead replica (the lease was acquired by the
// takeover scan and is handed to the worker).
func (m *Manager) submit(spec JobSpec, presetID, takenOverFrom string, lease *cluster.JobLease) (JobStatus, error) {
	if err := spec.normalize(); err != nil {
		return JobStatus{}, err
	}
	job := &Job{
		Spec:          spec,
		Digest:        spec.digest(),
		state:         StateQueued,
		done:          make(chan struct{}),
		createdAt:     time.Now(),
		lease:         lease,
		takenOverFrom: takenOverFrom,
	}
	if m.cfg.Cluster != nil {
		job.replica = m.cfg.Cluster.ID()
	}
	// A request whose answer is already in the artifact cache asks for no
	// work and gets none: no queue slot, worker, meter, lease or write-ahead
	// record. The probe runs before the lock — it may read the spill, and
	// the disk must never stall every Get and every worker's state flip.
	// Recovered and taken-over jobs stay on the queued path: their lease
	// hand-off and takeover-record ordering live in the worker.
	var hit []byte
	if presetID == "" {
		key := "job:" + job.Digest
		if out, ok := m.cache.ProbeBytes(key); ok && m.validHit(key, out) {
			hit = out
		}
	}
	m.mu.Lock()
	st, err := m.admitLocked(job, presetID, hit)
	m.mu.Unlock()
	if err == nil && hit != nil {
		// After the lock: nobody else waits for this request's file writes.
		m.persistTrace(job.ID, job.trace)
		m.cfg.Journal.answered(job.ID)
		m.metrics.Cache("job", true)
		m.metrics.JobFinished(string(StateDone), 0)
		m.logger.Info("job finished",
			"job_id", job.ID, "kind", spec.Kind, "digest", job.Digest,
			"replica_id", job.replica, "outcome", string(StateDone),
			"cached", true, "admission", true, "seconds", 0.0)
	}
	return st, err
}

// admitLocked refuses the job (draining, open breaker, full queue) or
// registers it: terminal already when hit is its cached result, queued and
// journaled otherwise.
func (m *Manager) admitLocked(job *Job, presetID string, hit []byte) (JobStatus, error) {
	if m.draining {
		return JobStatus{}, ErrDraining
	}
	if b, ok := m.breakers[job.Digest]; ok && b.fails >= m.cfg.BreakerThreshold {
		if m.now().Before(b.openUntil) {
			m.metrics.CircuitRejected()
			return JobStatus{}, ErrCircuitOpen
		}
		// Half-open: admit one trial and push the window out so a
		// burst of re-submissions cannot stampede a failing spec.
		b.openUntil = m.now().Add(m.cfg.BreakerCooldown)
	}
	job.ID = presetID
	if presetID == "" {
		job.ID = m.nextIDLocked()
	} else if _, taken := m.jobs[presetID]; taken {
		return JobStatus{}, fmt.Errorf("service: job %q already tracked", presetID)
	}
	if hit != nil {
		job.cached, job.result = true, hit
		job.startedAt = job.createdAt
		m.finishLocked(job, StateDone, "")
		job.trace = admissionTrace(job)
		m.breakerUpdateLocked(job.Digest, StateDone)
	} else {
		select {
		case m.queue <- job:
		default:
			if presetID == "" {
				m.seq-- // not admitted; reuse the ID
			}
			m.metrics.QueueRejected()
			return JobStatus{}, ErrQueueFull
		}
		m.queued++
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.pruneLocked()
	m.metrics.JobSubmitted()
	attrs := []any{"job_id", job.ID, "kind", job.Spec.Kind, "workload", job.Spec.Workload,
		"digest", job.Digest, "replica_id", job.replica}
	if job.takenOverFrom != "" {
		attrs = append(attrs, "taken_over_from", job.takenOverFrom)
	}
	if hit == nil {
		// Journal while still holding the lock: a worker that pops this job
		// cannot record "finished" before "accepted" is durable. (A job
		// answered from the cache was never pending: no record.)
		m.cfg.Journal.Accepted(job.ID, job.Spec)
	}
	m.logger.Info("job accepted", attrs...)
	return job.statusLocked(false), nil
}

// validHit reports whether a cached job artifact may be served. Job
// results are JSON by construction; one that no longer parses was
// corrupted (bit rot, torn spill write, or an injected fault) and is
// purged, so the caller's next lookup recomputes it. Every hit passes
// through here, which is what lets writeJSON splice stored bytes unscanned.
func (m *Manager) validHit(key string, out []byte) bool {
	if !m.cfg.Faults.Fire(faults.CacheCorrupt) && json.Valid(out) {
		return true
	}
	m.metrics.CacheCorruptionDetected()
	m.cache.Delete(key)
	return false
}

// jobSpanAttrs identifies a job on its trace's root span.
func jobSpanAttrs(job *Job) []obs.Attr {
	attrs := []obs.Attr{
		obs.String("id", job.ID),
		obs.String("kind", job.Spec.Kind),
		obs.String("workload", job.Spec.Workload),
		obs.Int64("seed", job.Spec.Seed),
		obs.String("digest", job.Digest),
	}
	if job.replica != "" {
		attrs = append(attrs, obs.String("replica", job.replica))
	}
	return attrs
}

// admissionTrace is the span tree of a job answered at admission, in the
// shape a worker-run cache hit has — a job root over one cache.lookup, which
// is all the job was — so GET /jobs/{id}/trace explains it like any other.
func admissionTrace(job *Job) *obs.Collector {
	took := job.finishedAt.Sub(job.createdAt)
	col := obs.NewCollector(2)
	col.Export(obs.SpanData{ID: 2, ParentID: 1, Name: "cache.lookup", Start: job.createdAt, Duration: took,
		Attrs: []obs.Attr{obs.String("kind", "job"), obs.String("key", "job:"+job.Digest), obs.Bool("hit", true)}})
	col.Export(obs.SpanData{ID: 1, Name: "job", Start: job.createdAt, Duration: took,
		Attrs: append(jobSpanAttrs(job), obs.String("outcome", string(StateDone)),
			obs.Bool("cache_hit", true), obs.Bool("admission", true))})
	return col
}

// nextIDLocked mints the next job ID: replica-prefixed in cluster mode
// so IDs are unique across the group, and skipping IDs already tracked
// (a recovered job re-submitted under its original ID can occupy a slot
// the sequence would otherwise mint).
func (m *Manager) nextIDLocked() string {
	for {
		m.seq++
		id := fmt.Sprintf("j-%06d", m.seq)
		if m.cfg.Cluster != nil {
			id = m.cfg.Cluster.ID() + "-" + id
		}
		if _, taken := m.jobs[id]; !taken {
			return id
		}
	}
}

// Requeue re-submits jobs recovered from the journal, before Start,
// preserving their original IDs so clients polling a pre-crash ID get
// the result. It returns how many were accepted; jobs bounced by a full
// queue (or an open breaker) are dropped with a count.
func (m *Manager) Requeue(pending []PendingJob) (accepted, dropped int) {
	for _, p := range pending {
		if _, err := m.submit(p.Spec, p.ID, "", nil); err != nil {
			dropped++
			continue
		}
		accepted++
		m.metrics.JournalRecovered()
	}
	return accepted, dropped
}

// Get returns a job's status; includeResult attaches the result JSON.
func (m *Manager) Get(id string, includeResult bool) (JobStatus, bool) {
	return m.Wait(context.Background(), id, 0, includeResult)
}

// Wait is Get that first parks for up to d (capped at maxWait) until the
// job is terminal. It returns early — with whatever state the job is in —
// when ctx ends or the manager begins draining, so a long poll never
// outlives its request or holds up a shutdown; d <= 0 does not park.
func (m *Manager) Wait(ctx context.Context, id string, d time.Duration, includeResult bool) (JobStatus, bool) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if ok && d > 0 && !job.state.Terminal() && !m.draining {
		m.mu.Unlock()
		t := time.NewTimer(min(d, maxWait))
		select {
		case <-job.done:
		case <-t.C:
		case <-ctx.Done():
		case <-m.drainCh:
		}
		t.Stop()
		m.mu.Lock()
	}
	defer m.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return job.statusLocked(includeResult), true
}

// List returns every tracked job in submission order, without results.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		if job, ok := m.jobs[id]; ok {
			out = append(out, job.statusLocked(false))
		}
	}
	return out
}

// Cancel requests cancellation: a queued job is skipped when a worker
// pops it; a running job has its context canceled and its worker slot
// released as soon as the pipeline notices.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("unknown job %q", id)
	}
	if job.state.Terminal() {
		return job.statusLocked(false), nil
	}
	job.canceled = true
	if job.cancel != nil {
		job.cancel()
	}
	return job.statusLocked(false), nil
}

// Counts reports the queue and pool occupancy.
func (m *Manager) Counts() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running
}

// Draining reports whether shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// DrainReport says what happened to each non-terminal job at shutdown.
type DrainReport struct {
	// Requeued lists queued jobs persisted to the journal for recovery
	// on the next start (only when a journal is configured).
	Requeued []string
	// Canceled lists queued jobs dropped because there is no journal.
	Canceled []string
}

// Drain shuts the pool down gracefully: stop accepting submissions,
// persist still-queued jobs to the journal as requeued (or cancel them
// when there is no journal), let running jobs finish within the timeout,
// then cancel whatever is left and wait for the workers to exit.
func (m *Manager) Drain(timeout time.Duration) DrainReport {
	var rep DrainReport
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return rep
	}
	m.draining = true
	close(m.drainCh)
	for _, id := range m.order {
		job, ok := m.jobs[id]
		if !ok || job.state != StateQueued {
			continue
		}
		job.canceled = true
		if m.cfg.Journal != nil {
			// The accepted record is already durable; the requeued
			// record documents the drain, and runJob will mark the
			// job requeued (not finished) when the worker pops it.
			job.requeue = true
			m.cfg.Journal.Requeued(job.ID)
			m.metrics.JournalRequeued()
			rep.Requeued = append(rep.Requeued, job.ID)
		} else {
			rep.Canceled = append(rep.Canceled, job.ID)
		}
	}
	m.mu.Unlock()
	close(m.queue)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		m.baseCancel() // cancel running jobs' contexts
		<-done
	}
	m.baseCancel()
	m.clusterWG.Wait()
	if m.cfg.Cluster != nil {
		// Graceful goodbye: drop the membership lease so peers treat this
		// replica as gone immediately instead of after TTL.
		_ = m.cfg.Cluster.Leave()
	}
	return rep
}

// worker pops jobs until the queue is closed and drained. After Kill, a
// "dead" worker discards whatever is still queued without running it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.mu.Lock()
		killed := m.killed
		m.mu.Unlock()
		if killed {
			continue
		}
		m.runJob(job)
	}
}

func (m *Manager) runJob(job *Job) {
	m.mu.Lock()
	m.queued--
	if job.canceled {
		if job.requeue {
			// Drained with a journal: the accepted record stays
			// pending, so the job is recovered on the next start.
			m.finishLocked(job, StateRequeued, "requeued at drain; recovered on next start")
		} else {
			m.finishLocked(job, StateCanceled, "canceled before start")
		}
		outcome := job.state
		m.mu.Unlock()
		if outcome == StateCanceled {
			m.cfg.Journal.Finished(job.ID, StateCanceled)
		}
		m.metrics.JobFinished(string(outcome), 0)
		m.logger.Info("job finished",
			"job_id", job.ID, "kind", job.Spec.Kind, "digest", job.Digest,
			"replica_id", job.replica, "outcome", string(outcome))
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	if t := m.jobTimeout(job); t > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, t)
	}
	collector := obs.NewCollector(jobTraceSpanCap)
	tracer := obs.NewTracer(collector)
	job.cancel = cancel
	job.trace = collector
	// Meter the job's resource consumption from here to terminal state;
	// execute samples it mid-flight to embed the resources block in the
	// report, runJob takes the final reading for span attrs and metrics.
	job.meter = prof.Begin(0)
	job.state = StateRunning
	job.startedAt = time.Now()
	queueWait := job.startedAt.Sub(job.createdAt)
	m.running++
	m.mu.Unlock()
	defer cancel()
	m.metrics.QueueWaited(queueWait.Seconds())
	m.logger.Info("job started",
		"job_id", job.ID, "kind", job.Spec.Kind, "workload", job.Spec.Workload,
		"digest", job.Digest, "replica_id", job.replica,
		"queue_wait_seconds", queueWait.Seconds())

	ctx = obs.WithTracer(ctx, tracer)
	ctx, root := obs.Start(ctx, "job", jobSpanAttrs(job)...)
	if job.takenOverFrom != "" {
		// The job arrived by lease takeover; record the provenance in the
		// trace so a reclaimed job is distinguishable from a fresh one.
		tracer.Emit(root, "cluster.takeover", job.createdAt, 0,
			obs.String("from", job.takenOverFrom),
			obs.String("by", job.replica))
		root.SetAttr(obs.String("taken_over_from", job.takenOverFrom))
	}
	// The queue wait happened before the root span started; emit it as an
	// already-measured child so the trace shows wait vs. run time.
	tracer.Emit(root, "job.queue-wait", job.createdAt, queueWait,
		obs.Float("seconds", queueWait.Seconds()))

	key := "job:" + job.Digest
	var (
		out    []byte
		hit    bool
		err    error
		served bool
	)
	// In cluster mode the worker owns the job's digest lease before
	// computing. A takeover job arrives with the lease pre-acquired by the
	// scan; everything else acquires here. Losing the acquisition means a
	// peer is computing the same digest: serve its result from the shared
	// cache if it already landed, otherwise fail — the client's failover
	// retry will find it.
	if m.cfg.Cluster != nil && job.lease == nil {
		lease, lerr := m.cfg.Cluster.AcquireJob(key)
		switch {
		case lerr == nil:
			m.mu.Lock()
			job.lease = lease
			m.mu.Unlock()
		default:
			m.metrics.LeaseAcquireFailed()
			if b, ok := m.cache.GetBytes(key); ok && json.Valid(b) {
				out, hit, served = b, true, true
			} else {
				err, served = lerr, true
			}
		}
	}
	if !served {
		out, hit, err = m.lookupJob(ctx, key, job)
	}
	if err == nil && hit && !m.validHit(key, out) {
		// Purged; recompute instead of serving it.
		out, hit, err = m.lookupJob(ctx, key, job)
	}
	m.metrics.Cache("job", hit)

	m.mu.Lock()
	m.running--
	switch {
	case err == nil:
		job.cached = hit
		job.result = out
		m.finishLocked(job, StateDone, "")
	case job.canceled || errors.Is(err, context.Canceled):
		m.finishLocked(job, StateCanceled, err.Error())
	default:
		m.finishLocked(job, StateFailed, err.Error())
	}
	seconds := job.finishedAt.Sub(job.startedAt).Seconds()
	outcome := job.state
	lease := job.lease
	killed := m.killed
	m.breakerUpdateLocked(job.Digest, outcome)
	m.mu.Unlock()
	// Final resource reading: stop the sampler (even when "killed" — the
	// goroutine must not leak), attribute the consumption to the root
	// span and the per-kind metrics.
	usage := job.meter.End()
	root.SetAttr(obs.String("outcome", string(outcome)), obs.Bool("cache_hit", hit),
		obs.Float("cpu_seconds", usage.CPUSeconds),
		obs.Int64("alloc_bytes", usage.AllocBytes),
		obs.Int64("alloc_objects", usage.AllocObjects),
		obs.Int64("gc_cycles", usage.GCCycles),
		obs.Int64("heap_peak_bytes", usage.HeapPeakBytes),
		obs.Int64("goroutine_peak", int64(usage.GoroutinePeak)))
	root.End()
	if killed {
		// The process is "dead": no terminal journal record, no trace
		// file, and the lease is left to age out — exactly the debris a
		// real kill -9 leaves for the survivors to reclaim.
		return
	}
	m.persistTrace(job.ID, collector)
	m.cfg.Journal.Finished(job.ID, outcome)
	if lease != nil && m.cfg.Cluster != nil {
		// The outcome is durable; drop the lease. For a fenced job this is
		// a no-op (the superseding epoch survives).
		_ = m.cfg.Cluster.ReleaseJob(lease)
	}
	m.metrics.JobFinished(string(outcome), seconds)
	m.metrics.JobResources(job.Spec.Kind, usage)
	m.logger.Info("job finished",
		"job_id", job.ID, "kind", job.Spec.Kind, "digest", job.Digest,
		"replica_id", job.replica, "outcome", string(outcome),
		"cached", hit, "seconds", seconds, "cpu_seconds", usage.CPUSeconds)
}

// lookupJob serves the job artifact through the cache under a
// "cache.lookup" span; a miss runs the pipeline inside the span.
func (m *Manager) lookupJob(ctx context.Context, key string, job *Job) ([]byte, bool, error) {
	ctx, sp := obs.Start(ctx, "cache.lookup",
		obs.String("kind", "job"), obs.String("key", key))
	defer sp.End()
	out, hit, err := m.cache.DoBytes(key, func() ([]byte, error) {
		b, ferr := m.runExec(ctx, job)
		if ferr != nil {
			return nil, ferr
		}
		// Commit-time fence: a worker whose lease was superseded while it
		// computed (paused, partitioned, presumed dead) must not publish
		// into the shared cache — the error aborts the fill, so nothing is
		// stored in memory or spilled to disk.
		if cerr := m.fenceCheck(job); cerr != nil {
			return nil, cerr
		}
		return b, nil
	})
	sp.SetAttr(obs.Bool("hit", hit))
	return out, hit, err
}

// fenceCheck re-verifies the job's lease epoch against the group state.
func (m *Manager) fenceCheck(job *Job) error {
	if m.cfg.Cluster == nil {
		return nil
	}
	m.mu.Lock()
	lease := job.lease
	m.mu.Unlock()
	if lease == nil {
		return nil
	}
	if err := m.cfg.Cluster.CheckJob(lease); err != nil {
		if errors.Is(err, cluster.ErrFenced) {
			m.metrics.FencedCommit()
		}
		return err
	}
	return nil
}

// persistTrace writes the job's Chrome trace to TraceDir, when set.
// Failures are counted, not fatal: the trace stays readable in memory.
func (m *Manager) persistTrace(jobID string, col *obs.Collector) {
	if m.cfg.TraceDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(m.cfg.TraceDir, jobID+".trace.json"))
	if err != nil {
		m.metrics.TraceWriteFailed()
		return
	}
	defer f.Close()
	if err := obs.WriteChromeTrace(f, col.Spans()); err != nil {
		m.metrics.TraceWriteFailed()
	}
}

// Trace returns a snapshot of a job's collected spans. ok is false when
// the job is unknown or has not started running yet; a running job
// returns the spans ended so far, a job answered at admission the two
// spans of admissionTrace.
func (m *Manager) Trace(id string) ([]obs.SpanData, bool) {
	m.mu.Lock()
	var col *obs.Collector
	if job, ok := m.jobs[id]; ok {
		col = job.trace
	}
	m.mu.Unlock()
	if col == nil {
		return nil, false
	}
	return col.Spans(), true
}

// breakerUpdateLocked feeds one terminal outcome into the digest's
// circuit breaker. Cancellations are neutral: they say nothing about
// whether the spec can succeed.
func (m *Manager) breakerUpdateLocked(digest string, outcome JobState) {
	if m.cfg.BreakerThreshold <= 0 {
		return
	}
	switch outcome {
	case StateDone:
		delete(m.breakers, digest)
	case StateFailed:
		b := m.breakers[digest]
		if b == nil {
			b = &breakerState{}
			m.breakers[digest] = b
		}
		b.fails++
		if b.fails >= m.cfg.BreakerThreshold {
			if b.fails == m.cfg.BreakerThreshold {
				m.metrics.CircuitOpened()
			}
			// Escalating backoff: each failure past the threshold — i.e.
			// each half-open probe that fails again — doubles the cooldown,
			// capped at 64x, so a persistently broken spec is probed ever
			// more rarely instead of once per fixed cooldown forever.
			shift := b.fails - m.cfg.BreakerThreshold
			if shift > 6 {
				shift = 6
			}
			b.openUntil = m.now().Add(m.cfg.BreakerCooldown << shift)
		}
	}
}

// runExec runs the job's pipeline with panic recovery and bounded retry
// for transient errors. It is invoked inside the cache's single-flight
// fill, so a recovered panic surfaces as a plain fill error and cannot
// leak an inflight entry.
func (m *Manager) runExec(ctx context.Context, job *Job) ([]byte, error) {
	backoff := m.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		out, err := m.execOnce(ctx, job)
		if err == nil || ctx.Err() != nil {
			return out, err
		}
		if !IsTransient(err) || attempt >= m.cfg.MaxJobRetries {
			return nil, err
		}
		m.metrics.JobRetried()
		m.mu.Lock()
		job.retries++
		m.mu.Unlock()
		m.sleep(backoff)
		backoff *= 2
	}
}

// execOnce runs the pipeline once, converting a worker panic into an
// error so a crashing job fails alone instead of taking the daemon down.
func (m *Manager) execOnce(ctx context.Context, job *Job) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.metrics.WorkerPanicked()
			out, err = nil, fmt.Errorf("service: worker panic: %v", r)
		}
	}()
	if m.cfg.Faults.Fire(faults.WorkerPanic) {
		panic("injected worker panic")
	}
	if ferr := m.cfg.Faults.Err(faults.JobTransient); ferr != nil {
		return nil, MarkTransient(ferr)
	}
	return m.execFn(ctx, job)
}

func (m *Manager) jobTimeout(job *Job) time.Duration {
	if job.Spec.TimeoutSeconds > 0 {
		return time.Duration(job.Spec.TimeoutSeconds * float64(time.Second))
	}
	return m.cfg.JobTimeout
}

// finishLocked makes the job terminal and wakes everyone waiting on it.
func (m *Manager) finishLocked(job *Job, state JobState, errText string) {
	job.state = state
	job.errText = errText
	job.finishedAt = time.Now()
	close(job.done)
	m.terminal++
}

// pruneLocked caps the terminal-job backlog, dropping the oldest first. It
// runs on every submission, so it costs what it drops: nothing while under
// the cap, and otherwise a walk that ends at the last job it removes.
func (m *Manager) pruneLocked() {
	if m.terminal <= maxFinishedJobs {
		return
	}
	kept := m.order[:0]
	for i, id := range m.order {
		if m.terminal <= maxFinishedJobs {
			kept = append(kept, m.order[i:]...)
			break
		}
		if job, ok := m.jobs[id]; ok && job.state.Terminal() {
			delete(m.jobs, id)
			m.terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// execute runs one job for real: resolve the inputs, run the pipeline
// over the daemon's analysis cache, and serialize the shared report schema.
func (m *Manager) execute(ctx context.Context, job *Job) ([]byte, error) {
	spec := job.Spec
	if spec.Kind == "fleet" {
		return m.executeFleet(ctx, job)
	}
	w, err := workloads.Get(spec.Workload)
	if err != nil {
		return nil, err
	}
	src := w.Source
	if spec.Program != "" {
		src = spec.Program
	}
	prog, err := p4.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse program: %w", err)
	}
	if err := p4.Check(prog); err != nil {
		return nil, fmt.Errorf("check program: %w", err)
	}
	cfg := w.Config()
	if spec.Rules != "" {
		cfg, err = rt.Parse(spec.Rules)
		if err != nil {
			return nil, fmt.Errorf("parse rules: %w", err)
		}
	}
	trace, err := w.Trace(spec.Seed)
	if err != nil {
		return nil, err
	}
	var bindings map[string]int
	if spec.Bindings != "" {
		if bindings, err = p4.ParseBindings(spec.Bindings); err != nil {
			return nil, err
		}
	}
	opts := m.coreOptions(job)

	if spec.Kind == "profile" {
		// Profiling runs on the concrete program: bind the @tunable
		// symbols (submitted values, declared defaults for the rest).
		concrete, err := p4.Instantiate(prog, bindings)
		if err != nil {
			return nil, err
		}
		pf, _, err := m.analysis.Profile(concrete, cfg, trace.Digest(), func() (*profile.Profile, error) {
			return opts.ProfileHook(ctx, concrete, cfg, trace)
		})
		if err != nil {
			return nil, err
		}
		rep := report.FromProfile(spec.Workload, spec.Seed, pf)
		rep.Resources = m.jobResources(job)
		return json.Marshal(rep)
	}

	opts.Context = ctx
	opts.Passes = spec.Passes
	opts.Bindings = bindings
	if w.Tune != nil {
		// The workload's tune spec configures the pass if the job's
		// schedule includes "tune"; harmless otherwise.
		opts.Tune = &core.TuneOptions{
			AccuracyTable:   w.Tune.AccuracyTable,
			MaxAccuracyLoss: w.Tune.MaxAccuracyLoss,
		}
	}
	res, err := core.New(opts).Optimize(prog, cfg, trace)
	if err != nil {
		return nil, err
	}
	for _, h := range res.History {
		m.metrics.PhaseObserved(h.Label, h.Duration.Seconds())
	}
	rep := report.FromResult(spec.Workload, spec.Seed, res)
	rep.Resources = m.jobResources(job)
	return json.Marshal(rep)
}

// coreOptions is what every job's pipeline runs with, whatever its kind:
// the daemon's analysis cache, the job's worker count, and a ProfileHook
// that feeds the replay metrics. The hook caches nothing — the pipeline
// calls it only for a replay it must execute — and prepares through the
// analysis cache, so a program replayed before is not re-instrumented.
func (m *Manager) coreOptions(job *Job) core.Options {
	parallelism := job.Spec.Parallelism
	if parallelism <= 0 {
		parallelism = m.cfg.Parallelism
	}
	return core.Options{
		AnalysisCache: m.analysis,
		Parallelism:   parallelism,
		ProfileHook: func(ctx context.Context, prog *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) (*profile.Profile, error) {
			prep, err := m.analysis.Prepare(ctx, prog, cfg)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			pf, err := prep.Profiler().RunWith(ctx, trace, profile.RunOptions{Shards: parallelism})
			if err == nil {
				m.metrics.Replayed(pf.TotalPackets, time.Since(start).Seconds())
			}
			return pf, err
		},
	}
}

// jobResources samples the job's meter mid-flight so the serialized
// report carries the resources consumed up to the moment the result was
// produced. A cached artifact keeps the block from its original
// compute — the attribution describes the work, not the lookup. Only
// the worker goroutine running the job reads the meter here, the same
// goroutine that set it in runJob.
func (m *Manager) jobResources(job *Job) *report.Resources {
	if job.meter == nil {
		return nil
	}
	return report.FromUsage(job.meter.Sample())
}
