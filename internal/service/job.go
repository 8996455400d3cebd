package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"p2go/internal/cache"
	"p2go/internal/cluster"
	"p2go/internal/core"
	"p2go/internal/fleet"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/prof"
	"p2go/internal/profile"
	"p2go/internal/report"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// JobSpec is a unit of work: profile or optimize one workload (optionally
// with an uploaded program and/or rules standing in for the workload's
// own), or optimize a fleet. It is the only description of a profile or
// optimize job: p2god runs a submitted one, and `p2go profile` / `p2go
// optimize` build one from their flags and run it through the same Run.
type JobSpec struct {
	// Kind is "profile", "optimize", or "fleet". Empty defaults to
	// "optimize".
	Kind string `json:"kind"`
	// Workload names the registered workload supplying the program,
	// rules, and calibrated trace. Empty defaults to "ex1".
	Workload string `json:"workload"`
	// Seed drives the workload's trace generator. Zero defaults to 1.
	Seed int64 `json:"seed"`
	// Program, when set, is inline P4_14 source overriding the
	// workload's program (the trace still comes from the workload).
	Program string `json:"program,omitempty"`
	// Rules, when set, is an inline runtime configuration overriding the
	// workload's rules.
	Rules string `json:"rules,omitempty"`
	// Bindings assigns the program's @tunable symbols before anything
	// runs, in the "name=value,name=value" format (the CLI's -set). It is
	// normalized to the canonical sorted rendering and is part of the
	// artifact digest: different instantiations produce different
	// artifacts. Unknown names and out-of-range values fail the job.
	Bindings string `json:"bindings,omitempty"`
	// Passes selects which optimization passes run and in what order,
	// mirroring the CLI's -passes (IDs from core.Passes(); only used for
	// optimize jobs). Empty means the default schedule. It is part of the
	// artifact digest: different schedules produce different artifacts.
	Passes []string `json:"passes,omitempty"`
	// TimeoutSeconds bounds the job's run; 0 uses the server default.
	// The timeout is not part of the artifact digest: the same inputs
	// produce the same artifact however long they were allowed to take.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Parallelism is the job's worker count for sharded trace replay and
	// the Phase 3/4 candidate fan-out; 0 uses the server default (the
	// CLI's: one worker per CPU).
	// Like the timeout it is not part of the artifact digest: the result
	// is parallelism-independent.
	Parallelism int `json:"parallelism,omitempty"`
	// Fleet is the network-wide job description for Kind "fleet": the
	// topology, injections, and per-device optimization configuration.
	// The other workload fields above are ignored for fleet jobs — every
	// device carries its own.
	Fleet *fleet.Spec `json:"fleet,omitempty"`
}

// normalize applies defaults and validates cheaply (the expensive parsing
// happens in the worker).
func (s *JobSpec) normalize() error {
	if s.Kind == "" {
		s.Kind = "optimize"
	}
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("negative timeout_seconds")
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("negative parallelism")
	}
	if s.Kind == "fleet" {
		if s.Fleet == nil {
			return fmt.Errorf("fleet job without a fleet spec")
		}
		if err := s.Fleet.Validate(); err != nil {
			return err
		}
		// The single-workload fields don't apply; Workload doubles as the
		// fleet's display name in job listings.
		s.Workload = s.Fleet.Name
		return nil
	}
	if s.Kind != "profile" && s.Kind != "optimize" {
		return fmt.Errorf("unknown job kind %q (want \"profile\", \"optimize\", or \"fleet\")", s.Kind)
	}
	if s.Fleet != nil {
		return fmt.Errorf("fleet spec on a %s job (set kind \"fleet\")", s.Kind)
	}
	if s.Workload == "" {
		s.Workload = "ex1"
	}
	if _, err := workloads.Get(s.Workload); err != nil {
		return err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Passes) == 0 {
		s.Passes = nil // JSON cannot distinguish [] from absent; treat both as default
	}
	if err := core.ValidatePasses(s.Passes); err != nil {
		return err
	}
	if s.Bindings != "" {
		b, err := p4.ParseBindings(s.Bindings)
		if err != nil {
			return err
		}
		s.Bindings = p4.FormatBindings(b)
	}
	return nil
}

// digest content-addresses the job: two specs with the same digest
// produce the same artifact.
func (s JobSpec) digest() string {
	if s.Kind == "fleet" {
		return cache.Digest(s.Kind, s.Fleet.Fingerprint())
	}
	return cache.Digest(s.Kind, s.Workload, fmt.Sprintf("%d", s.Seed), s.Program, s.Rules,
		strings.Join(s.Passes, ","), s.Bindings)
}

// Output is what Run produced: the report every surface prints or stores,
// built from Result (optimize) or Profile (profile), and the rules and trace
// the job resolved, which a caller's own verification replays.
type Output struct {
	Report  *report.JobResult
	Result  *core.Result
	Profile *profile.Profile
	Config  *rt.Config
	Trace   *trafficgen.Trace
}

// Run executes a profile or optimize job: it normalizes the spec, resolves
// its workload, program, rules, trace and bindings, and runs core.Profile or
// core.Optimize under opts, whose Passes, Bindings and TuneAccuracyTable it
// sets from the spec (and Parallelism when the spec sets one). Fleet jobs
// run through fleet.Run instead.
func Run(ctx context.Context, spec JobSpec, opts core.Options) (*Output, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if spec.Kind == "fleet" {
		return nil, fmt.Errorf("service: a fleet job runs through fleet.Run")
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
	if err == nil {
		err = p4.Check(prog)
	}
	if err != nil {
		return nil, fmt.Errorf("parse program: %w", err)
	}
	out := &Output{Config: w.Config()}
	if spec.Rules != "" {
		if out.Config, err = rt.Parse(spec.Rules); err != nil {
			return nil, fmt.Errorf("parse rules: %w", err)
		}
	}
	if out.Trace, err = w.Trace(spec.Seed); err != nil {
		return nil, err
	}
	bindings, err := p4.ParseBindings(spec.Bindings)
	if err != nil {
		return nil, err
	}
	if spec.Parallelism > 0 {
		opts.Parallelism = spec.Parallelism
	}

	if spec.Kind == "profile" {
		// Profiling runs on the concrete program: bind the @tunable
		// symbols (the spec's values, declared defaults for the rest).
		concrete, err := p4.Instantiate(prog, bindings)
		if err != nil {
			return nil, err
		}
		if out.Profile, err = core.Profile(ctx, concrete, out.Config, out.Trace, opts); err != nil {
			return nil, err
		}
		out.Report = report.FromProfile(spec.Workload, spec.Seed, out.Profile)
		return out, nil
	}
	// The workload's accuracy table configures the pass if the schedule
	// includes "tune"; harmless otherwise.
	opts.Passes, opts.Bindings, opts.TuneAccuracyTable = spec.Passes, bindings, w.TuneAccuracyTable
	if out.Result, err = core.Optimize(ctx, prog, out.Config, out.Trace, opts); err != nil {
		return nil, err
	}
	out.Report = report.FromResult(spec.Workload, spec.Seed, out.Result)
	return out, nil
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
	// StateRequeued means a drain persisted the still-queued job to the
	// journal; it is terminal for this process and recovered (under a
	// new ID) on the next start.
	StateRequeued JobState = "requeued"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateRequeued
}

// Job is one tracked submission. All fields are guarded by the manager's
// mutex; Spec and Digest are immutable after creation.
type Job struct {
	ID     string
	Spec   JobSpec
	Digest string

	state JobState
	// done is closed, under the manager's mutex, by the transition that
	// makes state terminal — so a Wait-er woken by it (or finding it
	// already closed) can never read a non-terminal state.
	done       chan struct{}
	cached     bool
	errText    string
	result     []byte
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	cancel     context.CancelFunc
	canceled   bool // user requested cancellation
	requeue    bool // drain persisted the job for recovery on restart
	retries    int  // transient-failure re-runs this job consumed
	// lease is the cluster ownership lease the worker holds while the job
	// runs; nil outside replica groups or before the worker acquired it.
	lease *cluster.JobLease
	// replica names the replica that ran (or is running) the job; set in
	// cluster mode only.
	replica string
	// takenOverFrom names the dead replica this job was reclaimed from,
	// when the job entered via TakeoverScan rather than a live submission.
	takenOverFrom string
	// trace collects the job's spans; set when the job starts running.
	// The collector is internally synchronized, so readers only need the
	// manager's mutex to read the pointer.
	trace *obs.Collector
	// meter measures the job's resource consumption while it runs; set
	// together with trace, read only by the worker goroutine running the
	// job (execute samples it mid-flight to embed the resources block in
	// the report).
	meter *prof.Meter
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Kind     string   `json:"kind"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Digest   string   `json:"digest"`
	// Cached reports that the result was served from the artifact cache
	// rather than computed by this job.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Retries counts transient-failure re-runs this job consumed.
	Retries int `json:"retries,omitempty"`
	// Replica names the replica serving the job (cluster mode only);
	// TakenOverFrom names the dead replica it was reclaimed from, when the
	// job arrived by lease takeover instead of a client submission.
	Replica       string `json:"replica,omitempty"`
	TakenOverFrom string `json:"taken_over_from,omitempty"`
	CreatedAt     string `json:"created_at"`
	StartedAt     string `json:"started_at,omitempty"`
	FinishedAt    string `json:"finished_at,omitempty"`
	// Result is the report.JobResult JSON, present once the job is done
	// and the caller asked for it.
	Result json.RawMessage `json:"result,omitempty"`
}

// statusLocked builds the JSON view; the manager's mutex must be held.
func (j *Job) statusLocked(includeResult bool) JobStatus {
	st := JobStatus{
		ID:            j.ID,
		State:         j.state,
		Kind:          j.Spec.Kind,
		Workload:      j.Spec.Workload,
		Seed:          j.Spec.Seed,
		Digest:        j.Digest,
		Cached:        j.cached,
		Error:         j.errText,
		Retries:       j.retries,
		Replica:       j.replica,
		TakenOverFrom: j.takenOverFrom,
		CreatedAt:     j.createdAt.UTC().Format(time.RFC3339Nano),
	}
	if !j.startedAt.IsZero() {
		st.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
	}
	if includeResult && j.state == StateDone {
		st.Result = json.RawMessage(j.result)
	}
	return st
}
