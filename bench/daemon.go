package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"p2go/internal/fleet"
	"p2go/internal/report"
	"p2go/internal/service"
	"p2go/internal/trafficgen"
)

// daemon is an in-process p2god: the manager and HTTP handler cmd/p2god
// wires up, on a loopback listener, with the journal and the cache spill
// on — the configuration whose fsyncs a real deployment pays.
type daemon struct {
	dir     string
	journal *service.Journal
	mgr     *service.Manager
	srv     *http.Server
	served  chan struct{}
	url     string
}

const (
	awaitPoll    = 200 * time.Microsecond
	awaitTimeout = 2 * time.Minute
)

func startDaemon(parent string) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "p2god-")
	if err != nil {
		return nil, err
	}
	journal, err := service.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		journal.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir:     dir,
		journal: journal,
		mgr: service.NewManager(service.ManagerConfig{
			Workers:     2,
			QueueDepth:  64,
			Parallelism: 1,
			Cache:       service.NewCache(0, filepath.Join(dir, "spill")),
			Journal:     journal,
		}),
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
	}
	d.mgr.Start()
	d.srv = &http.Server{Handler: service.NewHandler(d.mgr)}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns once close shuts the server down
	}()
	return d, nil
}

// close stops the server and the workers, waits for both, and removes the
// daemon's files.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.served
	d.mgr.Drain(10 * time.Second)
	return errors.Join(err, d.journal.Close(), os.RemoveAll(d.dir))
}

// client returns a closed-loop client of the daemon. One attempt per
// request: a refusal (429, 503) must surface as a failed op, not hide in a
// retry.
func (d *daemon) client() *service.Client {
	c := service.NewClient([]string{d.url}, awaitTimeout)
	c.MaxAttempts = 1
	return c
}

// answered is one request as its client saw it.
type answered struct {
	status   service.JobStatus
	observed time.Duration // submit -> terminal status
}

// request submits and polls to the terminal status, as `p2go submit -wait`
// does.
func request(tr *recorder, submit func() (service.JobStatus, error), await func(id string) (service.JobStatus, error)) (answered, error) {
	start := time.Now()
	tr.begin("job", 0)
	defer tr.end()
	tr.begin("service.submit", 0)
	st, err := submit()
	tr.end()
	if err != nil {
		return answered{}, err
	}
	tr.begin("service.await", 0)
	st, err = await(st.ID)
	tr.end()
	if err != nil {
		return answered{}, err
	}
	if st.State != service.StateDone {
		return answered{}, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return answered{status: st, observed: time.Since(start)}, nil
}

// serverTimes adds what the daemon's own timestamps say about a cold
// request: time queued, time running, and what the client saw beyond the
// run. (A cached request is all overhead: warm_op_ms is that figure.)
func serverTimes(t *tally, class string, a answered) {
	created, err1 := time.Parse(time.RFC3339Nano, a.status.CreatedAt)
	started, err2 := time.Parse(time.RFC3339Nano, a.status.StartedAt)
	finished, err3 := time.Parse(time.RFC3339Nano, a.status.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	run := finished.Sub(started)
	t.add("service.queue_wait_ms", class, ms(started.Sub(created)))
	t.add("service.run_ms", class, ms(run))
	t.add("service.overhead_ms", class, ms(a.observed-run))
}

// refused reports whether err is the daemon turning a request away.
func refused(err error) bool {
	var he *service.HTTPError
	return errors.As(err, &he) && (he.StatusCode == http.StatusTooManyRequests || he.StatusCode == http.StatusServiceUnavailable)
}

// exchange is one request of a daemon workload: made, held to check,
// counted, and — if it passed — recorded as the pass wants it. The timed
// pass takes the time the client observed: a cold request under its class,
// a cached one pooled, both also into the tail series. The traced pass
// takes the daemon's own timestamps of a cold request.
func exchange(t *tally, tr *recorder, class string, repeat bool,
	submit func() (service.JobStatus, error), await func(id string) (service.JobStatus, error),
	check func(service.JobStatus) error) (answered, bool) {
	a, err := request(tr, submit, await)
	if refused(err) {
		t.add("service.refused", "", 1)
	}
	if err == nil {
		err = check(a.status)
	}
	t.op(class, err)
	if err != nil {
		return a, false
	}
	switch {
	case tr != nil:
		if !repeat {
			serverTimes(t, class, a)
		}
	case repeat:
		t.add("warm_op_ms", "", ms(a.observed))
		t.add("service.cached_ms_p90", "", ms(a.observed))
		t.add("service.cached_ms_p99", "", ms(a.observed))
	default:
		t.add("op_ms", class, ms(a.observed))
		t.add("service.cold_ms_p99", "", ms(a.observed))
	}
	return a, true
}

// mixedRun is daemon-mixed set up.
type mixedRun struct {
	e     *env
	d     *daemon
	progs []*program
}

func setupMixed(e *env, w *workload, _ *tally) (instance, error) {
	progs, err := loadPrograms(w.programs)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e.dir)
	if err != nil {
		return nil, err
	}
	m := &mixedRun{e: e, d: d, progs: progs}
	// One untimed job per program fills the daemon's compile artifacts and
	// lazy state.
	warmup := newTally()
	m.round(warmup, nil)
	if warmup.failed > 0 {
		d.close()
		return nil, fmt.Errorf("set-up op: %s", warmup.failures[0])
	}
	return m, nil
}

func (m *mixedRun) close() error { return m.d.close() }

// round is one closed-loop client's round: per program, a cold job under a
// seed the daemon never saw, then repeatSubmits resubmissions of the same
// spec, each of which must come back from the artifact cache.
//
// One client, not nproc of them: with two, each client's cached requests
// race the other's cold job for the box's two cores, and warm_op_ms spread
// twice as far from run to run (23% against 11% of its median).
func (m *mixedRun) round(t *tally, tr *recorder) {
	first := tr.mark()
	c := m.d.client()
	for _, p := range m.progs {
		spec := service.JobSpec{Kind: "optimize", Workload: p.name, Seed: m.e.freshSeed()}
		for n := 0; n <= repeatSubmits; n++ {
			repeat := n > 0
			exchange(t, tr, p.name, repeat,
				func() (service.JobStatus, error) { return c.SubmitJob(spec) },
				func(id string) (service.JobStatus, error) { return c.AwaitJob(id, awaitPoll, awaitTimeout) },
				func(st service.JobStatus) error { return checkJob(p, st, repeat) })
		}
	}
	harvest(t, "", tr.since(first))
}

// checkJob holds a daemon report to its oracles: it decodes as the shared
// report schema, carries the hand-written stage pair, and a resubmission
// was answered from the artifact cache.
func checkJob(p *program, st service.JobStatus, repeat bool) error {
	var rep report.JobResult
	if err := json.Unmarshal(st.Result, &rep); err != nil {
		return fmt.Errorf("report does not decode: %w", err)
	}
	if rep.Kind != "optimize" || rep.Workload != p.name {
		return fmt.Errorf("report is %s/%s, want optimize/%s", rep.Kind, rep.Workload, p.name)
	}
	if got, want := [2]int{rep.StagesBefore, rep.StagesAfter}, wantStages[p.name]; got != want {
		return fmt.Errorf("stages %v, want %v", got, want)
	}
	if repeat != st.Cached {
		return fmt.Errorf("cached = %v on a job with repeat = %v", st.Cached, repeat)
	}
	return nil
}

func (m *mixedRun) probes(t *tally, tr *recorder) {
	for _, p := range m.progs {
		seed := m.e.freshSeed()
		probeProgram(t, tr, m.e.probeReps, p, func() (*trafficgen.Trace, error) { return p.w.Trace(seed) })
	}
	probeDaemonLayers(t, tr, m.e.probeReps, m.e.dir)
}

// fleetRun is fleet-64 set up.
type fleetRun struct {
	e     *env
	d     *daemon
	progs []*program
}

func setupFleet(e *env, w *workload, _ *tally) (instance, error) {
	progs, err := loadPrograms(w.programs)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e.dir)
	if err != nil {
		return nil, err
	}
	f := &fleetRun{e: e, d: d, progs: progs}
	// One untimed fleet fills the daemon-wide analysis cache: without it
	// the first timed fleet would pay every compile.
	warmup := newTally()
	f.round(warmup, nil)
	if warmup.failed > 0 {
		d.close()
		return nil, fmt.Errorf("set-up op: %s", warmup.failures[0])
	}
	return f, nil
}

func (f *fleetRun) close() error { return f.d.close() }

// spec is a fleet of disconnected switches, three natgre to one ex1, each
// fed fleetPackets of its own workload's traffic under a fresh seed.
func (f *fleetRun) spec() fleet.Spec {
	s := fleet.Spec{Name: "fleet-64"}
	for i := 0; i < fleetDevices; i++ {
		name, wl := fmt.Sprintf("sw-%02d", i), "natgre"
		if i%4 == 3 {
			wl = "ex1"
		}
		s.Devices = append(s.Devices, fleet.DeviceSpec{Name: name, Workload: wl})
		s.Injections = append(s.Injections, fleet.InjectionSpec{
			Device: name, Workload: wl, Seed: f.e.freshSeed(), Count: fleetPackets,
		})
	}
	return s
}

func (f *fleetRun) round(t *tally, tr *recorder) {
	first := tr.mark()
	c := f.d.client()
	spec := f.spec()
	for n := 0; n <= repeatSubmits; n++ {
		repeat := n > 0
		var res *report.FleetResult
		a, ok := exchange(t, tr, "fleet", repeat,
			func() (service.JobStatus, error) { return c.SubmitFleet(spec) },
			func(id string) (service.JobStatus, error) { return c.AwaitFleet(id, awaitPoll, awaitTimeout) },
			func(st service.JobStatus) (err error) { res, err = checkFleet(st, repeat); return err })
		if ok && !repeat && tr == nil {
			t.add("fleet.devices_per_s", "", float64(res.Optimized)/a.observed.Seconds())
			t.add("core.stages_saved", "", float64(res.StagesBefore-res.StagesAfter))
		}
	}
	harvest(t, "", tr.since(first))
}

// checkFleet holds a fleet report to its oracles: it decodes, accounts for
// every device, none failed, no device ended with more stages than it
// began with, and a resubmission was answered from the artifact cache.
func checkFleet(st service.JobStatus, repeat bool) (*report.FleetResult, error) {
	var res report.FleetResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return nil, fmt.Errorf("fleet report does not decode: %w", err)
	}
	if res.Kind != "fleet" || res.DeviceCount != fleetDevices || len(res.Devices) != fleetDevices {
		return nil, fmt.Errorf("report is %s with %d devices (%d rows), want fleet with %d",
			res.Kind, res.DeviceCount, len(res.Devices), fleetDevices)
	}
	if res.Optimized+res.Skipped+res.Failed != fleetDevices || res.Failed != 0 {
		return nil, fmt.Errorf("optimized %d + skipped %d + failed %d, want %d with none failed",
			res.Optimized, res.Skipped, res.Failed, fleetDevices)
	}
	for _, dev := range res.Devices {
		if dev.Result != nil && dev.Result.StagesAfter > dev.Result.StagesBefore {
			return nil, fmt.Errorf("device %s grew from %d to %d stages", dev.Device, dev.Result.StagesBefore, dev.Result.StagesAfter)
		}
	}
	if repeat != st.Cached {
		return nil, fmt.Errorf("cached = %v on a fleet with repeat = %v", st.Cached, repeat)
	}
	return &res, nil
}

func (f *fleetRun) probes(t *tally, tr *recorder) {
	for _, p := range f.progs {
		seed := f.e.freshSeed()
		probeProgram(t, tr, f.e.probeReps, p, func() (*trafficgen.Trace, error) { return p.w.Trace(seed) })
	}
	probeDaemonLayers(t, tr, f.e.probeReps, f.e.dir)

	// The fleet runner alone: no daemon, no hooks, a fresh analysis cache,
	// so its counters say how far compiles and replays dedup inside one
	// fleet. One device at a time: concurrent devices can both miss the
	// same compile (the analysis cache has no single-flight), and the
	// counts are to repeat exactly.
	for i := 0; i < f.e.probeReps; i++ {
		spec := f.spec()
		spec.DeviceParallelism, spec.Parallelism = 1, 1
		tr.begin("probes", 0)
		tr.begin("fleet.run", 0)
		res, err := fleet.Run(context.Background(), spec, fleet.Options{})
		ran := tr.end()
		tr.end()
		if err == nil && res.Failed != 0 {
			err = fmt.Errorf("%d devices failed", res.Failed)
		}
		if err != nil {
			t.op("fleet.Run", err)
			return
		}
		t.add("fleet.run_ms", "", ms(ran))
		t.add("fleet.compile_misses", "", float64(res.CompileMisses))
		t.add("fleet.profile_misses", "", float64(res.ProfileMisses))
		t.add("fleet.dedup_ratio", "", float64(res.CompileHits+res.CompileMisses)/float64(res.CompileMisses))
	}
}
