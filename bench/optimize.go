package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"p2go"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/report"
	"p2go/internal/rt"
	"p2go/internal/service"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// optimizeRun is sketch-optimize or stateless-optimize set up: the library
// path a `p2go optimize` user takes, one client.
type optimizeRun struct {
	e     *env
	progs []*program
	// warmMisses are, per program, the compile and profile lookups a warm
	// re-run still misses (failed probes are never cached). The set-up op
	// fixes them; every later re-run must repeat them.
	warmMisses map[string][2]int
}

func setupOptimize(e *env, w *workload, t *tally) (instance, error) {
	progs, err := loadPrograms(w.programs)
	if err != nil {
		return nil, err
	}
	o := &optimizeRun{e: e, progs: progs, warmMisses: map[string][2]int{}}
	// One untimed op per program fills lazy state and fixes the re-run
	// reference.
	for _, p := range progs {
		trace, err := p.w.Trace(e.freshSeed())
		if err != nil {
			return nil, err
		}
		out, err := optimizeOp(p, trace, p2go.Options{}, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		o.warmMisses[p.name] = lookups(out.rerun).misses
		if err := o.check(p, out); err != nil {
			return nil, fmt.Errorf("%s: set-up op: %w", p.name, err)
		}
	}
	return o, nil
}

func (o *optimizeRun) close() error { return nil }

// optimized is what one optimize op produced, kept for the oracle checks
// that run after the clock stops.
type optimized struct {
	res, rerun *p2go.Result // rerun is the last warm re-run's result
	eq         *p2go.EquivalenceReport
	body       []byte
	cold       time.Duration
	warm       []time.Duration // one per warm re-run
}

// optimizeOp is the op of both optimize workloads. Cold: optimize under a
// fresh analysis cache, verify equivalence, encode the report. Warm: the
// same optimize again under the cache the cold part filled, warmReruns
// times — a warm re-run is a few milliseconds, so it needs the samples.
func optimizeOp(p *program, trace *trafficgen.Trace, opts p2go.Options, tr *recorder) (out optimized, err error) {
	ctx := context.Background()
	opts.AnalysisCache = p2go.NewAnalysisCache()
	settle(tr)
	start := time.Now()
	tr.begin("core.optimize", 0)
	out.res, err = p2go.OptimizeContext(ctx, p.prog, p.cfg, trace, opts)
	tr.end()
	if err != nil {
		return out, err
	}
	tr.begin("controller.verify", float64(len(trace.Packets)))
	out.eq, err = p2go.VerifyEquivalence(out.res, p.cfg, trace)
	tr.end()
	if err != nil {
		return out, err
	}
	tr.begin("report.encode", 0)
	out.body, err = json.Marshal(report.FromResult(p.name, 0, out.res))
	tr.end()
	out.cold = time.Since(start)
	if err != nil {
		return out, err
	}
	for i := 0; i < warmReruns; i++ {
		settle(tr)
		start = time.Now()
		tr.begin("core.reoptimize", 0)
		out.rerun, err = p2go.OptimizeContext(ctx, p.prog, p.cfg, trace, opts)
		tr.end()
		if err != nil {
			return out, err
		}
		out.warm = append(out.warm, time.Since(start))
	}
	return out, nil
}

// settle collects the garbage of the op before, so that an op — above all
// a warm one of a few milliseconds — is not timed with a GC cycle another
// op caused. Traced, it is a span of its own, not glue.
func settle(tr *recorder) {
	tr.begin("bench.settle", 0)
	runtime.GC()
	tr.end()
}

// cacheLookups sums a result's analysis-cache counters over its passes.
type cacheLookups struct {
	hits   int
	misses [2]int // compile, profile
}

func (c cacheLookups) total() int { return c.hits + c.misses[0] + c.misses[1] }

func lookups(res *p2go.Result) cacheLookups {
	var c cacheLookups
	for _, ps := range res.PassStats {
		c.hits += ps.CompileHits + ps.ProfileHits
		c.misses[0] += ps.CompileMisses
		c.misses[1] += ps.ProfileMisses
	}
	return c
}

// check holds an op to its oracles: packet-exact equivalence of original
// and optimized program on the trace (internal/controller's replay, not the
// optimizer), the hand-written stage pair, a report that decodes to the
// same pair, and a warm re-run that reproduces the program text and the
// miss counts.
func (o *optimizeRun) check(p *program, out optimized) error {
	if !out.eq.Equivalent() {
		return fmt.Errorf("optimized program not equivalent: %s", out.eq)
	}
	want := wantStages[p.name]
	if got := [2]int{out.res.StagesBefore(), out.res.StagesAfter()}; got != want {
		return fmt.Errorf("stages %v, want %v", got, want)
	}
	var rep report.JobResult
	if err := json.Unmarshal(out.body, &rep); err != nil {
		return fmt.Errorf("report does not decode: %w", err)
	}
	if got := [2]int{rep.StagesBefore, rep.StagesAfter}; got != want {
		return fmt.Errorf("report stages %v, want %v", got, want)
	}
	if p4.Print(out.rerun.Optimized) != p4.Print(out.res.Optimized) {
		return fmt.Errorf("warm re-run produced a different program")
	}
	if got, want := lookups(out.rerun).misses, o.warmMisses[p.name]; got != want {
		return fmt.Errorf("warm re-run missed %v lookups (compile, profile), set-up missed %v", got, want)
	}
	return nil
}

func (o *optimizeRun) round(t *tally, tr *recorder) {
	for _, p := range o.progs {
		seed := o.e.freshSeed()
		if tr != nil {
			o.tracedOp(p, seed, t, tr)
			continue
		}
		trace, err := p.w.Trace(seed)
		if err != nil {
			t.op(p.name, err)
			continue
		}
		out, err := optimizeOp(p, trace, p2go.Options{}, nil)
		if err == nil {
			err = o.check(p, out)
		}
		t.op(p.name, err)
		if err != nil {
			continue
		}
		t.add("op_ms", p.name, ms(out.cold))
		for _, warm := range out.warm {
			t.add("warm_op_ms", p.name, ms(warm))
		}
		t.add("core.stages_saved", p.name, float64(out.res.StagesBefore()-out.res.StagesAfter()))
	}
}

// recordingHooks routes every compile and replay the optimizer issues
// through the recorder, calling the layers exactly as p2god's hooks do:
// tofino.Compile, and a profiler prepared afresh for every replay.
// Parallelism 1 keeps the spans from overlapping.
func recordingHooks(tr *recorder) p2go.Options {
	return p2go.Options{
		Parallelism: 1,
		CompileHook: func(_ context.Context, prog *p4.Program, tgt tofino.Target) (*tofino.Result, error) {
			tr.begin("tofino.compile", 0)
			defer tr.end()
			return tofino.Compile(prog, tgt)
		},
		ProfileHook: func(ctx context.Context, prog *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) (*profile.Profile, error) {
			tr.begin("profile.prepare", 0)
			prep, err := profile.PrepareContext(ctx, prog, cfg)
			tr.end()
			if err != nil {
				return nil, err
			}
			tr.begin("profile.replay", float64(len(trace.Packets)))
			defer tr.end()
			return prep.Profiler().RunWith(ctx, trace, profile.RunOptions{Shards: 1})
		},
	}
}

// tracedJob runs one op as a span tree shaped like a p2god job: parse,
// rules, trace generation, digest, then the op itself behind recording
// hooks.
func tracedJob(p *program, seed int64, tr *recorder) (*trafficgen.Trace, optimized, error) {
	rules := rt.Format(p.cfg)
	job := &program{name: p.name, w: p.w}
	var err error
	tr.begin("job", 0)
	defer tr.end()

	tr.begin("p4.parse_check", 0)
	job.prog, err = p2go.ParseProgram(p.w.Source)
	tr.end()
	if err != nil {
		return nil, optimized{}, err
	}
	tr.begin("rt.parse", 0)
	job.cfg, err = rt.Parse(rules)
	tr.end()
	if err != nil {
		return nil, optimized{}, err
	}
	tr.begin("trafficgen.gen", 0)
	trace, err := p.w.Trace(seed)
	if err != nil {
		tr.end()
		return nil, optimized{}, err
	}
	tr.endUnits(float64(len(trace.Packets)))
	tr.begin("service.trace_digest", float64(len(trace.Packets)))
	service.TraceDigest(trace)
	tr.end()
	out, err := optimizeOp(job, trace, recordingHooks(tr), tr)
	return trace, out, err
}

// tracedOp runs one traced job and derives the optimizer's per-layer
// figures from its spans and its result; then it runs the same op
// sequentially with no hooks or spans, which prices the tracing and,
// against the timed run, the parallel paths.
func (o *optimizeRun) tracedOp(p *program, seed int64, t *tally, tr *recorder) {
	first := tr.mark()
	trace, out, err := tracedJob(p, seed, tr)
	if err == nil {
		err = o.check(p, out)
	}
	t.op(p.name+" (traced)", err)
	if err != nil {
		return
	}
	spans := tr.since(first)
	harvest(t, p.name, spans)

	// Shares of the cold optimizer call's wall time, from this op's spans.
	var optimize, compile, replay time.Duration
	compiles, replays := 0, 0
	for _, s := range spans {
		if s.name == "core.optimize" {
			optimize = s.dur()
		}
		if s.parent < 0 || tr.spans[s.parent].name != "core.optimize" {
			continue // the warm re-run's few uncached probes are not the cold call's
		}
		switch s.name {
		case "tofino.compile":
			compile += s.dur()
			compiles++
		case "profile.prepare":
			replay += s.dur()
		case "profile.replay":
			replay += s.dur()
			replays++
		}
	}
	self := optimize - compile - replay
	t.add("tofino.compile_calls", p.name, float64(compiles))
	t.add("profile.replay_calls", p.name, float64(replays))
	t.add("core.compile_share", p.name, float64(compile)/float64(optimize))
	t.add("core.replay_share", p.name, float64(replay)/float64(optimize))
	t.add("core.self_share", p.name, float64(self)/float64(optimize))
	t.add("core.self_ms", p.name, ms(self))

	// What the optimizer itself reports about the op.
	phases := map[string]time.Duration{}
	for _, ps := range out.res.PassStats {
		phases[ps.ID] += ps.Duration
	}
	for _, id := range []string{"phase1", "phase2", "phase3", "phase4"} {
		t.add("core."+id+"_ms", p.name, ms(phases[id]))
	}
	t.add("core.observations", p.name, float64(len(out.res.Observations)))
	cold, warm := lookups(out.res), lookups(out.rerun)
	t.add("core.cache_hit_ratio", p.name, float64(cold.hits)/float64(cold.total()))
	for _, d := range out.warm {
		t.add("core.rerun_lookup_us", p.name, us(d)/float64(warm.total()))
	}
	t.add("report.bytes", p.name, float64(len(out.body)))

	plain, err := optimizeOp(p, trace, p2go.Options{Parallelism: 1}, nil)
	if err != nil {
		t.op(p.name+" (sequential)", err)
		return
	}
	t.add("trace.overhead_pct", p.name, 100*(float64(out.cold)/float64(plain.cold)-1))
	if timed := t.series["op_ms"][p.name]; len(timed) > 0 {
		t.add("core.parallel_speedup", p.name, ms(plain.cold)/median(timed))
	}
}

func (o *optimizeRun) probes(t *tally, tr *recorder) {
	for _, p := range o.progs {
		seed := o.e.freshSeed()
		probeProgram(t, tr, o.e.probeReps, p, func() (*trafficgen.Trace, error) { return p.w.Trace(seed) })
	}
}
