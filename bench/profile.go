package main

import (
	"context"
	"fmt"
	"time"

	"p2go/internal/profile"
	"p2go/internal/trafficgen"
)

// profileRun is profile-unique or profile-zipf set up: what `p2go profile`
// does, one client, over a few traces cycled round by round.
type profileRun struct {
	e      *env
	w      *workload
	progs  []*program
	traces map[string][]*trafficgen.Trace
	// refs are the oracle: each trace's profile as the tree-walking
	// interpreter computes it, one shard, no dedup — none of the compiled,
	// sharded, deduplicating path the ops take.
	refs   map[string][]*profile.Profile
	rounds int
}

func setupProfile(e *env, w *workload, t *tally) (instance, error) {
	progs, err := loadPrograms(w.programs)
	if err != nil {
		return nil, err
	}
	pr := &profileRun{e: e, w: w, progs: progs,
		traces: map[string][]*trafficgen.Trace{}, refs: map[string][]*profile.Profile{}}
	ctx := context.Background()
	for _, p := range progs {
		prep, err := profile.PrepareContext(ctx, p.prog, p.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		for i := 0; i < profileSeeds; i++ {
			trace, err := w.traceFor(p, e.freshSeed())
			if err != nil {
				return nil, err
			}
			start := time.Now()
			ref, err := prep.Profiler().RunWith(ctx, trace,
				profile.RunOptions{Interpret: true, NoDedup: true, Shards: 1})
			if err != nil {
				return nil, fmt.Errorf("%s: oracle replay: %w", p.name, err)
			}
			t.add("sim.interp_ns_per_pkt", p.name, float64(time.Since(start))/float64(len(trace.Packets)))
			pr.traces[p.name] = append(pr.traces[p.name], trace)
			pr.refs[p.name] = append(pr.refs[p.name], ref)
		}
	}
	// One untimed round fills lazy state.
	warmup := newTally()
	pr.round(warmup, nil)
	pr.rounds = 0
	if warmup.failed > 0 {
		return nil, fmt.Errorf("set-up op: %s", warmup.failures[0])
	}
	return pr, nil
}

func (pr *profileRun) close() error { return nil }

func (pr *profileRun) round(t *tally, tr *recorder) {
	ctx := context.Background()
	i := pr.rounds % profileSeeds
	pr.rounds++
	for _, p := range pr.progs {
		trace, ref := pr.traces[p.name][i], pr.refs[p.name][i]
		packets := float64(len(trace.Packets))
		first := tr.mark()

		// Cold: instrument and lower the program, then replay.
		settle(tr)
		start := time.Now()
		tr.begin("job", 0)
		tr.begin("profile.prepare", 0)
		prep, err := profile.PrepareContext(ctx, p.prog, p.cfg)
		tr.end()
		var got *profile.Profile
		if err == nil {
			tr.begin("profile.replay", packets)
			got, err = prep.Profiler().RunWith(ctx, trace, profile.RunOptions{})
			tr.end()
		}
		tr.end()
		cold := time.Since(start)
		if err == nil && !got.Equal(ref) {
			err = fmt.Errorf("profile differs from the interpreter's: %s", got.Diff(ref))
		}
		t.op(p.name, err)
		if err != nil {
			continue
		}

		// Warm: replay again on the prepared plan, as the optimizer does
		// for every candidate whose plan it has cached.
		settle(tr)
		start = time.Now()
		tr.begin("job", 0)
		tr.begin("profile.replay", packets)
		got, err = prep.Profiler().RunWith(ctx, trace, profile.RunOptions{})
		tr.end()
		tr.end()
		warm := time.Since(start)
		if err == nil && !got.Equal(ref) {
			err = fmt.Errorf("warm profile differs from the interpreter's: %s", got.Diff(ref))
		}
		t.op(p.name+" (warm)", err)
		if err != nil {
			continue
		}

		if tr != nil {
			harvest(t, p.name, tr.since(first))
			continue
		}
		t.add("op_ms", p.name, ms(cold))
		t.add("warm_op_ms", p.name, ms(warm))
		t.add("profile.replay_pkts_per_s", p.name, packets/cold.Seconds())
	}
}

func (pr *profileRun) probes(t *tally, tr *recorder) {
	for _, p := range pr.progs {
		seed := pr.e.freshSeed()
		probeProgram(t, tr, pr.e.probeReps, p, func() (*trafficgen.Trace, error) { return pr.w.traceFor(p, seed) })
	}
}
