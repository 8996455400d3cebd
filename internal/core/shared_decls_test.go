package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// astWatch remembers programs with the digest of their text as first seen.
// Hooks add to it from the pool workers.
type astWatch struct {
	mu   sync.Mutex
	seen map[*p4.Program]watched
}

type watched struct{ what, digest string }

func (w *astWatch) add(what string, p *p4.Program) {
	if p == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.seen[p]; !ok {
		w.seen[p] = watched{what, printDigest(p)}
	}
}

func (w *astWatch) check(t *testing.T) {
	t.Helper()
	for p, was := range w.seen {
		if printDigest(p) != was.digest {
			t.Errorf("%s was edited after it was published:\n%s", was.what, p4.Print(p))
		}
	}
}

// watchedRun drives one optimization the way manager.optimize does, over
// the analysis cache ac, and watches every program it publishes: the
// caller's AST, Result.Original, the run's current program, compiled AST and
// controller program after every pass, every AST the analysis cache comes to
// hold (compile results and prepared plans, seen through the hooks, and every
// child in the candidate tables and in the source's table of bound programs)
// and every candidate handed to a replay, which is each intermediate r.cur
// before the run adopts it.
func watchedRun(t *testing.T, w *astWatch, ac *AnalysisCache, ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace, opts Options) {
	t.Helper()
	opts.AnalysisCache = ac
	opts.Parallelism = 4
	opts.CompileHook = func(_ context.Context, prog *p4.Program, tgt tofino.Target) (*tofino.Result, error) {
		res, err := tofino.Compile(prog, tgt)
		if err == nil {
			w.add("a cached compile's AST", res.AST)
		}
		return res, err
	}
	opts.ProfileHook = func(ctx context.Context, prog *p4.Program, cfg *rt.Config, trace *trafficgen.Trace) (*profile.Profile, error) {
		w.add("a replayed candidate", prog)
		prep, err := ac.Prepare(ctx, prog, cfg)
		if err != nil {
			return nil, err
		}
		w.add("a cached plan's instrumented AST", prep.Ins.AST)
		return prep.Profiler().RunWith(ctx, trace, profile.RunOptions{Shards: 1})
	}
	m, err := newManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := obs.Start(context.Background(), "optimize")
	defer root.End()
	w.add("the caller's AST", ast)
	r, err := m.newRun(ast, cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(after string) {
		w.add("r.cur after "+after, r.cur)
		w.add("r.compile.AST after "+after, r.compile.AST)
		w.add("the controller program after "+after, r.ctlProgram)
		r.source.children.Range(func(name, c any) bool {
			w.add("the bound child "+name.(string)+" after "+after, c.(*child).prog)
			return true
		})
		for _, parent := range []*p4.Program{r.original, r.cur} {
			walkDerived(ac, r.tgt, parent, func(name string, c *child) {
				w.add("the derived child "+name+" after "+after, c.prog)
			})
		}
	}
	if _, err := m.profilePass(ctx, r, root); err != nil {
		t.Fatal(err)
	}
	w.add("Result.Original", r.original)
	publish("phase1")
	for _, p := range m.passes {
		if err := m.runPass(ctx, r, p); err != nil {
			t.Fatal(err)
		}
		publish(p.id)
	}
}

// TestSharedDeclsNeverEdited holds the pipeline to the invariant p4.Clone's
// sharing rests on: a program reachable from the caller, the run state or the
// analysis cache is never edited — a rewrite edits only the clone it made.
// Clones share header types, instances, parser states and the other
// parse-time declarations, so one in-place edit would show in every program
// watched here. Every child a candidate table holds is shared by every run
// that reaches its parent, so each case runs twice over one cache, the second
// time on other traffic, and the first run's children must print at the end as
// they did when they were published. Run under -race as well: Phase 3/4
// workers read the shared declarations and the tables concurrently.
func TestSharedDeclsNeverEdited(t *testing.T) {
	tuneFirst := append([]string{"tune"}, DefaultPassIDs()...)
	for _, name := range workloads.Names() {
		wl, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := wl.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		sibling, err := wl.Trace(2)
		if err != nil {
			t.Fatal(err)
		}
		schedules := map[string]Options{
			"default": {},
			"guards":  {InsertDependencyGuards: true},
		}
		if wl.TuneAccuracyTable != "" {
			schedules["tune"] = Options{
				Passes:                 tuneFirst,
				InsertDependencyGuards: true,
				TuneAccuracyTable:      wl.TuneAccuracyTable,
			}
		}
		for sched, opts := range schedules {
			t.Run(name+"/"+sched, func(t *testing.T) {
				w := &astWatch{seen: map[*p4.Program]watched{}}
				ac := NewAnalysisCache()
				watchedRun(t, w, ac, p4.MustParse(wl.Source), wl.Config(), trace, opts)
				watchedRun(t, w, ac, p4.MustParse(wl.Source), wl.Config(), sibling, opts)
				w.check(t)
			})
		}
	}
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprintf("generated/seed%d", seed), func(t *testing.T) {
			g := programs.Generate(seed)
			ast := p4.MustParse(g.Source)
			trace := &trafficgen.Trace{}
			for _, p := range g.Packets {
				trace.Packets = append(trace.Packets, trafficgen.Packet{Port: p.Port, Data: p.Data})
			}
			opts := Options{InsertDependencyGuards: true}
			if len(ast.Tunables) > 0 {
				opts.Passes = tuneFirst
				opts.TuneAccuracyTable = "gen_limit"
			}
			cfg, err := rt.Parse(g.Rules)
			if err != nil {
				t.Fatal(err)
			}
			w := &astWatch{seen: map[*p4.Program]watched{}}
			ac := NewAnalysisCache()
			watchedRun(t, w, ac, ast, cfg, trace, opts)
			reversed := &trafficgen.Trace{}
			for i := len(trace.Packets) - 1; i >= 0; i-- {
				reversed.Packets = append(reversed.Packets, trace.Packets[i])
			}
			watchedRun(t, w, ac, p4.MustParse(g.Source), cfg, reversed, opts)
			w.check(t)
		})
	}
}
