package profile_test

import (
	"context"
	"fmt"
	"testing"

	"p2go/internal/core"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// TestEveryProgramRunsCompiled is the invariant that replaced the silent
// interpreter fallback: every program the system replays — each bundled
// workload and generator seeds 1-64, as written, after the default
// schedule, and the controller segment Phase 4 split off — prepares onto
// the compiled engine. A construct the lowerer does not cover fails here
// (and at PrepareContext in production) instead of replaying ~7x slower.
func TestEveryProgramRunsCompiled(t *testing.T) {
	type program struct {
		name   string
		source string
		cfg    func() (*rt.Config, error)
		trace  func() (*trafficgen.Trace, error)
	}
	var progs []program
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{
			name:   name,
			source: w.Source,
			cfg:    func() (*rt.Config, error) { return w.Config(), nil },
			trace:  func() (*trafficgen.Trace, error) { return w.Trace(1) },
		})
	}
	for seed := int64(1); seed <= 64; seed++ {
		g := programs.Generate(seed)
		progs = append(progs, program{
			name:   fmt.Sprintf("generated-seed%d", seed),
			source: g.Source,
			cfg:    func() (*rt.Config, error) { return rt.Parse(g.Rules) },
			trace: func() (*trafficgen.Trace, error) {
				tr := &trafficgen.Trace{}
				for _, p := range g.Packets {
					tr.Packets = append(tr.Packets, trafficgen.Packet{Port: p.Port, Data: p.Data})
				}
				return tr, nil
			},
		})
	}

	ctx := context.Background()
	requireCompiled := func(t *testing.T, what string, ast *p4.Program, cfg *rt.Config) {
		t.Helper()
		prep, err := profile.PrepareContext(ctx, ast, cfg)
		if err != nil {
			t.Fatalf("%s: prepare: %v", what, err)
		}
		if engine, reason := prep.Engine(); engine != "compiled" || reason != "" {
			t.Errorf("%s: engine = (%q, %q), want (\"compiled\", \"\")", what, engine, reason)
		}
	}
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			ast, err := p4.Parse(p.source)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := p.cfg()
			if err != nil {
				t.Fatal(err)
			}
			trace, err := p.trace()
			if err != nil {
				t.Fatal(err)
			}
			requireCompiled(t, "original", ast, cfg)

			res, err := core.Optimize(context.Background(), ast, cfg, trace, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			requireCompiled(t, "optimized", res.Optimized, res.OptimizedConfig)
			if seg := res.ControllerProgram; seg != nil {
				// The controller installs only the rules of the segment's
				// own tables (controller.New).
				segCfg := &rt.Config{}
				for _, r := range cfg.Rules {
					if seg.Table(r.Table) != nil {
						segCfg.Add(r)
					}
				}
				requireCompiled(t, "controller segment", seg, segCfg)
			}
		})
	}
}
