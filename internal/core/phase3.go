package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/pool"
)

// phase3 reduces table/register memory (§3.3). For each table it probes a
// halving of its memory; tables whose halving saves a stage are candidates.
// The candidate with the lowest hit rate is tried first (least risk of
// changing behavior). Binary search finds the minimum reduction that still
// saves a stage — without needing the target's memory description — and
// the reduced program is re-profiled: if the profile changed (e.g. a
// shrunken Count-Min Sketch over-counts), the candidate is discarded and
// the next one is tried.
func (r *run) phase3(ctx context.Context) error {
	pass := obs.SpanFrom(ctx)
	rejected := map[string]bool{}
	return iterate(ctx, "phase3.iteration", func(ctx context.Context) (bool, error) {
		return r.phase3Once(ctx, pass, rejected)
	})
}

func (r *run) phase3Once(ctx context.Context, pass *obs.Span, rejected map[string]bool) (bool, error) {
	baseStages := totalStages(r.compile.Mapping)
	// A knob changes only sizes and a hash modulus, never field sets,
	// order or primitive counts, so every probe keeps the current
	// program's memory-free depth, and a compile never needs fewer stages
	// than its depth: at that floor no probe can save a stage.
	if depth := r.compile.Mapping.Depth; baseStages <= depth {
		pass.SetAttr(obs.String("skipped", "depth-bound"), obs.Int("stages", baseStages), obs.Int("depth", depth))
		return false, nil
	}

	// Probe: halve each table's memory knob and recompile. Each probe is
	// an independent compile of its own clone, so they fan out over the
	// worker pool; results land in probe order, keeping the candidate
	// list (and everything downstream) identical to a sequential run.
	type probe struct {
		knob    memoryKnob
		order   int
		saves   bool
		hitRate float64
	}
	var probes []probe
	for _, t := range r.compile.IR.Ordered {
		if rejected[t.Name] {
			continue
		}
		knob, ok := knobFor(r.cur, t.Name)
		if !ok {
			continue
		}
		probes = append(probes, probe{knob: knob, order: t.Order})
	}
	err := pool.ForEachIndexed(ctx, len(probes), r.opts.parallelism(), func(i int) error {
		// Probe failures are swallowed (not a candidate); cancellation
		// must not be.
		if err := interrupted(ctx); err != nil {
			return err
		}
		knob := probes[i].knob
		compiled, _, err := r.probeKnob(ctx, knob, knob.full/2)
		if err != nil {
			return nil // halving made the program infeasible; not a candidate
		}
		probes[i].saves = totalStages(compiled.Mapping) < baseStages
		return nil
	})
	if err != nil {
		return false, err
	}
	var candidates []probe
	for _, p := range probes {
		if p.saves {
			p.hitRate = r.prof.HitRate(p.knob.table)
			candidates = append(candidates, p)
		}
	}
	// Lowest hit rate first: least risk of impacting behavior.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].hitRate != candidates[j].hitRate {
			return candidates[i].hitRate < candidates[j].hitRate
		}
		return candidates[i].order < candidates[j].order
	})

	for _, c := range candidates {
		// Binary search the largest knob value that still saves a stage
		// (i.e. the minimum memory reduction).
		bctx, bsp := obs.Start(ctx, "phase3.binary-search",
			obs.String("table", c.knob.table), obs.Int("full", c.knob.full))
		iterations := 0
		lo, hi := c.knob.full/2, c.knob.full // stages(lo) < base, stages(hi) == base
		for lo+1 < hi {
			if err := interrupted(ctx); err != nil {
				bsp.End()
				return false, err
			}
			iterations++
			mid := (lo + hi) / 2
			compiled, _, err := r.probeKnob(bctx, c.knob, mid)
			if err != nil {
				hi = mid
				continue
			}
			if totalStages(compiled.Mapping) < baseStages {
				lo = mid
			} else {
				hi = mid
			}
		}
		minValue := lo
		probed, reduced, err := r.probeKnob(bctx, c.knob, minValue)
		bsp.SetAttr(obs.Int("iterations", iterations), obs.Int("min_value", minValue))
		bsp.End()
		if err != nil {
			rejected[c.knob.table] = true
			continue
		}
		reduction := 100 * float64(c.knob.full-minValue) / float64(c.knob.full)
		what := fmt.Sprintf("table %s size %d -> %d", c.knob.table, c.knob.full, minValue)
		kind := "reduce-table"
		if c.knob.register != "" {
			what = fmt.Sprintf("register %s of table %s: %d -> %d cells", c.knob.register, c.knob.table, c.knob.full, minValue)
			kind = "reduce-register"
		}

		// Verify: the reduction must not change the profile on the trace.
		// A profiling failure (e.g. the installed rules no longer fit the
		// shrunken table) also rejects the candidate.
		vctx, vsp := obs.Start(ctx, "phase3.verify",
			obs.String("table", c.knob.table), obs.Int("value", minValue))
		v, err := r.judge(vctx, reduced, nil,
			contract{check: profileEqual, ref: r.prof, compiled: probed, base: baseStages})
		vsp.End()
		if err != nil {
			return false, err
		}
		tables := []string{c.knob.table}
		if !v.accepted {
			rejected[c.knob.table] = true
			r.observe(v, PhaseMemory, kind, what+fmt.Sprintf(" (-%.1f%%)", reduction), tables)
			continue
		}
		compiled, err := r.compileAs(ctx, reduced.key, reduced.prog)
		if err != nil {
			return false, err
		}
		r.cur, r.compile, r.prof = reduced.prog, compiled, v.prof
		r.observe(v, PhaseMemory, kind, what+fmt.Sprintf(" (-%.1f%%, minimum reduction found by binary search)", reduction), tables,
			"full", fmt.Sprintf("%d", c.knob.full),
			"reduced", fmt.Sprintf("%d", minValue),
			"reduction", fmt.Sprintf("%.4f", reduction/100))
		return true, nil
	}
	return false, nil
}

// probeKnob compiles the current program with the knob set to value and
// returns the compile together with the derived child. Every call is
// one memory probe, so it carries its own span — the halving probes and
// each binary-search iteration show up individually.
func (r *run) probeKnob(ctx context.Context, knob memoryKnob, value int) (*compiled, *child, error) {
	ctx, sp := obs.Start(ctx, "phase3.probe",
		obs.String("table", knob.table), obs.Int("value", value))
	defer sp.End()
	c := r.compile.derive(r.tgt, "knob:"+knob.table+"="+strconv.Itoa(value), func() *child {
		candidate := p4.Clone(r.cur)
		if err := applyKnob(candidate, knob, value); err != nil {
			return &child{reject: "infeasible", err: err}
		}
		return &child{prog: candidate}
	})
	if c.prog == nil {
		sp.SetAttr(obs.String("error", c.reject))
		return nil, nil, c.err
	}
	compiled, err := r.compileAs(ctx, c.key, c.prog)
	if err != nil {
		sp.SetAttr(obs.String("error", "compile-failed"))
		return nil, nil, err
	}
	sp.SetAttr(obs.Int("stages", totalStages(compiled.Mapping)))
	return compiled, c, nil
}
