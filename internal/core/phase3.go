package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"p2go/internal/obs"
	"p2go/internal/p4"
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
	rejected := map[string]bool{}
	for iter := 1; ; iter++ {
		ictx, sp := obs.Start(ctx, "phase3.iteration", obs.Int("iteration", iter))
		applied, err := r.phase3Once(ictx, rejected)
		sp.SetAttr(obs.Bool("improved", applied))
		sp.End()
		if err != nil {
			return err
		}
		if !applied {
			return nil
		}
	}
}

func (r *run) phase3Once(ctx context.Context, rejected map[string]bool) (bool, error) {
	baseStages := totalStages(r.compile.Mapping)

	// Probe: halve each table's memory knob and recompile. Each probe is
	// an independent compile of its own clone, so they fan out over the
	// worker pool; results land in probe order, keeping the candidate
	// list (and everything downstream) identical to a sequential run.
	type candidate struct {
		knob    memoryKnob
		hitRate float64
		order   int
	}
	type probe struct {
		knob  memoryKnob
		order int
		saves bool
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
	err := ForEachIndexed(ctx, len(probes), r.opts.parallelism(), func(i int) error {
		// Probe failures are swallowed (not a candidate); cancellation
		// must not be.
		if err := interrupted(ctx); err != nil {
			return err
		}
		knob := probes[i].knob
		stages, _, err := r.stagesWithKnob(ctx, knob, knob.full/2)
		if err != nil {
			return nil // halving made the program infeasible; not a candidate
		}
		probes[i].saves = stages < baseStages
		return nil
	})
	if err != nil {
		return false, err
	}
	var candidates []candidate
	for _, p := range probes {
		if p.saves {
			candidates = append(candidates, candidate{
				knob:    p.knob,
				hitRate: r.prof.HitRate(p.knob.table),
				order:   p.order,
			})
		}
	}
	if len(candidates) == 0 {
		return false, nil
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
			stages, _, err := r.stagesWithKnob(bctx, c.knob, mid)
			if err != nil {
				hi = mid
				continue
			}
			if stages < baseStages {
				lo = mid
			} else {
				hi = mid
			}
		}
		minValue := lo
		stages, reduced, err := r.stagesWithKnob(bctx, c.knob, minValue)
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
		newProf, err := r.profileCandidate(vctx, reduced.prog)
		if err != nil {
			vsp.SetAttr(obs.String("rejected", "config-infeasible"))
			vsp.End()
			rejected[c.knob.table] = true
			r.obs = append(r.obs, Observation{
				Phase:        PhaseMemory,
				Kind:         kind,
				Accepted:     false,
				Summary:      what + fmt.Sprintf(" (-%.1f%%)", reduction),
				Evidence:     "reduced program cannot run the provided configuration: " + err.Error(),
				Tables:       []string{c.knob.table},
				StagesBefore: baseStages,
				StagesAfter:  baseStages,
			})
			continue
		}
		if diff := r.prof.Diff(newProf); diff != "" {
			vsp.SetAttr(obs.String("rejected", "behavior-changed"))
			vsp.End()
			rejected[c.knob.table] = true
			r.obs = append(r.obs, Observation{
				Phase:        PhaseMemory,
				Kind:         kind,
				Accepted:     false,
				Summary:      what + fmt.Sprintf(" (-%.1f%%)", reduction),
				Evidence:     "reduction changed the program's behavior on the trace: " + diff,
				Tables:       []string{c.knob.table},
				StagesBefore: baseStages,
				StagesAfter:  baseStages,
				Details: map[string]string{
					"diff": diff,
				},
			})
			continue
		}

		vsp.SetAttr(obs.Bool("accepted", true))
		vsp.End()
		compiled, err := r.compileAs(ctx, reduced.key, reduced.prog)
		if err != nil {
			return false, err
		}
		r.cur = reduced.prog
		r.compile = compiled
		r.prof = newProf
		r.obs = append(r.obs, Observation{
			Phase:        PhaseMemory,
			Kind:         kind,
			Accepted:     true,
			Summary:      what + fmt.Sprintf(" (-%.1f%%, minimum reduction found by binary search)", reduction),
			Evidence:     "profile unchanged on the trace after the reduction",
			Tables:       []string{c.knob.table},
			StagesBefore: baseStages,
			StagesAfter:  stages,
			Details: map[string]string{
				"full":      fmt.Sprintf("%d", c.knob.full),
				"reduced":   fmt.Sprintf("%d", minValue),
				"reduction": fmt.Sprintf("%.4f", reduction/100),
			},
		})
		return true, nil
	}
	return false, nil
}

// stagesWithKnob compiles the current program with the knob set to value
// and returns the required stages together with the derived child. Every
// call is one memory probe, so it carries its own span — the halving probes
// and each binary-search iteration show up individually.
func (r *run) stagesWithKnob(ctx context.Context, knob memoryKnob, value int) (int, *child, error) {
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
		return 0, nil, c.err
	}
	compiled, err := r.compileAs(ctx, c.key, c.prog)
	if err != nil {
		sp.SetAttr(obs.String("error", "compile-failed"))
		return 0, nil, err
	}
	sp.SetAttr(obs.Int("stages", totalStages(compiled.Mapping)))
	return totalStages(compiled.Mapping), c, nil
}
