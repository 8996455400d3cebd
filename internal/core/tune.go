package core

import (
	"context"
	"fmt"
	"maps"
	"sort"

	"p2go/internal/obs"
	"p2go/internal/p4"
)

const (
	// tuneMaxLoss is the largest tolerated |hits(candidate) -
	// hits(reference)| / total_packets on the accuracy table, where the
	// reference point binds every tunable to its maximum (the most
	// accurate configuration). Candidates may never be less accurate than
	// the starting bindings, so an infeasible starting point does not
	// wedge the search.
	tuneMaxLoss = 0.01
	tuneRounds  = 4 // full sweeps at most; the search stops at the first that improves nothing
)

// tuneEval is one measured candidate instantiation: the source's bind:
// child at bindings and the judge's verdict on it.
type tuneEval struct {
	bindings map[string]int
	bound    *child
	*verdict
}

// memCost is the tie-breaker: total bound cells across knobs.
func (e *tuneEval) memCost() int {
	n := 0
	for _, v := range e.bindings {
		n += v
	}
	return n
}

// tunePass searches the program's @tunable knobs: it minimizes pipeline
// stages subject to a profile-measured accuracy floor (tuneMaxLoss on
// Options.TuneAccuracyTable), by coordinate descent over each tunable's
// geometric lattice. Every candidate is a
// bind: child of the pristine source (run.bind), so the pass must run
// before the rewriting passes — ValidatePasses admits it only as the first
// entry of a schedule. Each candidate flows through the compile/profile
// funnels and therefore the analysis cache: a repeat search over the same
// lattice is table lookups and cache hits.
func (r *run) tunePass(ctx context.Context) error {
	startStages := totalStages(r.compile.Mapping)
	if len(r.src.Tunables) == 0 {
		r.obs = append(r.obs, Observation{
			Phase:        PhaseTune,
			Kind:         "tune-noop",
			Summary:      "no tunable symbols declared",
			Evidence:     "program declares no @tunable knobs; nothing to search",
			StagesBefore: startStages,
			StagesAfter:  startStages,
		})
		return nil
	}
	table := r.opts.TuneAccuracyTable

	// Reference point: every knob at its maximum — the most accurate
	// configuration, against which candidate accuracy loss is measured.
	var refHits int
	if table != "" {
		refBindings := map[string]int{}
		for _, t := range r.src.Tunables {
			refBindings[t.Name] = t.Max
		}
		ref, err := r.tuneEval(ctx, refBindings, contract{check: tuneLoss, table: table})
		if err != nil {
			return err
		}
		refHits = ref.hits
	}

	start, err := r.tuneEval(ctx, r.bindings, contract{check: tuneLoss, table: table, want: refHits})
	if err != nil {
		return err
	}
	// The floor never demands more accuracy than the starting bindings
	// deliver, so a search from an already-lossy default can still move.
	floor := tuneMaxLoss
	if start.loss > floor {
		floor = start.loss
	}
	best := start

	knobs := make([]*p4.Tunable, len(r.src.Tunables))
	copy(knobs, r.src.Tunables)
	sort.Slice(knobs, func(i, j int) bool { return knobs[i].Name < knobs[j].Name })

	candidates := 0
	for round := 0; round < tuneRounds; round++ {
		improved := false
		for _, knob := range knobs {
			for _, v := range knobLadder(knob) {
				if v == best.bindings[knob.Name] {
					continue
				}
				b := maps.Clone(best.bindings)
				b[knob.Name] = v
				cand, err := r.tuneEval(ctx, b, contract{check: tuneLoss, table: table, want: refHits, floor: floor, base: best.stages})
				if err != nil {
					return err
				}
				candidates++
				// The judge refuses no tune candidate; the report's verdict
				// is the search's pick.
				cand.accepted = tuneBetter(cand, best, floor, table != "")
				r.observe(cand.verdict, PhaseTune, "tune-candidate", fmt.Sprintf("bindings %s", p4.FormatBindings(cand.bindings)),
					accuracyTables(table), "bindings", p4.FormatBindings(cand.bindings))
				if cand.accepted {
					best = cand
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}

	changed := p4.FormatBindings(best.bindings) != p4.FormatBindings(r.bindings)
	r.obs = append(r.obs, Observation{
		Phase:    PhaseTune,
		Kind:     "tune-result",
		Accepted: changed,
		Summary: fmt.Sprintf("tuned bindings %s (default %s)",
			p4.FormatBindings(best.bindings), p4.FormatBindings(r.bindings)),
		Evidence: fmt.Sprintf("%d candidates searched; stages %d -> %d, accuracy loss %.4f (floor %.4f)",
			candidates, start.stages, best.stages, best.loss, floor),
		Tables:       accuracyTables(table),
		StagesBefore: start.stages,
		StagesAfter:  best.stages,
		Details: map[string]string{
			"bindings":   p4.FormatBindings(best.bindings),
			"candidates": fmt.Sprintf("%d", candidates),
			"loss":       fmt.Sprintf("%.6f", best.loss),
		},
	})
	if !changed {
		return nil
	}

	// Adopt the winner: the run continues from its bind: child, whose
	// compile is a cache hit (the search measured this point).
	r.bindings, r.cur = best.bindings, best.bound.prog
	if r.compile, err = r.compileAs(ctx, best.bound.key, best.bound.prog); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return r.reprofile(ctx)
}

// tuneEval binds one candidate and has the judge measure it: a compile,
// and a replay when an accuracy table is configured.
func (r *run) tuneEval(ctx context.Context, bindings map[string]int, k contract) (*tuneEval, error) {
	c, err := r.bind(bindings)
	if err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "tune.candidate", obs.String("bindings", p4.FormatBindings(bindings)))
	defer sp.End()
	v, err := r.judge(ctx, c, nil, k)
	if err != nil {
		return nil, err
	}
	// bindings is never edited once bound.
	return &tuneEval{bindings: bindings, bound: c, verdict: v}, nil
}

// tuneBetter reports whether cand beats best under the objective:
// feasibility first (accuracy within the floor, and a fitting pipeline
// never traded for a non-fitting one), then fewer stages, then lower
// loss, then less memory, then the canonical binding string for
// determinism.
func tuneBetter(cand, best *tuneEval, floor float64, haveAccuracy bool) bool {
	if haveAccuracy && cand.loss > floor {
		return false
	}
	if candFits, bestFits := cand.compiled.Mapping.Fits, best.compiled.Mapping.Fits; candFits != bestFits {
		return candFits
	}
	if cand.stages != best.stages {
		return cand.stages < best.stages
	}
	if cand.loss != best.loss {
		return cand.loss < best.loss
	}
	if cand.memCost() != best.memCost() {
		return cand.memCost() < best.memCost()
	}
	return p4.FormatBindings(cand.bindings) < p4.FormatBindings(best.bindings)
}

// knobLadder is the candidate lattice for one knob: geometric doubling
// from min to max, plus the default and max themselves.
func knobLadder(t *p4.Tunable) []int {
	seen := map[int]bool{}
	var out []int
	add := func(v int) {
		if v >= t.Min && v <= t.Max && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for v := t.Min; v > 0 && v < t.Max && len(out) < 24; v *= 2 {
		add(v)
	}
	add(t.Max)
	add(t.Default)
	sort.Ints(out)
	return out
}

func accuracyTables(table string) []string {
	if table == "" {
		return nil
	}
	return []string{table}
}
