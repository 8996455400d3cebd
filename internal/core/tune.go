package core

import (
	"context"
	"fmt"
	"sort"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/workloads"
)

// TuneOptions configures the tune pass: the objective is "minimize
// pipeline stages subject to a profile-measured accuracy floor", searched
// by coordinate descent over each tunable's geometric lattice.
type TuneOptions struct {
	// AccuracyTable names the table whose hit count is the accuracy
	// signal — for sketch programs, the table applied when the sketch
	// fires (alarms, rehash fixups, cookie checks), whose hits move when
	// hash collisions or false positives change. "" disables the
	// accuracy constraint: the search minimizes stages alone.
	AccuracyTable string
	// MaxAccuracyLoss is the largest tolerated |hits(candidate) -
	// hits(reference)| / total_packets, where the reference point binds
	// every tunable to its maximum (the most accurate configuration).
	// Candidates may never be less accurate than the starting bindings,
	// so an infeasible starting point does not wedge the search. 0 means
	// the default of 1%.
	MaxAccuracyLoss float64
	// MaxRounds bounds full coordinate-descent sweeps; the search also
	// stops at the first sweep that improves nothing. 0 means 4.
	MaxRounds int
}

// WorkloadTune is the tune pass's configuration for a workload's tune
// spec, or nil for a workload without one. It is the one conversion: the
// CLI, the service's jobs and fleet devices all configure tune through it.
func WorkloadTune(spec *workloads.TuneSpec) *TuneOptions {
	if spec == nil {
		return nil
	}
	return &TuneOptions{AccuracyTable: spec.AccuracyTable, MaxAccuracyLoss: spec.MaxAccuracyLoss}
}

const (
	defaultTuneMaxLoss = 0.01
	defaultTuneRounds  = 4
)

func (o Options) tune() TuneOptions {
	t := TuneOptions{}
	if o.Tune != nil {
		t = *o.Tune
	}
	if t.MaxAccuracyLoss == 0 {
		t.MaxAccuracyLoss = defaultTuneMaxLoss
	}
	if t.MaxRounds == 0 {
		t.MaxRounds = defaultTuneRounds
	}
	return t
}

// tuneEval is one measured candidate instantiation.
type tuneEval struct {
	bindings map[string]int
	stages   int
	fits     bool
	hits     int     // accuracy-table hits
	loss     float64 // |hits - reference hits| / total packets
}

// memCost is the tie-breaker: total bound cells across knobs.
func (e *tuneEval) memCost() int {
	n := 0
	for _, v := range e.bindings {
		n += v
	}
	return n
}

// tunePass searches the program's @tunable knobs. It instantiates every
// candidate from the pristine source AST, so it is meant to run before
// the rewriting passes (the -tune schedule puts it first); each candidate
// flows through the manager's compile/profile funnels and therefore the
// analysis cache — a repeat search over the same lattice replays from
// cache instead of recompiling.
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
	topts := r.opts.tune()

	// Reference point: every knob at its maximum — the most accurate
	// configuration, against which candidate accuracy loss is measured.
	var refHits int
	if topts.AccuracyTable != "" {
		refBindings := map[string]int{}
		for _, t := range r.src.Tunables {
			refBindings[t.Name] = t.Max
		}
		ref, err := r.tuneEval(ctx, refBindings, 0)
		if err != nil {
			return err
		}
		refHits = ref.hits
	}

	start, err := r.tuneEval(ctx, r.bindings, refHits)
	if err != nil {
		return err
	}
	// The floor never demands more accuracy than the starting bindings
	// deliver, so a search from an already-lossy default can still move.
	floor := topts.MaxAccuracyLoss
	if start.loss > floor {
		floor = start.loss
	}
	best := start

	knobs := make([]*p4.Tunable, len(r.src.Tunables))
	copy(knobs, r.src.Tunables)
	sort.Slice(knobs, func(i, j int) bool { return knobs[i].Name < knobs[j].Name })

	candidates := 0
	for round := 0; round < topts.MaxRounds; round++ {
		improved := false
		for _, knob := range knobs {
			for _, v := range knobLadder(knob) {
				if v == best.bindings[knob.Name] {
					continue
				}
				b := cloneBindings(best.bindings)
				b[knob.Name] = v
				cand, err := r.tuneEval(ctx, b, refHits)
				if err != nil {
					return err
				}
				candidates++
				adopt := tuneBetter(cand, best, floor, topts.AccuracyTable != "")
				r.obs = append(r.obs, Observation{
					Phase:    PhaseTune,
					Kind:     "tune-candidate",
					Accepted: adopt,
					Summary:  fmt.Sprintf("bindings %s", p4.FormatBindings(cand.bindings)),
					Evidence: fmt.Sprintf("stages %d (fits %v), accuracy loss %.4f vs floor %.4f on table %q",
						cand.stages, cand.fits, cand.loss, floor, topts.AccuracyTable),
					Tables:       accuracyTables(topts),
					StagesBefore: best.stages,
					StagesAfter:  cand.stages,
					Details: map[string]string{
						"bindings": p4.FormatBindings(cand.bindings),
						"stages":   fmt.Sprintf("%d", cand.stages),
						"loss":     fmt.Sprintf("%.6f", cand.loss),
						"hits":     fmt.Sprintf("%d", cand.hits),
					},
				})
				if adopt {
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
		Tables:       accuracyTables(topts),
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

	// Adopt the winner: the run continues from the pristine program
	// instantiated at the tuned bindings (recompile and reprofile are
	// cache hits — the search already measured this point).
	r.bindings = best.bindings
	inst, err := p4.Instantiate(r.src, best.bindings)
	if err != nil {
		return fmt.Errorf("core: tune adopt: %w", err)
	}
	r.cur = inst
	if err := r.recompile(ctx); err != nil {
		return err
	}
	return r.reprofile(ctx)
}

// tuneEval instantiates, compiles, and (when an accuracy table is
// configured) profiles one candidate binding through the cached funnels.
func (r *run) tuneEval(ctx context.Context, bindings map[string]int, refHits int) (*tuneEval, error) {
	inst, err := p4.Instantiate(r.src, bindings)
	if err != nil {
		return nil, fmt.Errorf("core: tune candidate: %w", err)
	}
	ctx, sp := obs.Start(ctx, "tune.candidate", obs.String("bindings", p4.FormatBindings(bindings)))
	defer sp.End()
	comp, err := r.doCompile(ctx, inst)
	if err != nil {
		return nil, err
	}
	ev := &tuneEval{
		bindings: cloneBindings(bindings),
		stages:   totalStages(comp.Mapping),
		fits:     comp.Mapping.Fits,
	}
	if t := r.opts.tune(); t.AccuracyTable != "" {
		prof, err := r.profileCandidate(ctx, inst)
		if err != nil {
			return nil, err
		}
		ev.hits = prof.Hits[t.AccuracyTable]
		if prof.TotalPackets > 0 {
			diff := ev.hits - refHits
			if diff < 0 {
				diff = -diff
			}
			ev.loss = float64(diff) / float64(prof.TotalPackets)
		}
	}
	sp.SetAttr(obs.Int("stages", ev.stages))
	return ev, nil
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
	if best.fits && !cand.fits {
		return false
	}
	if cand.fits && !best.fits {
		return true
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

func cloneBindings(b map[string]int) map[string]int {
	out := make(map[string]int, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

func accuracyTables(t TuneOptions) []string {
	if t.AccuracyTable == "" {
		return nil
	}
	return []string{t.AccuracyTable}
}
