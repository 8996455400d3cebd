package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// passDef is one registered optimization pass. The registry is the single
// source of truth for what the pipeline can run: IDs are stable API
// (Options.Passes, service.JobSpec.Passes, report rows), span names and
// history labels are pinned by the golden span-tree tests, and the
// declared analysis needs document which cached artifacts the pass
// consumes from the manager's funnels.
type passDef struct {
	id       string
	doc      string
	span     string   // obs span wrapping the whole pass
	label    string   // stage-history snapshot label recorded after the pass ("" = none)
	needs    []string // analyses consumed through the manager: "compile", "profile", "deps"
	readOnly bool     // reports candidates without mutating the program; not selectable via Options.Passes
	implicit bool     // always runs first (profiling); not selectable via Options.Passes
	optIn    bool     // selectable via Options.Passes but not part of the default schedule
	run      func(*run, context.Context) error
}

// passRegistry lists every pass in default execution order. phase1 is
// implicit (profiling is the precondition of every other pass), and
// offload-report is the read-only pass behind OffloadCandidates.
var passRegistry = []*passDef{
	{
		id:       "phase1",
		doc:      "Profile the program on the trace: per-table hit counts, action frequencies, co-occurrence evidence.",
		span:     "phase1.profile",
		needs:    []string{"compile", "profile"},
		implicit: true,
	},
	{
		id: "tune",
		doc: "Search the program's @tunable knobs (coordinate descent over a geometric lattice): minimize stages subject to a " +
			"profile-measured accuracy floor; every candidate is a binding of the source program, derived and compiled through the " +
			"analysis cache. Opt-in; a schedule may name it once, as its first entry — it restarts from the source at the winning bindings.",
		span:  "tune.search",
		label: "tuning-parameters",
		needs: []string{"compile", "profile"},
		optIn: true,
		run:   (*run).tunePass,
	},
	{
		id:    "phase2",
		doc:   "Remove table dependencies the profile shows never manifest, so the allocator can co-locate tables (§3 dependency removal).",
		span:  "phase2.remove-dependencies",
		label: "removing-dependencies",
		needs: []string{"compile", "profile", "deps"},
		run:   (*run).phase2,
	},
	{
		id:    "phase3",
		doc:   "Binary-search the smallest table and register sizes that still cover the observed working set and save stages (§3 memory reduction).",
		span:  "phase3.reduce-memory",
		label: "reducing-memory",
		needs: []string{"compile", "profile"},
		run:   (*run).phase3,
	},
	{
		id:    "phase4",
		doc:   "Offload the best rarely-hit self-contained segment to the controller behind a To_Ctl redirect (§3 controller offload).",
		span:  "phase4.offload",
		label: "offloading-code",
		needs: []string{"compile", "profile", "deps"},
		run:   (*run).phase4,
	},
	{
		id:       "offload-report",
		doc:      "Measure every self-contained offload segment (stages saved, redirect fraction) without applying any; backs OffloadCandidates.",
		span:     "phase4.offload-report",
		needs:    []string{"compile", "profile", "deps"},
		readOnly: true,
		run: func(r *run, ctx context.Context) error {
			reps, err := r.offloadCandidates(ctx, true)
			if err != nil {
				return err
			}
			r.reports = reps
			return nil
		},
	},
}

// passByID indexes the registry; built once at init.
var passByID = func() map[string]*passDef {
	m := make(map[string]*passDef, len(passRegistry))
	for _, p := range passRegistry {
		m[p.id] = p
	}
	return m
}()

// PassInfo describes one registered pass for callers (CLI listing, facade,
// docs). It mirrors the registry without exposing the run function.
type PassInfo struct {
	ID       string   `json:"id"`
	Doc      string   `json:"doc"`
	Needs    []string `json:"needs"`
	Default  bool     `json:"default"`   // runs when Options.Passes is unset
	ReadOnly bool     `json:"read_only"` // reports only; never mutates the program
	Implicit bool     `json:"implicit"`  // always runs first; not selectable
	OptIn    bool     `json:"opt_in"`    // selectable, but only runs when scheduled explicitly
}

// Passes lists every registered pass in default execution order.
func Passes() []PassInfo {
	out := make([]PassInfo, 0, len(passRegistry))
	for _, p := range passRegistry {
		out = append(out, PassInfo{
			ID:       p.id,
			Doc:      p.doc,
			Needs:    append([]string(nil), p.needs...),
			Default:  !p.readOnly && !p.implicit && !p.optIn,
			ReadOnly: p.readOnly,
			Implicit: p.implicit,
			OptIn:    p.optIn,
		})
	}
	return out
}

// DefaultPassIDs is the order run when Options.Passes is unset: every
// selectable, non-opt-in pass in registry order (the paper's phase
// 2 → 3 → 4; "tune" only runs when scheduled explicitly).
func DefaultPassIDs() []string {
	var out []string
	for _, p := range passRegistry {
		if !p.readOnly && !p.implicit && !p.optIn {
			out = append(out, p.id)
		}
	}
	return out
}

// ValidatePasses rejects unknown or non-selectable pass IDs, and a "tune"
// anywhere but first: it restarts from the source, discarding every pass
// before it. Other passes may repeat. It is the shared gate for
// Options.Passes, -passes, service.JobSpec.Passes and fleet.Spec.
func ValidatePasses(ids []string) error {
	for i, id := range ids {
		p, ok := passByID[id]
		if !ok || p.readOnly || p.implicit {
			return fmt.Errorf("core: unknown pass %q (selectable passes: %s)", id, strings.Join(selectablePassIDs(), ", "))
		}
		if id == "tune" && i > 0 {
			return fmt.Errorf("core: pass \"tune\" must be the first entry of the schedule, and only once: %s", strings.Join(ids, ","))
		}
	}
	return nil
}

// selectablePassIDs lists every pass Options.Passes may name, in registry
// order: the default schedule plus the opt-in passes.
func selectablePassIDs() []string {
	var out []string
	for _, p := range passRegistry {
		if !p.readOnly && !p.implicit {
			out = append(out, p.id)
		}
	}
	return out
}

// PassStat records one executed pass: how long it ran, how many of its
// compiles/profiles were answered from the analysis cache, and how many
// observations it produced. Exposed on Result.PassStats in execution
// order (phase1 first) and surfaced as report rows and span attrs.
type PassStat struct {
	ID            string
	Duration      time.Duration
	CompileHits   int
	CompileMisses int
	ProfileHits   int
	ProfileMisses int
	Observations  int
}

// sortedPassIDs returns every registered ID sorted; used by tests and
// error messages that want a stable full listing.
func sortedPassIDs() []string {
	out := make([]string, 0, len(passByID))
	for id := range passByID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
