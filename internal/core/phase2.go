package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"p2go/internal/deps"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
)

// phase2 removes dependencies that do not manifest in the profile (§3.2).
// Candidates are dependency edges on the longest path of the dependency
// graph — only those can shorten the pipeline. A candidate is removable
// when no set of non-exclusive actions contains the conflicting actions of
// both tables. One dependency is removed per iteration (the paper keeps
// changes tractable for the programmer); the loop re-runs until no
// candidate improves the pipeline.
func (r *run) phase2(ctx context.Context) error {
	from := r.prof
	if err := iterate(ctx, "phase2.iteration", r.phase2Once); err != nil {
		return err
	}
	return r.phase2Audit(ctx, from)
}

// phase2Audit replays the pass's final program if any accepted profile was
// derived, and fails the run unless the replay equals the derived profile
// and every trace packet keeps the outcome it had in from, the replay the
// pass started from; the replay, never a derived profile, is what is cached
// and read on.
func (r *run) phase2Audit(ctx context.Context, from *profile.Profile) error {
	if r.derived == 0 {
		return nil
	}
	ctx, sp := obs.Start(ctx, "phase2.audit", obs.Int("derived", r.derived))
	defer sp.End()
	r.derived = 0
	v, err := r.judge(ctx, &child{prog: r.cur}, nil,
		contract{check: profileEqual, audit: true, ref: r.prof, fates: from, compiled: r.compile})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.prof = v.prof
	if !v.accepted {
		return fmt.Errorf("core: phase2: derived profile disagrees with replay: %s", v.details["diff"])
	}
	return nil
}

// phase2Once tries candidates in control order and applies the first
// rewrite that both does not manifest and shortens the pipeline.
func (r *run) phase2Once(ctx context.Context) (bool, error) {
	g := r.compile.Deps
	baseStages := totalStages(r.compile.Mapping)
	for _, edge := range g.LongestPathEdges() {
		// Candidate failures below are swallowed (rejected candidates);
		// cancellation must not be.
		if err := interrupted(ctx); err != nil {
			return false, err
		}
		applied, err := r.phase2Try(ctx, edge, baseStages)
		if err != nil {
			return false, err
		}
		if applied {
			return true, nil
		}
	}
	return false, nil
}

// phase2Try evaluates one dependency edge under its own span: profile
// check, rewrite, the judge's verdict on the candidate, and — when it
// lands — application to the run state.
func (r *run) phase2Try(ctx context.Context, edge *deps.Edge, baseStages int) (bool, error) {
	ctx, sp := obs.Start(ctx, "phase2.candidate",
		obs.String("from", edge.From), obs.String("to", edge.To))
	defer sp.End()
	manifested, witness := r.edgeManifests(edge)
	if manifested {
		sp.SetAttr(obs.String("rejected", "manifests"))
		return false, nil
	}
	moved := r.movedTables(edge.To)
	if conflict := r.interveningConflict(edge, moved); conflict != "" {
		sp.SetAttr(obs.String("rejected", "intervening-conflict"))
		return false, nil
	}
	// Rewrite a clone: apply `to` only when `from` misses. When
	// requested, a runtime violation detector goes into the hit arm
	// (§3.2's alternative approach).
	withGuard := r.opts.InsertDependencyGuards
	name := "edge:" + edge.From + ">" + edge.To
	if withGuard {
		name += "+guard"
	}
	c := r.compile.derive(r.tgt, name, func() *child {
		candidate := p4.Clone(r.cur)
		guard, err := moveIntoMissArm(candidate, edge.From, edge.To, withGuard)
		if err != nil {
			return &child{reject: "not-expressible", err: err}
		}
		return &child{prog: candidate, guard: guard}
	})
	if c.prog == nil {
		sp.SetAttr(obs.String("rejected", c.reject))
		return false, nil // not expressible (hit/miss nesting); try next
	}
	guard := c.guard
	var cfg *rt.Config // nil: the judge replays under r.cfg restricted to the candidate
	var guardRules []rt.Rule
	if guard != nil {
		// Mirror `to`'s rules onto the detector so it hits exactly
		// when `to` would have. The candidate replays with them (they
		// never hit on the trace); installed only if it is accepted.
		for _, rule := range r.cfg.ForTable(edge.To) {
			guardRules = append(guardRules, rt.Rule{
				Table:    guard.Table,
				Action:   guard.Action,
				Matches:  append([]rt.FieldMatch(nil), rule.Matches...),
				Priority: rule.Priority,
			})
		}
		cfg = r.cfg.Restrict(c.prog)
		cfg.Rules = append(cfg.Rules, guardRules...)
	}
	// The rewrite must save a stage and — a safety check beyond the paper
	// — preserve the program's observable behavior on the trace (miss
	// markers aside: skipping a table whose outcome was a no-op miss is
	// the intended effect of the rewrite), as a derived profile does by
	// construction.
	v, err := r.judge(ctx, c, cfg, contract{
		check: behaviorEqual,
		ref:   r.prof,
		derive: func() (*profile.Profile, string) {
			return r.phase2Derive(edge.From, moved, guard != nil)
		},
		base: baseStages,
		why:  fmt.Sprintf("no set of non-exclusive actions contains the dependent actions of both tables (%s)", witness),
	})
	if err != nil {
		return false, err
	}
	tables := []string{edge.From, edge.To}
	summary := fmt.Sprintf("apply %s only if %s misses", edge.To, edge.From)
	if !v.accepted {
		r.observe(v, PhaseDependencies, "remove-dependency", summary, tables)
		return false, nil
	}
	r.cur, r.compile, r.prof = c.prog, v.compiled, v.prof
	if guard != nil {
		r.cfg.Rules = append(r.cfg.Rules, guardRules...)
		r.guards = append(r.guards, *guard)
	}
	r.observe(v, PhaseDependencies, "remove-dependency", fmt.Sprintf("%s and %s are not dependent: %s", edge.From, edge.To, summary),
		tables, "from", edge.From, "to", edge.To)
	return true, nil
}

// edgeManifests checks the dependency against the profile: it manifests if
// any conflicting action pair was observed on the same packet. Pair
// semantics follow the conflict kind: action-level conflicts need both
// actions executed; a read-after-write into the match key needs the later
// table to have *hit*; a control dependency needs the guarded table to have
// been applied at all. The witness string describes the checked pairs for
// the observation report.
func (r *run) edgeManifests(edge *deps.Edge) (bool, string) {
	var checked []string
	for _, pair := range edge.Pairs {
		manifested := false
		switch {
		case pair.ToAction != "":
			manifested = r.prof.CoOccurred(edge.From, pair.FromAction, edge.To, pair.ToAction)
		case pair.Kind == deps.KindReadAfterWrite:
			manifested = r.prof.CoHit(edge.From, pair.FromAction, edge.To)
		default: // control dependency
			manifested = r.prof.CoOccurred(edge.From, pair.FromAction, edge.To, "")
		}
		if manifested {
			return true, pair.String()
		}
		checked = append(checked, pair.String())
	}
	return false, strings.Join(checked, "; ")
}

// phase2Derive answers a candidate's profile from the current one, or says
// why not. A guard adds a table the profile has never seen; a keyless
// table's apply may leave no marker, nor does its miss show as one.
func (r *run) phase2Derive(from string, moved []string, guarded bool) (*profile.Profile, string) {
	if guarded {
		return nil, "guards"
	}
	for _, t := range append([]string{from}, moved...) {
		if d := r.cur.Table(t); d == nil || len(d.Reads) == 0 {
			return nil, "keyless"
		}
	}
	return r.prof.SkipUnlessMissed(from, moved)
}

// movedTables lists the tables Phase 2's rewrite moves with `to`: its apply
// subtree, `to` first, then the tables of its hit and miss arms.
func (r *run) movedTables(to string) []string {
	moved := []string{to}
	for _, name := range []string{p4.IngressControl, p4.EgressControl} {
		c := r.compile.AST.Control(name)
		if c == nil {
			continue
		}
		if path := findApplyPath(c.Body, to); path != nil {
			last := path[len(path)-1]
			if ap, ok := last.block.Stmts[last.idx].(*p4.ApplyStmt); ok {
				moved = append(moved, p4.TablesInBlock(ap.Hit)...)
				moved = append(moved, p4.TablesInBlock(ap.Miss)...)
			}
			break
		}
	}
	return moved
}

// interveningConflict reports whether a table ordered between the edge's
// endpoints conflicts with any table that the rewrite would move (the
// moved apply subtree executes earlier after the rewrite, so reordering
// must be safe). Returns the offending table name, or "".
func (r *run) interveningConflict(edge *deps.Edge, moved []string) string {
	prog := r.compile.IR
	from, to := prog.Tables[edge.From], prog.Tables[edge.To]
	if from == nil || to == nil {
		return "missing"
	}
	g := r.compile.Deps
	for _, t := range prog.Ordered {
		if t.Order <= from.Order || t.Order >= to.Order || slices.Contains(moved, t.Name) {
			continue
		}
		for _, m := range moved {
			if g.Edge(t.Name, m) != nil || g.Edge(m, t.Name) != nil {
				return t.Name
			}
		}
	}
	return ""
}
