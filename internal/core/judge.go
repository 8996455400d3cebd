package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"p2go/internal/obs"
	"p2go/internal/profile"
	"p2go/internal/rt"
)

// check is the test a contract holds a candidate to: each is the aggregate
// check its pass has always made.
type check int

const (
	// profileEqual: the replay equals ref, and every trace packet keeps the
	// outcome the fates replay (ref's, unless set) recorded for it (Phase 3's
	// gate, Phase 2's audit).
	profileEqual check = iota
	// behaviorEqual: the candidate saves a stage and keeps ref's behavior,
	// miss markers aside (Phase 2's gate). A derived profile lands as is;
	// the pass's audit replays the program it ends with.
	behaviorEqual
	// tuneLoss: hits and loss on the accuracy table, refusing nothing;
	// tune's search policy (tuneBetter) picks among the candidates.
	tuneLoss
	// redirects: the replay sends want packets to the controller (Phase 4's
	// audit of its winner).
	redirects
)

// contract is what a candidate must keep on the trace to land.
type contract struct {
	check check
	// audit: the candidate is one the run already chose (Phase 2's final
	// program, Phase 4's winner). A replay error fails the run, the caller
	// turns a rejection into the run's error, and the span gets no attrs.
	audit bool
	ref   *profile.Profile
	// fates is the replay whose per-packet outcomes a profileEqual candidate
	// must keep; nil means ref, which Phase 2's audit cannot use: its ref is
	// derived and recorded none.
	fates *profile.Profile
	// derive answers a behaviorEqual candidate's profile without a replay,
	// or says why it cannot (phase2Derive).
	derive func() (*profile.Profile, string)
	// compiled is the candidate's compile when the caller made it already
	// (Phase 3's last probe, the audited program).
	compiled *compiled
	base     int     // stages before the candidate
	table    string  // tuneLoss: the accuracy table; "" needs no replay
	want     int     // tuneLoss: the reference hits; redirects: the predicted count
	floor    float64 // tuneLoss: the loss the search tolerates, for the evidence
	why      string  // an accepted candidate's evidence when its check states none
}

// countOnly is the seeded bug of the fate gate: set, profileEqual judges by
// the aggregate profile alone, as it did before it read outcome vectors.
var countOnly atomic.Bool

// SeedCountOnlyGate switches on the seeded bug that restores the count-only
// gate — Phase 3 then accepts a reduction whose profile stays equal while
// packets change fates — and returns the function that switches it off. It
// is for tests alone: a sweep that must catch unsound runs has to turn red
// under it, and a test that needs a divergent run gets one from it. No flag,
// environment variable, option or job field reaches it. Callers must not
// run other optimizations concurrently while it is on.
func SeedCountOnlyGate() (restore func()) {
	countOnly.Store(true)
	return func() { countOnly.Store(false) }
}

// verdict is the judge's decision on one candidate.
type verdict struct {
	accepted bool
	compiled *compiled
	before   int
	stages   int              // a rejected candidate's is before: it left the pipeline alone
	prof     *profile.Profile // replayed or derived; nil when the contract needs none
	reason   string           // the rejected= span attr
	evidence string           // "" on a rejection that is not reported
	details  map[string]string
	hits     int     // tuneLoss: accuracy-table hits
	loss     float64 // tuneLoss: |hits - reference hits| / packets
}

// judge is the one place that decides whether a candidate lands. It
// compiles c through compileAs unless the contract holds the compile,
// replays it through doProfile under cfg (nil: r.cfg restricted to c)
// unless the contract derives its profile or needs none, and applies the
// contract. It opens no span of its own: its attrs go on the caller's. An
// error fails the run; a refusal is a rejected verdict.
func (r *run) judge(ctx context.Context, c *child, cfg *rt.Config, k contract) (*verdict, error) {
	sp := obs.SpanFrom(ctx)
	if k.audit {
		sp = nil
	}
	v := &verdict{compiled: k.compiled, before: k.base}
	if v.compiled == nil {
		var err error
		if v.compiled, err = r.compileAs(ctx, c.key, c.prog); err != nil {
			if k.check != behaviorEqual {
				return nil, err
			}
			return v.reject(sp, "compile-failed", ""), nil
		}
	}
	v.stages = totalStages(v.compiled.Mapping)
	if k.check == behaviorEqual && v.stages >= k.base {
		return v.reject(sp, "no-stage-saved", ""), nil
	}
	derived := false
	if k.derive != nil {
		var decline string
		if v.prof, decline = k.derive(); v.prof != nil {
			derived = true
			r.derived++
			sp.SetAttr(obs.String("profile", "derived"))
		} else {
			sp.SetAttr(obs.String("profile", "replayed"), obs.String("decline", decline))
		}
	}
	if !derived && (k.check != tuneLoss || k.table != "") {
		if cfg == nil {
			cfg = r.cfg.Restrict(c.prog)
		}
		prof, err := r.doProfile(ctx, c.prog, cfg)
		if err != nil {
			if k.check != profileEqual || k.audit {
				return nil, err
			}
			return v.reject(sp, "config-infeasible", "reduced program cannot run the provided configuration: "+err.Error()), nil
		}
		v.prof = prof
	}
	v.accepted, v.evidence = true, k.why
	switch k.check {
	case profileEqual:
		if diff := k.ref.Diff(v.prof); diff != "" {
			v.details = map[string]string{"diff": diff}
			return v.reject(sp, "behavior-changed", "reduction changed the program's behavior on the trace: "+diff), nil
		}
		fates := k.fates
		if fates == nil {
			fates = k.ref
		}
		if diff := fates.FateDiff(v.prof); diff != "" && !countOnly.Load() {
			v.details = map[string]string{"diff": diff}
			return v.reject(sp, "fate-changed", "reduction changed a packet's fate on the trace: "+diff), nil
		}
		v.evidence = "profile unchanged on the trace after the reduction"
		sp.SetAttr(obs.Bool("accepted", true))
	case behaviorEqual:
		if !derived {
			if diff := k.ref.BehaviorDiff(v.prof); diff != "" {
				return v.reject(sp, "behavior-changed", "rewrite changed the profile on the trace: "+diff), nil
			}
		}
		sp.SetAttr(obs.Bool("accepted", true), obs.Int("stages", v.stages))
	case tuneLoss:
		if v.prof != nil {
			v.hits = v.prof.Hits[k.table]
			if v.prof.TotalPackets > 0 {
				v.loss = float64(max(v.hits-k.want, k.want-v.hits)) / float64(v.prof.TotalPackets)
			}
		}
		v.evidence = fmt.Sprintf("stages %d (fits %v), accuracy loss %.4f vs floor %.4f on table %q",
			v.stages, v.compiled.Mapping.Fits, v.loss, k.floor, k.table)
		v.details = map[string]string{
			"stages": fmt.Sprintf("%d", v.stages),
			"loss":   fmt.Sprintf("%.6f", v.loss),
			"hits":   fmt.Sprintf("%d", v.hits),
		}
		sp.SetAttr(obs.Int("stages", v.stages))
	case redirects:
		got := v.prof.Hits[ToCtlTable]
		if got != k.want {
			return v.reject(sp, "redirects-changed", ""), nil
		}
		v.details = map[string]string{"redirect_audit": fmt.Sprintf("replayed winner: %d == %d", got, k.want)}
	}
	return v, nil
}

// reject turns v into a refusal for reason, reported with evidence.
func (v *verdict) reject(sp *obs.Span, reason, evidence string) *verdict {
	v.accepted, v.stages, v.reason, v.evidence = false, v.before, reason, evidence
	sp.SetAttr(obs.String("rejected", reason))
	return v
}

// observe reports a judged candidate: the caller states what it changes
// (summary, tables, and key/value details of its own); the verdict says
// whether it landed, the stages around it, the evidence and the check's
// details. A verdict without evidence reports nothing.
func (r *run) observe(v *verdict, phase Phase, kind, summary string, tables []string, details ...string) {
	if v.evidence == "" {
		return
	}
	if v.details == nil && len(details) > 0 {
		v.details = make(map[string]string, len(details)/2)
	}
	for i := 0; i+1 < len(details); i += 2 {
		v.details[details[i]] = details[i+1]
	}
	r.obs = append(r.obs, Observation{
		Phase:        phase,
		Kind:         kind,
		Accepted:     v.accepted,
		Summary:      summary,
		Evidence:     v.evidence,
		Tables:       tables,
		StagesBefore: v.before,
		StagesAfter:  v.stages,
		Details:      v.details,
	})
}
