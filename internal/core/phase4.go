package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"p2go/internal/deps"
	"p2go/internal/ir"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/profile"
)

// ToCtlAction is the redirect action Phase 4 synthesizes.
const ToCtlAction = "to_controller"

// ToCtlTable is the redirect table name (Table 2's "C / To_Ctl" box).
const ToCtlTable = "To_Ctl"

// cpuPort must match sim.CPUPort; kept local to avoid the import.
const cpuPort = 255

// Segment is one offload candidate: a contiguous statement run in some
// control block. Index is its position in the deterministic enumeration
// order; the unexported path and bounds re-locate it in clones of the
// enumerated program without enumerating again (see locate).
type Segment struct {
	Index  int
	Tables []string
	// Desc describes the location for diagnostics.
	Desc string

	path   []blockStep // from the ingress body down to the segment's block
	lo, hi int         // the run is block.Stmts[lo : hi+1]
}

// blockStep is one level of a Segment's path: the statement to descend
// through and which of its child blocks (see childBlocks) to enter.
type blockStep struct{ stmt, child int }

// childBlocks lists the blocks nested directly in a statement — absent ones
// nil — with the suffix each goes by in a Segment's Desc.
func childBlocks(s p4.Stmt) ([2]*p4.BlockStmt, [2]string) {
	switch v := s.(type) {
	case *p4.ApplyStmt:
		return [2]*p4.BlockStmt{v.Hit, v.Miss}, [2]string{".hit", ".miss"}
	case *p4.IfStmt:
		return [2]*p4.BlockStmt{v.Then, v.Else}, [2]string{".then", ".else"}
	case *p4.BlockStmt:
		return [2]*p4.BlockStmt{v}, [2]string{}
	}
	return [2]*p4.BlockStmt{}, [2]string{}
}

// CandidateReport carries the metrics Phase 4's selection uses; exported
// for the phase-ordering ablation benchmarks.
type CandidateReport struct {
	Segment      Segment
	StagesSaved  int
	Redirected   int     // packets redirected to the controller
	RedirectFrac float64 // fraction of the trace
	// RedirectSource says where Redirected came from: "profile:<table>" or
	// "profile:total" when the current profile already held the count,
	// "replay" when the rewritten candidate was replayed to measure it.
	RedirectSource string
}

// redirectReplay is the RedirectSource of a candidate the profile could not
// answer.
const redirectReplay = "replay"

// phase4 offloads the self-contained code segment that saves at least one
// stage while redirecting the least traffic to the controller (§3.4). The
// contiguous-run enumeration over every control block is the dynamic
// program over (block, start, end); each candidate is compiled to measure
// its stage savings, and its redirected traffic is read off the current
// profile (see redirectFromProfile). Only the winner is replayed — the run
// needs its profile anyway — and that replay audits the derived count.
func (r *run) phase4(ctx context.Context) error {
	reports, err := r.offloadCandidates(ctx, false)
	if err != nil {
		return err
	}
	baseStages := totalStages(r.compile.Mapping)
	var viable []CandidateReport
	for _, rep := range reports {
		if rep.StagesSaved < r.mgr.minSavings {
			continue
		}
		// A negative cap disables the check; an explicit zero really means
		// zero (only candidates with no redirected traffic pass).
		if r.mgr.maxRedirect >= 0 && rep.RedirectFrac > r.mgr.maxRedirect {
			continue
		}
		viable = append(viable, rep)
	}
	if len(viable) == 0 {
		return nil
	}
	sort.Slice(viable, func(i, j int) bool {
		a, b := viable[i], viable[j]
		if a.Redirected != b.Redirected {
			return a.Redirected < b.Redirected
		}
		if a.StagesSaved != b.StagesSaved {
			return a.StagesSaved > b.StagesSaved
		}
		return a.Segment.Index < b.Segment.Index
	})
	win := viable[0]

	actx, asp := obs.Start(ctx, "phase4.apply",
		obs.String("segment", win.Segment.Desc),
		obs.String("tables", strings.Join(win.Segment.Tables, ",")),
		obs.Int("stages_saved", win.StagesSaved))
	defer asp.End()
	offload := r.offloadChild(win.Segment)
	if offload.prog == nil {
		return offload.err
	}
	ctl := r.derive("ctl:"+win.Segment.Desc, func() *child {
		prog, err := r.controllerProgram(win.Segment)
		return &child{prog: prog, err: err}
	})
	if ctl.prog == nil {
		return ctl.err
	}
	candidate, ctlProg := offload.prog, ctl.prog
	compiled, err := r.compileAs(actx, offload.key, offload.prog)
	if err != nil {
		return err
	}
	newProf, err := r.profileCandidate(actx, candidate)
	if err != nil {
		return err
	}
	if got := newProf.Hits[ToCtlTable]; got != win.Redirected {
		return fmt.Errorf("core: phase4: segment %s redirects %d packets when replayed, but %s gave %d",
			win.Segment.Desc, got, win.RedirectSource, win.Redirected)
	}
	r.cur = candidate
	r.compile = compiled
	r.prof = newProf
	r.offloaded = append(r.offloaded, win.Segment.Tables...)
	r.ctlProgram = ctlProg
	r.obs = append(r.obs, Observation{
		Phase:    PhaseOffload,
		Kind:     "offload-segment",
		Accepted: true,
		Summary: fmt.Sprintf("offload {%s} to the controller via %s",
			strings.Join(win.Segment.Tables, ", "), ToCtlTable),
		Evidence: fmt.Sprintf("segment is self-contained and redirects only %.2f%% of the trace (%d packets) while saving %d stage(s); implement the removed tables in the controller",
			100*win.RedirectFrac, win.Redirected, win.StagesSaved),
		Tables:       win.Segment.Tables,
		StagesBefore: baseStages,
		StagesAfter:  totalStages(compiled.Mapping),
		Details: map[string]string{
			"redirected_fraction": fmt.Sprintf("%.6f", win.RedirectFrac),
			"stages_saved":        fmt.Sprintf("%d", win.StagesSaved),
			"redirect_source":     win.RedirectSource,
			"redirect_audit":      fmt.Sprintf("replayed winner: %d == %d", newProf.Hits[ToCtlTable], win.Redirected),
		},
	})
	return nil
}

// offloadCandidates enumerates self-contained segments and measures each
// one: a compile of the rewritten program for the stages, the current
// profile for the redirected traffic. Measurements are independent (each
// works on its own clone and only reads r.prof), so they fan out over the
// worker pool; reports are collected by segment index, so the viable list
// reaches the selection sort in enumeration order exactly as it did
// sequentially. measureAll is the offload-report ablation: it also replays
// candidates whose stage saving alone already rules them out of phase4.
func (r *run) offloadCandidates(ctx context.Context, measureAll bool) ([]CandidateReport, error) {
	segs := enumerateSegments(r.cur)
	baseStages := totalStages(r.compile.Mapping)
	reports := make([]CandidateReport, len(segs))
	viable := make([]bool, len(segs))
	err := ForEachIndexed(ctx, len(segs), r.opts.parallelism(), func(i int) error {
		// Candidate failures below are swallowed (not viable);
		// cancellation must not be.
		if err := r.interrupted(); err != nil {
			return err
		}
		rep, ok, err := r.measureSegment(ctx, segs[i], baseStages, measureAll)
		if err != nil {
			return err
		}
		reports[i], viable[i] = rep, ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []CandidateReport
	for i, ok := range viable {
		if ok {
			out = append(out, reports[i])
		}
	}
	return out, nil
}

// measureSegment evaluates one offload candidate under its own span:
// self-containedness, rewrite, compile, and the redirected traffic — from
// the profile when it holds the count, from a replay of the candidate
// otherwise. The stage saving is known after the compile, so unless
// measureAll is set a candidate that saves too little is rejected before it
// costs a replay of the whole trace.
func (r *run) measureSegment(ctx context.Context, seg Segment, baseStages int, measureAll bool) (CandidateReport, bool, error) {
	ctx, sp := obs.Start(ctx, "phase4.candidate",
		obs.String("segment", seg.Desc),
		obs.String("tables", strings.Join(seg.Tables, ",")))
	defer sp.End()
	c := r.offloadChild(seg)
	if c.prog == nil {
		sp.SetAttr(obs.String("rejected", c.reject))
		return CandidateReport{}, false, nil
	}
	compiled, err := r.compileAs(ctx, c.key, c.prog)
	if err != nil {
		sp.SetAttr(obs.String("rejected", "compile-failed"))
		return CandidateReport{}, false, nil
	}
	saved := baseStages - totalStages(compiled.Mapping)
	redirected, source, ok := r.redirectFromProfile(seg)
	if !ok {
		if !measureAll && saved < r.mgr.minSavings {
			sp.SetAttr(obs.String("rejected", "no-stage-saved"), obs.Int("stages_saved", saved))
			return CandidateReport{}, false, nil
		}
		prof, err := r.profileCandidate(ctx, c.prog)
		if err != nil {
			sp.SetAttr(obs.String("rejected", "profile-failed"))
			return CandidateReport{}, false, nil
		}
		redirected, source = prof.Hits[ToCtlTable], redirectReplay
	}
	rep := CandidateReport{
		Segment:        seg,
		StagesSaved:    saved,
		Redirected:     redirected,
		RedirectSource: source,
	}
	if total := r.prof.TotalPackets; total > 0 {
		rep.RedirectFrac = float64(redirected) / float64(total)
	}
	sp.SetAttr(obs.Int("stages_saved", rep.StagesSaved), obs.Int("redirected", redirected),
		obs.String("redirect_source", source))
	return rep, true, nil
}

// offloadChild derives the candidate that offloads seg, or the rejection of
// a segment that is not self-contained or does not rewrite.
func (r *run) offloadChild(seg Segment) *child {
	return r.derive("seg:"+seg.Desc, func() *child {
		if !r.selfContained(seg) {
			return &child{reject: "not-self-contained", err: fmt.Errorf("core: segment %s is not self-contained", seg.Desc)}
		}
		prog, err := r.rewriteOffload(seg)
		if err != nil {
			return &child{reject: "rewrite-failed", err: err}
		}
		return &child{prog: prog}
	})
}

// redirectFromProfile reads a candidate's redirected-packet count off the
// current profile. The rewrite replaces statements of one block with
// apply(To_Ctl), which hits on every packet entering that block — and the
// current program already counts those packets: a table applied directly
// as a statement of the same block sees each of them exactly once (P4_14
// control blocks have no early exit, profiling neutralises drops, and
// p4.Check rejects a second apply of a table), so its Applied count is the
// block's entry count; the root ingress block is entered by every packet.
// The rewrite cannot change that count: everything deciding whether a
// packet reaches the block runs before the segment, registers are
// table-local, and selfContained forbids any field the segment writes
// being read outside it. The table must be one whose Applied counts misses
// too (profile.CountsEveryApply).
//
// It reports false for a block holding only ifs and nested blocks below
// the root; those candidates are replayed.
func (r *run) redirectFromProfile(seg Segment) (int, string, bool) {
	block, err := seg.locate(r.cur)
	if err != nil {
		return 0, "", false
	}
	for _, s := range block.Stmts {
		apply, ok := s.(*p4.ApplyStmt)
		if !ok {
			continue
		}
		if t := r.cur.Table(apply.Table); t != nil && profile.CountsEveryApply(t) {
			return r.prof.Applied[t.Name], "profile:" + t.Name, true
		}
	}
	if len(seg.path) == 0 {
		return r.prof.TotalPackets, "profile:total", true
	}
	return 0, "", false
}

// enumerateSegments lists every contiguous statement run containing at
// least one table, across all blocks of the ingress control, in a
// deterministic depth-first order. It runs once per phase4/offload-report:
// each Segment records where it was found, and locate follows that.
func enumerateSegments(ast *p4.Program) []Segment {
	ingress := ast.Control(p4.IngressControl)
	if ingress == nil {
		return nil
	}
	var out []Segment
	var walk func(b *p4.BlockStmt, where string, path []blockStep)
	walk = func(b *p4.BlockStmt, where string, path []blockStep) {
		if b == nil {
			return
		}
		for lo := 0; lo < len(b.Stmts); lo++ {
			for hi := lo; hi < len(b.Stmts); hi++ {
				tables := tablesInRun(b, lo, hi)
				if len(tables) == 0 {
					continue
				}
				out = append(out, Segment{
					Index:  len(out),
					Tables: tables,
					Desc:   fmt.Sprintf("%s[%d:%d]", where, lo, hi),
					path:   path,
					lo:     lo,
					hi:     hi,
				})
			}
		}
		for i, s := range b.Stmts {
			kids, names := childBlocks(s)
			for k, kid := range kids {
				if kid != nil {
					// Clipped, so siblings never append into one array.
					walk(kid, fmt.Sprintf("%s.%d%s", where, i, names[k]), append(path[:len(path):len(path)], blockStep{i, k}))
				}
			}
		}
	}
	walk(ingress.Body, "ingress", nil)
	return out
}

func tablesInRun(b *p4.BlockStmt, lo, hi int) []string {
	tmp := &p4.BlockStmt{Stmts: b.Stmts[lo : hi+1]}
	return p4.TablesInBlock(tmp)
}

// locate returns the segment's block in ast — the program it was enumerated
// in, or a clone of it — by following the recorded path, and re-checks that
// the run [lo, hi] of that block applies exactly the segment's tables: a
// clone whose control tree diverged from the enumerated one is an error,
// never a silently different segment.
func (seg Segment) locate(ast *p4.Program) (*p4.BlockStmt, error) {
	var b *p4.BlockStmt
	if ingress := ast.Control(p4.IngressControl); ingress != nil {
		b = ingress.Body
	}
	for _, step := range seg.path {
		if b == nil || step.stmt >= len(b.Stmts) {
			b = nil
			break
		}
		kids, _ := childBlocks(b.Stmts[step.stmt])
		b = kids[step.child]
	}
	if b == nil || seg.hi >= len(b.Stmts) || !slices.Equal(tablesInRun(b, seg.lo, seg.hi), seg.Tables) {
		return nil, fmt.Errorf("core: segment %s: enumeration diverged between clones", seg.Desc)
	}
	return b, nil
}

// selfContained checks the paper's offloadability criteria: packets sent to
// the controller need no additional state (no reads of externally written
// metadata — header fields and intrinsic metadata are fine: the controller
// reparses the packet and packet-in carries the ingress port) and no
// further data-plane processing of the segment's outputs (no field written
// inside is read outside). Conditions nested inside the segment count as
// segment reads: removing them moves their evaluation to the controller.
// The drop/forward verdict (egress_spec) only flows out if some remaining
// table actually reads it.
func (r *run) selfContained(seg Segment) bool {
	prog := r.compile.IR
	segSet := map[string]bool{}
	for _, t := range seg.Tables {
		if prog.Tables[t] == nil || prog.Tables[t].Order < 0 {
			return false
		}
		segSet[t] = true
	}
	intrinsic := map[ir.FieldKey]bool{
		ir.FieldKey(p4.StandardMetadataName + "." + p4.FieldIngressPort):  true,
		ir.FieldKey(p4.StandardMetadataName + "." + p4.FieldPacketLength): true,
	}

	writesInside := ir.FieldSet{}
	readsInside := ir.FieldSet{}
	for t := range segSet {
		tbl := prog.Tables[t]
		for k := range tbl.ActionWrites() {
			writesInside.Add(k)
		}
		for k := range tbl.ActionReads() {
			readsInside.Add(k)
		}
		for k := range tbl.MatchReads {
			readsInside.Add(k)
		}
	}
	// Conditions inside the segment move to the controller with it.
	for k := range r.segmentCondReads(seg) {
		readsInside.Add(k)
	}
	// Outputs must not feed the rest of the data plane.
	for _, t := range prog.Ordered {
		if segSet[t.Name] {
			continue
		}
		outsideReads := t.MatchReads.Union(t.ActionReads()).Union(t.GuardReads)
		for k := range outsideReads {
			if writesInside.Has(k) {
				return false
			}
		}
	}
	// Inputs must be reconstructible by the controller: header fields,
	// intrinsic metadata, or values computed inside the segment.
	for k := range readsInside {
		if intrinsic[k] || writesInside.Has(k) {
			continue
		}
		inst := instanceOf(r.cur, k)
		if inst == nil {
			return false
		}
		if inst.Metadata {
			return false // externally computed metadata
		}
	}
	return true
}

// segmentCondReads collects the fields read by if-conditions nested inside
// the segment's statements.
func (r *run) segmentCondReads(seg Segment) ir.FieldSet {
	out := ir.FieldSet{}
	block, err := seg.locate(r.cur)
	if err != nil {
		return out
	}
	probe := &p4.BlockStmt{Stmts: block.Stmts[seg.lo : seg.hi+1]}
	p4.WalkStmts(probe, func(s p4.Stmt) bool {
		if ifs, ok := s.(*p4.IfStmt); ok {
			for k := range deps.CondReads(ifs.Cond) {
				out.Add(k)
			}
		}
		return true
	})
	return out
}

func instanceOf(ast *p4.Program, k ir.FieldKey) *p4.Instance {
	name := string(k)
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	return ast.Instance(name)
}

// rewriteOffload clones the current program, replaces the segment's
// statements with an apply of the To_Ctl redirect table, and prunes the
// now-unreachable declarations.
func (r *run) rewriteOffload(seg Segment) (*p4.Program, error) {
	candidate := p4.Clone(r.cur)
	block, err := seg.locate(candidate)
	if err != nil {
		return nil, err
	}
	if err := ensureToCtl(candidate); err != nil {
		return nil, err
	}
	redirect := &p4.ApplyStmt{Table: ToCtlTable}
	rest := append([]p4.Stmt{redirect}, block.Stmts[seg.hi+1:]...)
	block.Stmts = append(block.Stmts[:seg.lo], rest...)
	pruneUnused(candidate)
	return candidate, nil
}

// controllerProgram builds the controller's side of an offload: the
// current (pre-offload) program with its ingress control reduced to just
// the segment. Reception at the controller implies the segment's external
// guards held (the data plane still evaluates them before redirecting), so
// the controller runs the segment body unconditionally. Only the accepted
// segment needs one.
func (r *run) controllerProgram(seg Segment) (*p4.Program, error) {
	ctlProg := p4.Clone(r.cur)
	block, err := seg.locate(ctlProg)
	if err != nil {
		return nil, err
	}
	segmentStmts := append([]p4.Stmt(nil), block.Stmts[seg.lo:seg.hi+1]...)
	ctlProg.Control(p4.IngressControl).Body = &p4.BlockStmt{Stmts: segmentStmts}
	pruneUnused(ctlProg)
	return ctlProg, nil
}

// ensureToCtl declares the redirect action and table if absent.
func ensureToCtl(ast *p4.Program) error {
	if ast.Table(ToCtlTable) != nil {
		return fmt.Errorf("core: program already declares %s", ToCtlTable)
	}
	if ast.Action(ToCtlAction) == nil {
		act := &p4.ActionDecl{
			Name: ToCtlAction,
			Body: []*p4.PrimitiveCall{{
				Name: p4.PrimModifyField,
				Args: []p4.Expr{
					p4.FieldRef{Instance: p4.StandardMetadataName, Field: p4.FieldEgressSpec},
					p4.IntLit{Value: cpuPort},
				},
			}},
		}
		ast.Actions = append(ast.Actions, act)
		ast.Decls = append(ast.Decls, act)
	}
	tbl := &p4.TableDecl{
		Name:          ToCtlTable,
		ActionNames:   []string{ToCtlAction},
		DefaultAction: ToCtlAction,
	}
	ast.Tables = append(ast.Tables, tbl)
	ast.Decls = append(ast.Decls, tbl)
	return nil
}
