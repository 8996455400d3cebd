// The ABL3 baseline, in the spirit of P5 (Abhashkumar et al., SOSR '17),
// the closest prior work the paper compares against: a policy-driven
// optimizer that deactivates entire feature blocks the operator's
// high-level policy declares unused, without any profiling.
//
// The contrast with P2GO (§1, §2.2, §5):
//
//   - P5 needs high-level policies as input; it cannot *discover* that a
//     dependency never manifests (it "would not be able to remove such a
//     dependency as an operator might need both ACLs");
//   - P5 deactivates whole code blocks; it cannot make
//     implementation-level changes such as resizing a register by 8.4%;
//   - P5 never removes code that the policy says is used, even when
//     profiling shows it is almost never exercised ("P5 would not remove
//     this segment as it is used").

package main

import (
	"fmt"
	"sort"

	"p2go/internal/p4"
	"p2go/internal/tofino"
)

// p5Policy declares which features the operator needs. A feature is a named
// group of tables.
type p5Policy struct {
	// Features maps feature name -> tables implementing it.
	Features map[string][]string
	// Used lists the features the operator's policy requires.
	Used map[string]bool
}

// newP5Policy builds a policy where every listed feature is used.
func newP5Policy(features map[string][]string) *p5Policy {
	used := map[string]bool{}
	for f := range features {
		used[f] = true
	}
	return &p5Policy{Features: features, Used: used}
}

// ex1Features groups the Example 1 tables into the features a P5-style
// policy would speak about.
func ex1Features() map[string][]string {
	return map[string][]string{
		"routing":    {"IPv4"},
		"udp-acl":    {"ACL_UDP"},
		"dhcp-guard": {"ACL_DHCP"},
		"dns-limit":  {"Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"},
	}
}

// SetUsed toggles a feature.
func (p *p5Policy) SetUsed(feature string, used bool) error {
	if _, ok := p.Features[feature]; !ok {
		return fmt.Errorf("p5: unknown feature %q", feature)
	}
	p.Used[feature] = used
	return nil
}

// unusedTables returns the tables of all unused features, sorted.
func (p *p5Policy) unusedTables() map[string]bool {
	out := map[string]bool{}
	for f, tables := range p.Features {
		if p.Used[f] {
			continue
		}
		for _, t := range tables {
			out[t] = true
		}
	}
	return out
}

// p5Result reports a P5 optimization run.
type p5Result struct {
	Optimized     *p4.Program
	StagesBefore  int
	StagesAfter   int
	RemovedTables []string
}

// p5Optimize deactivates the unused features' tables: their apply statements
// are removed from the control flow (with any statements they guard) and
// unreachable declarations are pruned, then the program is recompiled.
func p5Optimize(ast *p4.Program, policy *p5Policy, tgt tofino.Target) (*p5Result, error) {
	before, err := tofino.Compile(p4.Clone(ast), tgt)
	if err != nil {
		return nil, fmt.Errorf("p5: %w", err)
	}
	optimized := p4.Clone(ast)
	unused := policy.unusedTables()
	for _, c := range optimized.Controls {
		c.Body = removeApplies(c.Body, unused)
	}
	prune(optimized)

	after, err := tofino.Compile(p4.Clone(optimized), tgt)
	if err != nil {
		return nil, fmt.Errorf("p5: optimized program: %w", err)
	}
	var removed []string
	for t := range unused {
		removed = append(removed, t)
	}
	sort.Strings(removed)
	return &p5Result{
		Optimized:     optimized,
		StagesBefore:  before.Mapping.StagesUsed,
		StagesAfter:   after.Mapping.StagesUsed,
		RemovedTables: removed,
	}, nil
}

// removeApplies strips apply statements of deactivated tables. An apply's
// hit/miss arms are dropped with it (they are unreachable without the
// match); if/else structure is preserved.
func removeApplies(b *p4.BlockStmt, unused map[string]bool) *p4.BlockStmt {
	if b == nil {
		return nil
	}
	out := &p4.BlockStmt{}
	for _, s := range b.Stmts {
		switch v := s.(type) {
		case *p4.ApplyStmt:
			if unused[v.Table] {
				continue
			}
			out.Stmts = append(out.Stmts, &p4.ApplyStmt{
				Table: v.Table,
				Hit:   removeApplies(v.Hit, unused),
				Miss:  removeApplies(v.Miss, unused),
			})
		case *p4.IfStmt:
			then := removeApplies(v.Then, unused)
			els := removeApplies(v.Else, unused)
			if emptyBlock(then) && emptyBlock(els) {
				continue // nothing left under this condition
			}
			out.Stmts = append(out.Stmts, &p4.IfStmt{Cond: v.Cond, Then: then, Else: els})
		case *p4.BlockStmt:
			inner := removeApplies(v, unused)
			if !emptyBlock(inner) {
				out.Stmts = append(out.Stmts, inner)
			}
		}
	}
	return out
}

func emptyBlock(b *p4.BlockStmt) bool { return b == nil || len(b.Stmts) == 0 }

// prune drops declarations unreachable from the control flow, mirroring
// the cleanup P2GO's offload performs.
func prune(ast *p4.Program) {
	applied := map[string]bool{}
	for _, c := range ast.Controls {
		for _, t := range p4.TablesInBlock(c.Body) {
			applied[t] = true
		}
	}
	var tables []*p4.TableDecl
	for _, t := range ast.Tables {
		if applied[t.Name] {
			tables = append(tables, t)
		}
	}
	ast.Tables = tables
	var decls []p4.Decl
	for _, d := range ast.Decls {
		if t, ok := d.(*p4.TableDecl); ok && !applied[t.Name] {
			continue
		}
		decls = append(decls, d)
	}
	ast.Decls = decls
}
