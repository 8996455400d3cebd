package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// derivationSchedules are the schedules TestDerivationMatchesFresh runs on
// every workload: the paper's, with dependency guards, and tune first.
func derivationSchedules(wl workloads.Workload) []struct {
	name string
	opts Options
} {
	tune := Options{Passes: append([]string{"tune"}, DefaultPassIDs()...), TuneAccuracyTable: wl.TuneAccuracyTable}
	return []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"guards", Options{InsertDependencyGuards: true}},
		{"tune-first", tune},
	}
}

// sameDecisions fails unless got decided exactly what want did: the printed
// optimized and controller programs, every observation (rejected ones too),
// the guards, the stage history and, per pass, how many compile and profile
// lookups were made — a memo answer must cost a lookup like the rewrite it
// stands for.
func sameDecisions(t *testing.T, label string, want, got *Result) {
	t.Helper()
	printed := func(p *p4.Program) string {
		if p == nil {
			return ""
		}
		return p4.Print(p)
	}
	if a, b := printed(want.Optimized), printed(got.Optimized); a != b {
		t.Errorf("%s: optimized program differs:\n--- fresh ---\n%s--- %s ---\n%s", label, a, label, b)
	}
	if a, b := printed(want.ControllerProgram), printed(got.ControllerProgram); a != b {
		t.Errorf("%s: controller program differs:\n--- fresh ---\n%s--- %s ---\n%s", label, a, label, b)
	}
	if !reflect.DeepEqual(want.Observations, got.Observations) {
		t.Errorf("%s: observations differ:\nfresh: %+v\n%s: %+v", label, want.Observations, label, got.Observations)
	}
	if !reflect.DeepEqual(want.Guards, got.Guards) {
		t.Errorf("%s: guards differ: fresh %+v, %s %+v", label, want.Guards, label, got.Guards)
	}
	history := func(res *Result) []StageSnapshot {
		out := slices.Clone(res.History)
		for i := range out {
			out[i].Duration = 0
		}
		return out
	}
	if a, b := history(want), history(got); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: history differs:\nfresh: %+v\n%s: %+v", label, a, label, b)
	}
	type lookups struct {
		id                               string
		compiles, profiles, observations int
	}
	count := func(res *Result) (out []lookups) {
		for _, s := range res.PassStats {
			out = append(out, lookups{s.ID, s.CompileHits + s.CompileMisses, s.ProfileHits + s.ProfileMisses, s.Observations})
		}
		return out
	}
	if a, b := count(want), count(got); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: pass lookups differ:\nfresh: %+v\n%s: %+v", label, a, label, b)
	}
}

// missCounts sums a result's cache misses per kind.
func missCounts(res *Result) (compiles, profiles int) {
	for _, s := range res.PassStats {
		compiles += s.CompileMisses
		profiles += s.ProfileMisses
	}
	return compiles, profiles
}

// TestDerivationMatchesFresh holds the candidate tables on compile entries
// to what they may hold: answers that are the same for every run reaching
// the entry. Every workload and schedule runs three ways — A on a fresh
// cache, B on a cache a sibling filled from another trace (every schedule),
// C as a warm re-run of itself — and B and C must decide exactly as A did.
// A table keyed without the guard flag, or holding anything the trace
// decides, shows up here as a different program or observation.
func TestDerivationMatchesFresh(t *testing.T) {
	for _, name := range workloads.Names() {
		wl, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := wl.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		other, err := wl.Trace(2)
		if err != nil {
			t.Fatal(err)
		}
		optimize := func(t *testing.T, opts Options, ac *AnalysisCache, trace *trafficgen.Trace) *Result {
			t.Helper()
			opts.AnalysisCache, opts.Parallelism = ac, 2
			res, err := Optimize(context.Background(), p4.MustParse(wl.Source), wl.Config(), trace, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		schedules := derivationSchedules(wl)
		sibling := NewAnalysisCache()
		for _, s := range schedules {
			optimize(t, s.opts, sibling, other)
		}
		for _, s := range schedules {
			t.Run(name+"/"+s.name, func(t *testing.T) {
				fresh := optimize(t, s.opts, NewAnalysisCache(), trace)
				sameDecisions(t, "sibling", fresh, optimize(t, s.opts, sibling, trace))

				own := NewAnalysisCache()
				optimize(t, s.opts, own, trace)
				rerun := optimize(t, s.opts, own, trace)
				sameDecisions(t, "re-run", fresh, rerun)
				if s.name == "tune-first" {
					src := p4.MustParse(wl.Source)
					n := checkBindings(t, sibling, src) + checkBindings(t, own, src)
					if want := 2 * (1 + len(src.Tunables)); n < want {
						t.Errorf("checked %d bind: children, want at least %d", n, want)
					}
				}
				fc, fp := missCounts(fresh)
				if rc, rp := missCounts(rerun); rc > fc || rp > fp {
					t.Errorf("re-run missed %d compiles and %d profiles, more than the fresh run's %d and %d", rc, rp, fc, fp)
				}
			})
		}
	}

	for seed := int64(1); seed <= int64(*generatorSeeds); seed++ {
		t.Run(fmt.Sprintf("generated/seed%d", seed), func(t *testing.T) {
			g := programs.Generate(seed)
			cfg, err := rt.Parse(g.Rules)
			if err != nil {
				t.Fatal(err)
			}
			trace, reversed := &trafficgen.Trace{}, &trafficgen.Trace{}
			for _, p := range g.Packets {
				trace.Packets = append(trace.Packets, trafficgen.Packet{Port: p.Port, Data: p.Data})
			}
			for i := len(trace.Packets) - 1; i >= 0; i-- {
				reversed.Packets = append(reversed.Packets, trace.Packets[i])
			}
			report := func(ac *AnalysisCache, trace *trafficgen.Trace) []CandidateReport {
				reps, err := OffloadCandidates(context.Background(), p4.MustParse(g.Source), cfg, trace, Options{AnalysisCache: ac, Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				return reps
			}
			fresh := report(NewAnalysisCache(), trace)
			sibling := NewAnalysisCache()
			report(sibling, reversed)
			own := NewAnalysisCache()
			report(own, trace)
			for label, got := range map[string][]CandidateReport{"sibling": report(sibling, trace), "re-run": report(own, trace)} {
				if !reflect.DeepEqual(fresh, got) {
					t.Errorf("%s: candidate reports differ:\nfresh: %+v\n%s: %+v", label, fresh, label, got)
				}
			}
		})
	}
}

// checkBindings compares every bind: child in src's table on ac with a fresh
// p4.Instantiate of src at the bindings the child is named by, and returns
// how many it checked.
func checkBindings(t *testing.T, ac *AnalysisCache, src *p4.Program) (n int) {
	t.Helper()
	ac.source(src, tofino.DefaultTarget()).children.Range(func(name, v any) bool {
		b, err := p4.ParseBindings(strings.TrimPrefix(name.(string), "bind:"))
		if err != nil {
			t.Fatalf("child %q: %v", name, err)
		}
		want, err := p4.Instantiate(src, b)
		if err != nil {
			t.Fatalf("child %q: %v", name, err)
		}
		if got := v.(*child).prog; got == nil || p4.Print(got) != p4.Print(want) {
			t.Errorf("child %q is not the source instantiated at its bindings", name)
		}
		n++
		return true
	})
	return n
}

// aliasedSource declares @tunable n and binds it at one site: a register's
// cell count (register) or a table's size (table). At the default, n = 1024,
// both sources instantiate to the same program.
func aliasedSource(site string) string {
	cells, size := "1024", "1024"
	if site == "register" {
		cells = "n"
	} else {
		size = "n"
	}
	return `@tunable(n, 64, 4096, 1024);
header_type ethernet_t {
    fields {
        dstAddr : 48;
        srcAddr : 48;
        etherType : 16;
    }
}
header ethernet_t ethernet;
header_type meta_t {
    fields {
        seen : 32;
    }
}
metadata meta_t md;
register seen {
    width : 32;
    instance_count : ` + cells + `;
}
action remember() {
    register_read(md.seen, seen, 0);
    add_to_field(md.seen, 1);
    register_write(seen, 0, md.seen);
}
table flows {
    reads {
        ethernet.srcAddr : exact;
    }
    actions {
        remember;
    }
    size : ` + size + `;
}
parser start {
    extract(ethernet);
    return ingress;
}
control ingress {
    apply(flows);
}
`
}

// TestBindTableKeyedOnSource: the table of bound programs is keyed on the
// parameterized source, not on the program it instantiates to. The two
// aliased sources print the same program at their defaults but bind n at
// different sites, so after both ran tune over one cache, each source's
// bind: children must be its own instantiations. A table keyed on the
// instantiated program hands the second source the first one's children.
func TestBindTableKeyedOnSource(t *testing.T) {
	reg, tbl := p4.MustParse(aliasedSource("register")), p4.MustParse(aliasedSource("table"))
	a, err := p4.Instantiate(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p4.Instantiate(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Print(a) != p4.Print(b) {
		t.Fatal("the aliased sources must print the same program at their defaults")
	}
	cfg, err := rt.Parse("table_add flows remember 0x000000000001 =>\n")
	if err != nil {
		t.Fatal(err)
	}
	trace := &trafficgen.Trace{}
	for i := 0; i < 8; i++ {
		frame := make([]byte, 14)
		frame[11] = byte(i % 2) // srcAddr 00:00:00:00:00:0{0,1}
		trace.Packets = append(trace.Packets, trafficgen.Packet{Port: 1, Data: frame})
	}
	ac := NewAnalysisCache()
	for _, src := range []*p4.Program{reg, tbl} {
		res, err := Optimize(context.Background(), src, cfg, trace, Options{Passes: []string{"tune"}, AnalysisCache: ac})
		if err != nil {
			t.Fatal(err)
		}
		want, err := p4.Instantiate(src, res.Bindings)
		if err != nil {
			t.Fatal(err)
		}
		if p4.Print(res.Optimized) != p4.Print(want) {
			t.Errorf("tuned program at %s is not the source instantiated there:\n%s", p4.FormatBindings(res.Bindings), p4.Print(res.Optimized))
		}
	}
	regN, tblN := checkBindings(t, ac, reg), checkBindings(t, ac, tbl)
	if regN < 2 || tblN < 2 {
		t.Fatalf("tune bound %d and %d programs, want a ladder for each", regN, tblN)
	}
	named := func(src *p4.Program) *child {
		c, _ := ac.source(src, tofino.DefaultTarget()).children.Load("bind:n=64")
		if c == nil {
			t.Fatal("no bind:n=64 child")
		}
		return c.(*child)
	}
	if p4.Print(named(reg).prog) == p4.Print(named(tbl).prog) {
		t.Error("both sources share one bind:n=64 child")
	}
}

// errNotCached is the fill walkDerived looks entries up with: it stores
// nothing, so a walk never changes what the store holds.
var errNotCached = errors.New("not cached")

// walkDerived visits every child reachable from root's compile entry through
// the candidate tables, and from each child's own entry, as far as the store
// still holds them.
func walkDerived(ac *AnalysisCache, tgt tofino.Target, root *p4.Program, visit func(name string, c *child)) {
	seen := map[*compiled]bool{}
	var walk func(p *p4.Program)
	walk = func(p *p4.Program) {
		key := compileKey(p, tgt)
		v, _, err := ac.store.Do("compile:"+hex.EncodeToString(key[:]), func() (any, error) { return nil, errNotCached })
		if err != nil {
			return
		}
		e := v.(*compiled)
		if seen[e] {
			return
		}
		seen[e] = true
		e.children.Range(func(name, c any) bool {
			visit(name.(string), c.(*child))
			if p := c.(*child).prog; p != nil {
				walk(p)
			}
			return true
		})
	}
	walk(root)
}
