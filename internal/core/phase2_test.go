package core

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// checkPhase2Derivation walks Phase 2 from the run's state: at every
// iteration it derives the profile of each candidate the pass would weigh
// (edge not manifested, no intervening conflict, rewrite expressible —
// whether or not it saves a stage), replays every one the profile answers
// and holds the two equal; then it takes the pass's own step. It ends with
// the pass's audit, and returns the derived count and the declines.
func checkPhase2Derivation(t *testing.T, label string, r *run) (derived int, declined map[string]int) {
	t.Helper()
	ctx := context.Background()
	declined = map[string]int{}
	for {
		for _, edge := range r.compile.Deps.LongestPathEdges() {
			if manifested, _ := r.edgeManifests(edge); manifested {
				continue
			}
			moved := r.movedTables(edge.To)
			if r.interveningConflict(edge, moved) != "" {
				continue
			}
			candidate := p4.Clone(r.cur)
			if _, err := moveIntoMissArm(candidate, edge.From, edge.To, false); err != nil {
				continue
			}
			got, decline := r.phase2Derive(edge.From, moved, false)
			if got == nil {
				declined[decline]++
				continue
			}
			derived++
			want, err := r.profileCandidate(ctx, candidate)
			if err != nil {
				t.Fatalf("%s: %s -> %s: %v", label, edge.From, edge.To, err)
			}
			if diff := want.Diff(got); diff != "" || !maps.Equal(want.ActionCounts, got.ActionCounts) || want.ToCPU != got.ToCPU {
				t.Errorf("%s: apply %s only if %s misses: replay vs derived: %s\naction counts %v vs %v, to-cpu %d vs %d",
					label, edge.To, edge.From, diff, want.ActionCounts, got.ActionCounts, want.ToCPU, got.ToCPU)
			}
		}
		improved, err := r.phase2Once(ctx)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !improved {
			break
		}
	}
	if err := r.phase2Audit(ctx); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	return derived, declined
}

// TestPhase2DerivationMatchesReplay is the exactness property Phase 2's
// derived profiles rest on: for every bundled workload and every generated
// program, from every point a schedule can reach Phase 2 from (first, after
// tune, after phase4), each candidate profile SkipUnlessMissed answers
// equals a replay of the rewritten candidate.
func TestPhase2DerivationMatchesReplay(t *testing.T) {
	before := [][]string{{}, {"phase4"}}
	declined := map[string]int{}
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Trace(1)
		if err != nil {
			t.Fatal(err)
		}
		scheds := before
		opts := Options{}
		if w.Tune != nil {
			scheds = append(scheds[:len(scheds):len(scheds)], []string{"tune"})
			opts.Tune = &TuneOptions{AccuracyTable: w.Tune.AccuracyTable, MaxAccuracyLoss: w.Tune.MaxAccuracyLoss}
		}
		derived := 0
		for _, passes := range scheds {
			opts.Passes = passes
			d, dec := checkPhase2Derivation(t, name, runThrough(t, p4.MustParse(w.Source), w.Config(), trace, opts))
			derived += d
			for k, v := range dec {
				declined[k] += v
			}
		}
		switch name {
		case "stress", "natgre", "l2l3_acl":
			if derived == 0 {
				t.Errorf("%s: no Phase 2 candidate derived", name)
			}
		}
		t.Logf("%s: %d candidates derived", name, derived)
	}
	t.Logf("bundled workloads declined: %v", declined)

	derived := 0
	clear(declined)
	for seed := int64(0); seed < int64(*generatorSeeds); seed++ {
		g := programs.Generate(seed)
		cfg, err := rt.Parse(g.Rules)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		trace := &trafficgen.Trace{}
		for _, p := range g.Packets {
			trace.Packets = append(trace.Packets, trafficgen.Packet{Port: p.Port, Data: p.Data})
		}
		for _, passes := range before {
			d, dec := checkPhase2Derivation(t, fmt.Sprintf("generator seed %d", seed), runThrough(t, p4.MustParse(g.Source), cfg, trace, Options{Passes: passes}))
			derived += d
			for k, v := range dec {
				declined[k] += v
			}
		}
	}
	if derived == 0 {
		t.Fatal("no generated program has a Phase 2 candidate the profile answers")
	}
	t.Logf("%d generated programs: %d candidates derived, declined %v", *generatorSeeds, derived, declined)
}

// derivationHeader declares what the hand-written cases' tables use.
const derivationHeader = `
header_type h_t { fields { kind : 8; port : 8; pad : 16; } }
header h_t h;
header_type m_t { fields { x : 8; y : 8; z : 8; } }
metadata m_t m;
parser start { extract(h); return ingress; }
action set_x(v) { modify_field(m.x, v); }
action allow() { modify_field(m.z, 1); }
action set_y(v) { modify_field(m.y, v); }
action mark() { modify_field(m.z, 9); }
`

// derivationRun profiles a hand-written program on packets of (kind, port,
// pad) and returns the run as Phase 2 would find it.
func derivationRun(t *testing.T, src, rules string, pkts [][3]byte) *run {
	t.Helper()
	cfg, err := rt.Parse(rules)
	if err != nil {
		t.Fatal(err)
	}
	trace := &trafficgen.Trace{}
	for _, p := range pkts {
		trace.Packets = append(trace.Packets, trafficgen.Packet{Port: 1, Data: []byte{p[0], p[1], 0, p[2]}})
	}
	return runThrough(t, p4.MustParse(derivationHeader+src), cfg, trace, Options{Passes: []string{}})
}

// TestPhase2DerivationDeclines: what the profile cannot prove is replayed.
func TestPhase2DerivationDeclines(t *testing.T) {
	pkts := [][3]byte{{1, 7, 0}, {1, 3, 0}, {1, 3, 5}, {0, 7, 0}}
	cases := []struct {
		name, src, rules, want string
	}{{
		// A rule installs from_t's default: its hits are tagged misses.
		name: "from-default-installed-by-a-rule",
		src: `
table from_t { reads { h.port : exact; } actions { set_x; allow; } default_action : allow; size : 16; }
table to_t { reads { h.pad : exact; } actions { set_y; } size : 16; }
control ingress { apply(from_t); apply(to_t); }`,
		rules: "table_add from_t allow 7\n",
		want:  "from-default",
	}, {
		// to_t's miss arm runs fix_t's real default where from_t hit.
		name: "effectful-table-in-the-miss-arm",
		src: `
table from_t { reads { h.port : exact; } actions { set_x; } size : 16; }
table to_t { reads { h.pad : exact; } actions { set_y; } size : 16; }
table fix_t { reads { h.kind : exact; } actions { mark; } default_action : mark; size : 16; }
control ingress { apply(from_t); apply(to_t) { miss { apply(fix_t); } } }`,
		rules: "table_add from_t set_x 7 => 1\n",
		want:  "moved-default",
	}, {
		name: "keyless-to",
		src: `
table from_t { reads { h.port : exact; } actions { set_x; } size : 16; }
table to_t { actions { set_y; } default_action : set_y(1); }
control ingress { apply(from_t); apply(to_t); }`,
		rules: "table_add from_t set_x 7 => 1\n",
		want:  "keyless",
	}, {
		// to_t hits a packet from_t hits.
		name: "moved-hit",
		src: `
table from_t { reads { h.port : exact; } actions { set_x; } size : 16; }
table to_t { reads { h.port : exact; } actions { set_y; } size : 16; }
control ingress { apply(from_t); apply(to_t); }`,
		rules: "table_add from_t set_x 7 => 1\ntable_add to_t set_y 7 => 2\n",
		want:  "moved-hit",
	}}
	for _, tc := range cases {
		r := derivationRun(t, tc.src, tc.rules, pkts)
		got, decline := r.phase2Derive("from_t", r.movedTables("to_t"), false)
		if got != nil || decline != tc.want {
			t.Errorf("%s: derived=%v decline=%q, want decline %q", tc.name, got != nil, decline, tc.want)
		}
	}
}

// TestPhase2DerivationSkipsUnappliedFrom: from_t sits under an if, so the
// rewrite stops applying to_t on the else-packets too; where to_t only missed
// there, the derivation drops those markers and equals the replay.
func TestPhase2DerivationSkipsUnappliedFrom(t *testing.T) {
	r := derivationRun(t, `
table from_t { reads { h.port : exact; } actions { set_x; } size : 16; }
table to_t { reads { h.pad : exact; } actions { set_y; } size : 16; }
control ingress { if (h.kind == 1) { apply(from_t); } apply(to_t); }`,
		"table_add from_t set_x 7 => 1\ntable_add to_t set_y 5 => 2\n",
		// from hits, from misses (to hits), both miss, from not applied.
		[][3]byte{{1, 7, 0}, {1, 3, 5}, {1, 3, 0}, {0, 7, 0}, {0, 3, 0}})
	got, decline := r.phase2Derive("from_t", r.movedTables("to_t"), false)
	if got == nil {
		t.Fatalf("declined: %s", decline)
	}
	candidate := p4.Clone(r.cur)
	if _, err := moveIntoMissArm(candidate, "from_t", "to_t", false); err != nil {
		t.Fatal(err)
	}
	want, err := r.profileCandidate(context.Background(), candidate)
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(got); diff != "" || !maps.Equal(want.ActionCounts, got.ActionCounts) {
		t.Errorf("replay vs derived: %s; action counts %v vs %v", diff, want.ActionCounts, got.ActionCounts)
	}
	// Three packets stop applying to_t: from_t's hit and both else-packets.
	if before, after := r.prof.Applied["to_t"], got.Applied["to_t"]; before-after != 3 {
		t.Errorf("to_t applied %d -> %d times, want 3 fewer", before, after)
	}
}
