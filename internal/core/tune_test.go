package core

import (
	"strconv"
	"strings"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

// TestTuneMaglev: the tune pass alone (no other optimization) finds
// strictly-fewer-stages bindings for the Maglev load balancer — the
// per-connection registers shrink until they co-locate — while the
// measured accuracy loss on maglev_rehash stays under the floor, and the
// floor demonstrably binds (at least one smaller candidate is rejected
// for losing too much accuracy).
func TestTuneMaglev(t *testing.T) {
	trace := trafficgen.MaglevTrace(trafficgen.MaglevSpec{Seed: 1})
	res, err := New(Options{
		Passes: []string{"tune"},
		Tune:   &TuneOptions{AccuracyTable: "maglev_rehash"},
	}).Optimize(p4.MustParse(programs.Maglev), programs.MaglevConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesBefore() != 5 || res.StagesAfter() != 4 {
		t.Fatalf("maglev tune stages %d -> %d, want 5 -> 4\n%s",
			res.StagesBefore(), res.StagesAfter(), RenderHistory(res.History))
	}
	cells, ok := res.Bindings["conn_cells"]
	if !ok || cells >= programs.MaglevConnCells {
		t.Fatalf("tuned conn_cells = %d (ok=%v), want strictly below the default %d",
			cells, ok, programs.MaglevConnCells)
	}

	var result *Observation
	var rejectedForAccuracy bool
	for i := range res.Observations {
		o := &res.Observations[i]
		switch o.Kind {
		case "tune-result":
			result = o
		case "tune-candidate":
			if !o.Accepted {
				if loss, err := strconv.ParseFloat(o.Details["loss"], 64); err == nil && loss > 0.01 {
					rejectedForAccuracy = true
				}
			}
		}
	}
	if result == nil || !result.Accepted {
		t.Fatalf("no accepted tune-result observation; observations: %v", res.Observations)
	}
	loss, err := strconv.ParseFloat(result.Details["loss"], 64)
	if err != nil || loss > 0.01 {
		t.Errorf("tuned accuracy loss %q, want a number <= 0.01 (the floor)", result.Details["loss"])
	}
	if !rejectedForAccuracy {
		t.Error("no candidate was rejected for accuracy loss; the floor never bound the search")
	}

	// The searched knob landscape is part of the contract: every candidate
	// must be attributed to the tune pass's PassStat.
	var tune *PassStat
	for i := range res.PassStats {
		if res.PassStats[i].ID == "tune" {
			tune = &res.PassStats[i]
		}
	}
	if tune == nil || tune.Observations < 2 {
		t.Fatalf("tune PassStat = %+v, want one with >= 2 observations", tune)
	}
}

// TestTuneSharedCacheFewerMisses: a repeat tune run sharing the analysis
// cache replays from it — strictly fewer compiles and profiles actually
// execute (cache misses) the second time, and the outcome is identical.
func TestTuneSharedCacheFewerMisses(t *testing.T) {
	trace := trafficgen.SynCookieTrace(trafficgen.SynCookieSpec{Seed: 1})
	cache := NewAnalysisCache()
	run := func() *Result {
		res, err := New(Options{
			Passes:        []string{"tune"},
			Tune:          &TuneOptions{AccuracyTable: "cookie_check"},
			AnalysisCache: cache,
		}).Optimize(p4.MustParse(programs.SynCookie), programs.SynCookieConfig(), trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	misses := func(res *Result) (compiles, profiles int) {
		for _, s := range res.PassStats {
			compiles += s.CompileMisses
			profiles += s.ProfileMisses
		}
		return
	}

	first := run()
	second := run()
	c1, p1 := misses(first)
	c2, p2 := misses(second)
	t.Logf("first run: %d compiles, %d profiles; repeat under shared cache: %d compiles, %d profiles", c1, p1, c2, p2)
	if c2 >= c1 {
		t.Errorf("second run compiled %d programs, first %d; want strictly fewer", c2, c1)
	}
	if p2 >= p1 {
		t.Errorf("second run profiled %d programs, first %d; want strictly fewer", p2, p1)
	}
	if p4.FormatBindings(first.Bindings) != p4.FormatBindings(second.Bindings) {
		t.Errorf("cached repeat changed the answer: %s vs %s",
			p4.FormatBindings(first.Bindings), p4.FormatBindings(second.Bindings))
	}
	if first.StagesAfter() != second.StagesAfter() {
		t.Errorf("cached repeat changed stages: %d vs %d", first.StagesAfter(), second.StagesAfter())
	}
	if first.StagesAfter() >= first.StagesBefore() {
		t.Errorf("syncookie tune stages %d -> %d, want a reduction", first.StagesBefore(), first.StagesAfter())
	}
}

// TestTuneNoopWithoutTunables: scheduling tune on a knob-free program is
// harmless and says so.
func TestTuneNoopWithoutTunables(t *testing.T) {
	trace := trafficgen.QuickstartTrace(200, 1)
	res, err := New(Options{Passes: []string{"tune"}}).
		Optimize(p4.MustParse(programs.Quickstart), programs.QuickstartConfig(), trace)
	if err != nil {
		t.Fatal(err)
	}
	var noop bool
	for _, o := range res.Observations {
		noop = noop || o.Kind == "tune-noop"
	}
	if !noop {
		t.Errorf("no tune-noop observation; observations: %v", res.Observations)
	}
	if len(res.Bindings) != 0 || len(res.Tunables) != 0 {
		t.Errorf("knob-free program reported bindings %v / tunables %v", res.Bindings, res.Tunables)
	}
}

// TestTableSizeKnobChangesStages: a table size written as a tunable reaches
// the compiler — through Options.Bindings and through the tune pass. The
// declaration copy used to drop TableDecl.SizeSym before Instantiate bound
// it, so every binding compiled at the default size.
func TestTableSizeKnobChangesStages(t *testing.T) {
	src := "@tunable(tsize, 16, 262144, 131072);\n" +
		strings.Replace(programs.Quickstart, "size : 16;", "size : tsize;", 1)
	if !strings.Contains(src, "size : tsize;") {
		t.Fatal("quickstart no longer declares the port_acl table at size 16")
	}
	trace := trafficgen.QuickstartTrace(200, 1)
	optimize := func(opts Options) *Result {
		t.Helper()
		res, err := New(opts).Optimize(p4.MustParse(src), programs.QuickstartConfig(), trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	atDefault := optimize(Options{Passes: []string{}})
	small := optimize(Options{Passes: []string{}, Bindings: map[string]int{"tsize": 64}})
	if got := small.Original.Table("port_acl").Size; got != 64 {
		t.Errorf("port_acl at tsize=64 has size %d", got)
	}
	if small.StagesBefore() >= atDefault.StagesBefore() {
		t.Errorf("stages at tsize=64: %d, at the default 131072: %d; want fewer",
			small.StagesBefore(), atDefault.StagesBefore())
	}
	tuned := optimize(Options{Passes: []string{"tune"}})
	if tuned.StagesAfter() >= tuned.StagesBefore() || tuned.Bindings["tsize"] >= 131072 {
		t.Errorf("tune left tsize at %d and stages %d -> %d; want a smaller table in fewer stages",
			tuned.Bindings["tsize"], tuned.StagesBefore(), tuned.StagesAfter())
	}
}
