// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index) and prints
// paper-vs-measured comparisons. Run with no flags for everything, or
// -run <id> for one experiment (EX1, FIG1, TAB1, TAB2, TAB3, ABL1, ABL2,
// ABL3, ABL4). With -bench <file>, it instead runs the micro-benchmark
// suite (compile, profile, optimize per workload) and writes the results
// as JSON — the committed BENCH_p2go.json is produced this way. With
// -fleet, it runs the fleet load test instead: thousands of device-jobs
// through an in-process p2god manager under fault injection, plus the
// cross-device compile-dedup table (-fleet-short shrinks it for CI).
// With -ha, it runs the replica-group chaos proof instead: a fleet
// workload against 2-3 in-process p2god replicas with one kill -9'd
// mid-run, asserting the survivors' final report is equivalent to an
// uninterrupted run (-ha-short shrinks it for CI). With -pgo, it runs
// the self-hosted PGO loop instead: the bundled workloads captured
// under CPU profiling, merged into the committed default.pgo, the tree
// rebuilt with -pgo=auto, and a before/after replay benchmark pair
// appended to BENCH_p2go.json (-pgo-short shrinks it for CI).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"p2go"
	"p2go/internal/core"
	"p2go/internal/fleet"
	"p2go/internal/p4"
	"p2go/internal/p5"
	"p2go/internal/programs"
	"p2go/internal/report"
	"p2go/internal/sim"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

func main() {
	run := flag.String("run", "", "experiment id to run (empty = all)")
	seed := flag.Int64("seed", 1, "trace seed")
	bench := flag.String("bench", "", "run the micro-benchmark suite instead and write results to this JSON file (e.g. BENCH_p2go.json)")
	benchWorkload := flag.String("bench-workload", "", "restrict -bench to one workload (CI smoke)")
	benchBaseline := flag.String("bench-baseline", "", "compare -bench replay throughput against this committed JSON and fail on a >30% regression")
	fleetRun := flag.Bool("fleet", false, "run the fleet load test instead: device-jobs through an in-process p2god under fault injection")
	fleetDevices := flag.Int("fleet-devices", 2048, "total device-jobs for the -fleet load test")
	fleetShort := flag.Bool("fleet-short", false, "CI smoke: shrink the -fleet load test (caps devices at 64)")
	haRun := flag.Bool("ha", false, "run the replica-group chaos proof instead: kill -9 one of N in-process p2god replicas mid-fleet-job")
	haShort := flag.Bool("ha-short", false, "CI smoke: shrink the -ha chaos proof (2 replicas, small fleet)")
	pgoRun := flag.Bool("pgo", false, "run the self-hosted PGO loop instead: capture, merge into default.pgo, rebuild, A/B replay bench")
	pgoShort := flag.Bool("pgo-short", false, "CI smoke: shrink the -pgo captures")
	pgoOut := flag.String("pgo-out", "", "merged profile destination (default: <module root>/default.pgo)")
	pgoDir := flag.String("pgo-dir", "", "per-workload capture directory (default: <module root>/pgo-profiles)")
	pgoBench := flag.String("pgo-bench", "BENCH_p2go.json", "append PGO before/after rows to this bench JSON (empty skips)")
	pgoReplayBench := flag.String("pgo-replay-bench", "", "internal: run the sequential replay benchmark and write a BenchFile here (A/B child mode)")
	flag.Parse()

	if *pgoReplayBench != "" {
		if err := runPGOReplayBench(*pgoReplayBench, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pgo-replay-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *pgoRun {
		fmt.Println("===== PGO =====")
		err := runPGO(pgoOptions{
			short: *pgoShort, out: *pgoOut, dir: *pgoDir,
			bench: *pgoBench, seed: *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pgo: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *haRun {
		fmt.Println("===== HA CHAOS =====")
		if err := runHAChaos(*haShort, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: ha: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *fleetRun {
		fmt.Println("===== FLEET =====")
		if err := runFleetLoad(*fleetDevices, *fleetShort, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *bench != "" {
		fmt.Println("===== BENCH =====")
		if err := runBench(*bench, *seed, *benchWorkload, *benchBaseline); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	experiments := []struct {
		id string
		fn func(seed int64) error
	}{
		{"EX1", ex1HitRates},
		{"FIG1", fig1DependencyGraph},
		{"TAB1", tab1NonExclusiveSets},
		{"TAB2", tab2StageHistory},
		{"TAB3", tab3Examples},
		{"ABL1", ablOffloadFirst},
		{"ABL2", ablCMSShrink},
		{"ABL3", ablP5Baseline},
		{"ABL4", ablDoesNotFit},
		{"EXT1", extGuards},
		{"EXT2", extOnline},
		{"EXT3", extNetwork},
		{"EXT4", extEgress},
	}
	ran := 0
	for _, e := range experiments {
		if *run != "" && !strings.EqualFold(*run, e.id) {
			continue
		}
		fmt.Printf("===== %s =====\n", e.id)
		if err := e.fn(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches %q\n", *run)
		os.Exit(2)
	}
}

func ex1Workload(seed int64) (*p2go.Program, *p2go.Config, *p2go.Trace, error) {
	w, err := workloads.Get("ex1")
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := p2go.ParseProgram(w.Source)
	if err != nil {
		return nil, nil, nil, err
	}
	trace, err := w.Trace(seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, w.Config(), trace, nil
}

// ex1HitRates reproduces the hit-rate annotation of Ex. 1.
func ex1HitRates(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	prof, err := p2go.RunProfile(context.Background(), prog, cfg, trace, 1)
	if err != nil {
		return err
	}
	paper := []struct {
		table string
		rate  float64
	}{
		{"IPv4", 1.00}, {"ACL_UDP", 0.08}, {"ACL_DHCP", 0.14},
		{"Sketch_1", 0.02}, {"Sketch_2", 0.02}, {"Sketch_Min", 0.02},
		{"DNS_Drop", 0.01},
	}
	fmt.Println("Ex. 1 per-table hit rates (paper annotation vs measured):")
	fmt.Printf("  %-12s %8s %10s\n", "table", "paper", "measured")
	for _, p := range paper {
		fmt.Printf("  %-12s %7.0f%% %9.2f%%\n", p.table, 100*p.rate, 100*prof.HitRate(p.table))
	}
	return nil
}

// fig1DependencyGraph reproduces Fig. 1.
func fig1DependencyGraph(seed int64) error {
	prog, _, _, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	res, err := p2go.Compile(prog, p2go.DefaultTarget())
	if err != nil {
		return err
	}
	fmt.Println("Ex. 1 dependency graph (paper Fig. 1):")
	for _, e := range res.Deps.Edges {
		kinds := e.Kinds()
		names := make([]string, len(kinds))
		for i, k := range kinds {
			names[i] = k.String()
		}
		fmt.Printf("  %-12s -> %-12s %v\n", e.From, e.To, names)
	}
	fmt.Println("Graphviz rendering (style-matched to Fig. 1):")
	fmt.Print(res.Deps.Dot())
	return nil
}

// tab1NonExclusiveSets reproduces Table 1.
func tab1NonExclusiveSets(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	prof, err := p2go.RunProfile(context.Background(), prog, cfg, trace, 1)
	if err != nil {
		return err
	}
	fmt.Println("Sets of non-exclusive actions (paper Table 1: four sets):")
	sets := prof.NonExclusiveSets(2)
	for _, s := range sets {
		fmt.Printf("  {%s}  (%d packets)\n", strings.Join(s.Members, ", "), s.Count)
	}
	fmt.Printf("measured distinct sets: %d (paper: 4)\n", len(sets))
	return nil
}

// tab2StageHistory reproduces Table 2.
func tab2StageHistory(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	res, err := p2go.Optimize(prog, cfg, trace, p2go.Options{})
	if err != nil {
		return err
	}
	fmt.Println("Ex. 1 stage history (paper Table 2: 8 -> 7 -> 6 -> 3):")
	fmt.Print(p2go.RenderHistory(res.History))
	fmt.Println("\nobservations:")
	for _, o := range res.Observations {
		fmt.Println(" ", o)
	}
	report, err := p2go.VerifyEquivalence(res, cfg, trace)
	if err != nil {
		return err
	}
	fmt.Println("\nbehavior check:", report)
	return nil
}

// tab3Examples reproduces Table 3.
func tab3Examples(seed int64) error {
	rows := []struct {
		workload string
		paperOpt string
		before   int
		after    int
	}{
		{"natgre", "Removing Dependencies", 4, 3},
		{"sourceguard", "Reducing Memory", 5, 4},
		{"failure", "Offloading Code", 4, 2},
	}
	fmt.Println("Paper Table 3 vs measured:")
	fmt.Printf("  %-18s %-22s %14s %14s\n", "example", "relevant optimization", "paper (b->a)", "measured (b->a)")
	for _, row := range rows {
		w, err := workloads.Get(row.workload)
		if err != nil {
			return err
		}
		prog, err := p2go.ParseProgram(w.Source)
		if err != nil {
			return err
		}
		trace, err := w.Trace(seed)
		if err != nil {
			return err
		}
		res, err := p2go.Optimize(prog, w.Config(), trace, p2go.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("  %-18s %-22s %8d -> %-3d %8d -> %-3d\n",
			row.workload, row.paperOpt, row.before, row.after,
			res.StagesBefore(), res.StagesAfter())
		for _, o := range res.Observations {
			if o.Accepted {
				fmt.Printf("      %s\n", o.Summary)
			}
		}
	}
	return nil
}

// ablOffloadFirst reproduces §2.2's phase-ordering argument.
func ablOffloadFirst(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	opt := core.New(core.Options{})
	before, err := opt.OffloadCandidates(prog, cfg, trace)
	if err != nil {
		return err
	}
	partial, err := p2go.Optimize(prog, cfg, trace, p2go.Options{Passes: []string{"phase2", "phase3"}})
	if err != nil {
		return err
	}
	after, err := opt.OffloadCandidates(partial.Optimized, partial.OptimizedConfig, trace)
	if err != nil {
		return err
	}
	show := func(label string, reports []core.CandidateReport) {
		sort.Slice(reports, func(i, j int) bool { return reports[i].Redirected < reports[j].Redirected })
		fmt.Println(label)
		for _, rep := range reports {
			if rep.StagesSaved < 1 {
				continue
			}
			fmt.Printf("  saves %d stage(s), redirects %5.2f%%: {%s}\n",
				rep.StagesSaved, 100*rep.RedirectFrac, strings.Join(rep.Segment.Tables, ", "))
		}
	}
	fmt.Println("Phase-ordering ablation (§2.2): offloading the two ACLs is tempting before")
	fmt.Println("Phase 2 (they occupy two stages) but pointless after (they share one stage).")
	show("viable offload candidates BEFORE any optimization:", before)
	show("viable offload candidates AFTER Phases 2+3:", after)
	return nil
}

// ablCMSShrink reproduces §3.3's discard decision.
func ablCMSShrink(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	base, err := p2go.RunProfile(context.Background(), prog, cfg, trace, 1)
	if err != nil {
		return err
	}
	reduced := p4.Clone(prog)
	reduced.Register("cms_r1").InstanceCount = programs.Ex1ReducedSketchCells
	act := reduced.Action("sketch1_count")
	for _, call := range act.Body {
		if call.Name == p4.PrimHashOffset {
			call.Args[3] = p4.IntLit{Value: uint64(programs.Ex1ReducedSketchCells)}
		}
	}
	redProf, err := p2go.RunProfile(context.Background(), reduced, cfg, trace, 1)
	if err != nil {
		return err
	}
	fmt.Printf("CMS-shrink ablation (§3.3): Sketch_1 row %d -> %d cells\n",
		programs.Ex1SketchCells, programs.Ex1ReducedSketchCells)
	fmt.Printf("  DNS_Drop hits: %d (original) vs %d (reduced) — over-counting detected: %v\n",
		base.Hits["DNS_Drop"], redProf.Hits["DNS_Drop"], base.Hits["DNS_Drop"] != redProf.Hits["DNS_Drop"])
	fmt.Printf("  profile diff: %s\n", base.Diff(redProf))
	return nil
}

// ablP5Baseline contrasts the P5-style baseline with P2GO.
func ablP5Baseline(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	policy := p5.NewPolicy(map[string][]string{
		"routing":    {"IPv4"},
		"udp-acl":    {"ACL_UDP"},
		"dhcp-guard": {"ACL_DHCP"},
		"dns-limit":  {"Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"},
	})
	p5Res, err := p5.Optimize(prog, policy, tofino.DefaultTarget())
	if err != nil {
		return err
	}
	p2goRes, err := p2go.Optimize(prog, cfg, trace, p2go.Options{})
	if err != nil {
		return err
	}
	fmt.Println("P5 baseline vs P2GO on Ex. 1 (all features used by policy):")
	fmt.Printf("  P5   : %d -> %d stages (policy-driven: nothing unused, nothing removed)\n",
		p5Res.StagesBefore, p5Res.StagesAfter)
	fmt.Printf("  P2GO : %d -> %d stages (profile-guided)\n",
		p2goRes.StagesBefore(), p2goRes.StagesAfter())
	return nil
}

// extGuards demonstrates §3.2's runtime dependency-violation detection.
func extGuards(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	res, err := p2go.Optimize(prog, cfg, trace, p2go.Options{InsertDependencyGuards: true})
	if err != nil {
		return err
	}
	fmt.Println("Runtime violation detectors (§3.2 alternative approach):")
	for _, g := range res.Guards {
		fmt.Printf("  watching removed dependency %s -> %s via table %s (register %s)\n",
			g.From, g.To, g.Table, g.Register)
	}
	fmt.Printf("pipeline with detectors: %d -> %d stages (detectors are free)\n",
		res.StagesBefore(), res.StagesAfter())
	return nil
}

// extOnline demonstrates §6's dynamic-compilation loop in numbers.
func extOnline(seed int64) error {
	prog, cfg, trace, err := ex1Workload(seed)
	if err != nil {
		return err
	}
	res, err := p2go.Optimize(prog, cfg, trace, p2go.Options{})
	if err != nil {
		return err
	}
	mon, err := p2go.NewOnlineMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile,
		p2go.OnlineConfig{WindowSize: 5000, SampleEvery: 4})
	if err != nil {
		return err
	}
	fresh, err := workloads.Get("ex1")
	if err != nil {
		return err
	}
	t2, err := fresh.Trace(seed + 1)
	if err != nil {
		return err
	}
	for _, pkt := range t2.Packets {
		if _, err := mon.Process(simInput(pkt)); err != nil {
			return err
		}
	}
	fmt.Printf("Online profiling (§6 dynamic compilation): %d windows at 1-in-4 sampling, stale=%v\n",
		mon.Windows(), mon.Stale())
	fmt.Println("(see examples/adaptive for the drift + re-optimization loop)")
	return nil
}

// extNetwork demonstrates §6's network-wide direction: per-device traces
// from a two-switch topology, each device optimized with what it saw.
func extNetwork(seed int64) error {
	res, err := fleet.Run(context.Background(), fleet.Enterprise(seed), fleet.Options{})
	if err != nil {
		return err
	}
	fmt.Println("Network-wide demonstrator (§6): edge (Ex. 1 firewall) + core router,")
	fmt.Println("enterprise trace injected at the edge, per-device traces collected in-network:")
	for _, row := range res.Devices {
		if row.Status != report.FleetOptimized {
			return fmt.Errorf("device %s %s: %s%s", row.Device, row.Status, row.Reason, row.Error)
		}
		fmt.Printf("  %-8s %6d packets  %d -> %d stages\n", row.Device, row.Packets,
			row.Result.StagesBefore, row.Result.StagesAfter)
	}
	fmt.Printf("  fleet total %d -> %d stages (see examples/network)\n", res.StagesBefore, res.StagesAfter)
	return nil
}

// extEgress demonstrates the egress pipeline model.
func extEgress(seed int64) error {
	src := `
header_type m_t { fields { klass : 8; } }
metadata m_t m;
action route(p) { modify_field(standard_metadata.egress_spec, p); }
action eg_drop_a() { drop(); }
action eg_drop_b() { drop(); }
table ing_route { actions { route; } default_action : route(2); }
table eg_acl_a { reads { m.klass : exact; } actions { eg_drop_a; } size : 8; }
table eg_acl_b { reads { standard_metadata.egress_port : exact; } actions { eg_drop_b; } size : 8; }
control ingress { apply(ing_route); }
control egress { apply(eg_acl_a); apply(eg_acl_b); }
`
	prog, err := p2go.ParseProgram(src)
	if err != nil {
		return err
	}
	res, err := p2go.Compile(prog, p2go.DefaultTarget())
	if err != nil {
		return err
	}
	fmt.Println("Egress pipeline model (§2.1 'an ingress and egress pipeline'):")
	fmt.Print(res.Mapping.Render())
	return nil
}

// ablDoesNotFit reproduces §2.2's "what if the program does not fit?".
func ablDoesNotFit(seed int64) error {
	w, err := workloads.Get("stress")
	if err != nil {
		return err
	}
	prog, err := p2go.ParseProgram(w.Source)
	if err != nil {
		return err
	}
	trace, err := w.Trace(seed)
	if err != nil {
		return err
	}
	res, err := p2go.Optimize(prog, w.Config(), trace, p2go.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("Does-not-fit ablation (§2.2): %d-deep ACL chain vs %d physical stages\n",
		programs.StressChainLength, p2go.DefaultTarget().Stages)
	fmt.Print(p2go.RenderHistory(res.History))
	return nil
}

// simInput converts a trace packet.
func simInput(p trafficgen.Packet) sim.Input {
	return sim.Input{Port: p.Port, Data: p.Data}
}
