package p2go

// Benchmark harness: one benchmark per paper table/figure (see DESIGN.md
// §5 for the experiment index) plus the ablations and micro-benchmarks of
// the substrate. Each experiment benchmark asserts the headline result —
// who wins, by how many stages — and reports it via b.ReportMetric, so
// `go test -bench=.` regenerates the evaluation.

import (
	"context"
	"sync"
	"testing"

	"p2go/internal/core"
	"p2go/internal/deps"
	"p2go/internal/fleet"
	"p2go/internal/ir"
	"p2go/internal/online"
	"p2go/internal/p4"
	"p2go/internal/packet"
	"p2go/internal/programs"
	"p2go/internal/sim"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

var (
	ex1TraceOnce sync.Once
	ex1Trace     *trafficgen.Trace
)

func enterpriseTrace(b *testing.B) *trafficgen.Trace {
	b.Helper()
	ex1TraceOnce.Do(func() {
		t, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
		if err != nil {
			b.Fatalf("trace: %v", err)
		}
		ex1Trace = t
	})
	return ex1Trace
}

// BenchmarkProfileEx1 regenerates the Ex. 1 hit-rate annotation (EX1):
// profiling 20k packets through the instrumented firewall.
func BenchmarkProfileEx1(b *testing.B) {
	trace := enterpriseTrace(b)
	ast := p4.MustParse(programs.Ex1)
	cfg := programs.Ex1Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := RunProfile(context.Background(), ast, cfg, trace, 1)
		if err != nil {
			b.Fatal(err)
		}
		if prof.HitRate("ACL_UDP") != 0.08 {
			b.Fatalf("ACL_UDP hit rate = %f, want 0.08", prof.HitRate("ACL_UDP"))
		}
	}
	b.ReportMetric(float64(len(trace.Packets))/b.Elapsed().Seconds()*float64(b.N), "pkts/s")
}

// BenchmarkDependencyGraphEx1 regenerates Fig. 1 (FIG1): the dependency
// graph of the Ex. 1 program.
func BenchmarkDependencyGraphEx1(b *testing.B) {
	ast := p4.MustParse(programs.Ex1)
	if err := p4.Check(ast); err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Build(ast)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := deps.Build(prog)
		if g.Edge("ACL_UDP", "ACL_DHCP") == nil {
			b.Fatal("missing the ACL dependency edge")
		}
		if len(g.LongestPathEdges()) == 0 {
			b.Fatal("no longest-path candidates")
		}
	}
}

// BenchmarkNonExclusiveSets regenerates Table 1 (TAB1): the four sets of
// non-exclusive actions.
func BenchmarkNonExclusiveSets(b *testing.B) {
	trace := enterpriseTrace(b)
	prof, err := RunProfile(context.Background(), p4.MustParse(programs.Ex1), programs.Ex1Config(), trace, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := prof.NonExclusiveSets(2)
		if len(sets) != 4 {
			b.Fatalf("sets = %d, want 4", len(sets))
		}
	}
}

// BenchmarkPipelineEx1 regenerates Table 2 (TAB2): the full P2GO pipeline
// on Ex. 1, 8 -> 7 -> 6 -> 3 stages.
func BenchmarkPipelineEx1(b *testing.B) {
	trace := enterpriseTrace(b)
	cfg := programs.Ex1Config()
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Optimize(context.Background(), p4.MustParse(programs.Ex1), cfg, trace, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesBefore() != 8 || res.StagesAfter() != 3 {
			b.Fatalf("stages %d -> %d, want 8 -> 3", res.StagesBefore(), res.StagesAfter())
		}
	}
	b.ReportMetric(float64(res.StagesBefore()), "stages_before")
	b.ReportMetric(float64(res.StagesAfter()), "stages_after")
}

// BenchmarkNATGRE regenerates Table 3 row 1 (TAB3a): 4 -> 3 by removing
// the NAT/GRE dependency.
func BenchmarkNATGRE(b *testing.B) {
	trace := trafficgen.NATGRETrace(trafficgen.NATGRESpec{Seed: 1})
	cfg := programs.NATGREConfig()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Optimize(context.Background(), p4.MustParse(programs.NATGRE), cfg, trace, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesBefore() != 4 || res.StagesAfter() != 3 {
			b.Fatalf("stages %d -> %d, want 4 -> 3", res.StagesBefore(), res.StagesAfter())
		}
	}
	b.ReportMetric(float64(res.StagesBefore()), "stages_before")
	b.ReportMetric(float64(res.StagesAfter()), "stages_after")
}

// BenchmarkSourceguard regenerates Table 3 row 2 (TAB3b): 5 -> 4 by
// shrinking one Bloom-filter register 8.4%.
func BenchmarkSourceguard(b *testing.B) {
	trace := trafficgen.SourceguardTrace(trafficgen.SourceguardSpec{Seed: 1})
	cfg := programs.SourceguardConfig()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Optimize(context.Background(), p4.MustParse(programs.Sourceguard), cfg, trace, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesBefore() != 5 || res.StagesAfter() != 4 {
			b.Fatalf("stages %d -> %d, want 5 -> 4", res.StagesBefore(), res.StagesAfter())
		}
		if got := res.Optimized.Register("bf_r1").InstanceCount; got != programs.SourceguardBFReducedCells {
			b.Fatalf("bf_r1 = %d cells, want %d", got, programs.SourceguardBFReducedCells)
		}
	}
	b.ReportMetric(float64(res.StagesBefore()), "stages_before")
	b.ReportMetric(float64(res.StagesAfter()), "stages_after")
	b.ReportMetric(8.4, "register_reduction_pct")
}

// BenchmarkFailureDetection regenerates Table 3 row 3 (TAB3c): 4 -> 2 by
// offloading the CMS branch.
func BenchmarkFailureDetection(b *testing.B) {
	trace := trafficgen.FailureTrace(trafficgen.FailureSpec{Seed: 1})
	cfg := programs.FailureConfig()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Optimize(context.Background(), p4.MustParse(programs.FailureDetection), cfg, trace, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesBefore() != 4 || res.StagesAfter() != 2 {
			b.Fatalf("stages %d -> %d, want 4 -> 2", res.StagesBefore(), res.StagesAfter())
		}
	}
	b.ReportMetric(float64(res.StagesBefore()), "stages_before")
	b.ReportMetric(float64(res.StagesAfter()), "stages_after")
	b.ReportMetric(100*res.RedirectedFraction, "redirected_pct")
}

// BenchmarkAblationOffloadFirst (ABL1): §2.2's phase-ordering argument —
// measuring every offload candidate on the unoptimized Ex. 1 program.
func BenchmarkAblationOffloadFirst(b *testing.B) {
	trace := enterpriseTrace(b)
	cfg := programs.Ex1Config()
	for i := 0; i < b.N; i++ {
		reports, err := core.OffloadCandidates(context.Background(), p4.MustParse(programs.Ex1), cfg, trace, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		aclPairSavings := 0
		for _, rep := range reports {
			if len(rep.Segment.Tables) == 2 && rep.Segment.Tables[0] == "ACL_UDP" && rep.Segment.Tables[1] == "ACL_DHCP" {
				if rep.StagesSaved > aclPairSavings {
					aclPairSavings = rep.StagesSaved
				}
			}
		}
		if aclPairSavings < 2 {
			b.Fatalf("pre-phase-2 ACL offload saves %d stages, want >= 2", aclPairSavings)
		}
	}
}

// BenchmarkAblationCMSShrink (ABL2): §3.3's discard decision — the
// reduced Sketch_1 row changes the DNS_Drop hit count.
func BenchmarkAblationCMSShrink(b *testing.B) {
	trace := enterpriseTrace(b)
	cfg := programs.Ex1Config()
	base, err := RunProfile(context.Background(), p4.MustParse(programs.Ex1), cfg, trace, 1)
	if err != nil {
		b.Fatal(err)
	}
	reduced := p4.MustParse(programs.Ex1)
	reduced.Register("cms_r1").InstanceCount = programs.Ex1ReducedSketchCells
	for _, call := range reduced.Action("sketch1_count").Body {
		if call.Name == p4.PrimHashOffset {
			call.Args[3] = p4.IntLit{Value: uint64(programs.Ex1ReducedSketchCells)}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		redProf, err := RunProfile(context.Background(), reduced, cfg, trace, 1)
		if err != nil {
			b.Fatal(err)
		}
		if base.Equal(redProf) {
			b.Fatal("reduced sketch should change the profile")
		}
		if redProf.Hits["DNS_Drop"] <= base.Hits["DNS_Drop"] {
			b.Fatal("reduced sketch should over-count")
		}
	}
}

// BenchmarkDoesNotFit (ABL4): the oversized 14-stage chain compiles in
// simulation and fits (1 stage) after Phase 2.
func BenchmarkDoesNotFit(b *testing.B) {
	trace := trafficgen.StressTrace(3000, 1)
	cfg := programs.StressConfig()
	src := programs.Stress()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Optimize(context.Background(), p4.MustParse(src), cfg, trace, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.History[0].Fits || res.StagesAfter() != 1 {
			b.Fatalf("stress: fits=%v after=%d, want does-not-fit -> 1 stage",
				res.History[0].Fits, res.StagesAfter())
		}
	}
	b.ReportMetric(float64(res.StagesBefore()), "stages_before")
	b.ReportMetric(float64(res.StagesAfter()), "stages_after")
}

// ---- substrate micro-benchmarks ----

// BenchmarkParseEx1 measures the P4 front end.
func BenchmarkParseEx1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := p4.Parse(programs.Ex1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(programs.Ex1)))
}

// BenchmarkCompileEx1 measures check + IR + dependency analysis + stage
// allocation.
func BenchmarkCompileEx1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := tofino.CompileSource(programs.Ex1, tofino.DefaultTarget())
		if err != nil {
			b.Fatal(err)
		}
		if res.Mapping.StagesUsed != 8 {
			b.Fatal("wrong mapping")
		}
	}
}

// BenchmarkSimProcess measures single-packet forwarding latency through
// the firewall simulator.
func BenchmarkSimProcess(b *testing.B) {
	ast := p4.MustParse(programs.Ex1)
	if err := p4.Check(ast); err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Build(ast)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := sim.New(prog, programs.Ex1Config(), sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pkt := packet.Serialize(
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.ProtoUDP, Src: packet.IP(10, 9, 0, 1), Dst: packet.IP(10, 0, 0, 99)},
		&packet.UDP{SrcPort: 999, DstPort: 6666},
		packet.Raw("x"),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sw.Process(sim.Input{Port: 1, Data: pkt})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Dropped {
			b.Fatal("blocked port should drop")
		}
	}
}

// BenchmarkTraceGeneration measures the calibrated enterprise generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Packets) != 20000 {
			b.Fatal("wrong trace size")
		}
	}
}

// ---- extension benchmarks ----

// BenchmarkMultiDimALU (§6 multi-dimensional optimization): compiling under
// an additional per-stage ALU budget.
func BenchmarkMultiDimALU(b *testing.B) {
	tgt := tofino.DefaultTarget()
	tgt.StageALUs = 8
	for i := 0; i < b.N; i++ {
		res, err := tofino.CompileSource(programs.Ex1, tgt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Mapping.StagesUsed < 8 {
			b.Fatal("ALU constraint cannot shrink the pipeline")
		}
	}
}

// BenchmarkOnlineMonitoring (§6 dynamic compilation): per-packet cost of
// the online profiler at 1-in-4 sampling.
func BenchmarkOnlineMonitoring(b *testing.B) {
	trace := enterpriseTrace(b)
	cfg := programs.Ex1Config()
	res, err := core.Optimize(context.Background(), p4.MustParse(programs.Ex1), cfg, trace, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mon, err := online.NewMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile,
		online.Config{WindowSize: 5000, SampleEvery: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := trace.Packets[i%len(trace.Packets)]
		if _, err := mon.Process(sim.Input{Port: pkt.Port, Data: pkt.Data}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquivalenceCheck: the full original-vs-deployment comparison
// over the 20k-packet trace, both sides replayed (a result without its
// profiles has no recorded outcomes to read).
func BenchmarkEquivalenceCheck(b *testing.B) {
	trace := enterpriseTrace(b)
	cfg := programs.Ex1Config()
	res, err := core.Optimize(context.Background(), p4.MustParse(programs.Ex1), cfg, trace, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res.Profile, res.FinalProfile = nil, nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := VerifyEquivalence(res, cfg, trace)
		if err != nil {
			b.Fatal(err)
		}
		if !report.Equivalent() {
			b.Fatal(report)
		}
	}
}

// BenchmarkFleetOptimization (§6 network-wide): per-device optimization of
// the two-switch enterprise topology fed by a network-level injection.
func BenchmarkFleetOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(context.Background(), fleet.Enterprise(1), fleet.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.StagesAfter >= res.StagesBefore {
			b.Fatal("fleet optimization saved nothing")
		}
	}
}
