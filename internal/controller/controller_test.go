package controller

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"p2go/internal/core"
	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// TestEx1DeploymentEquivalence: after the full P2GO pipeline, the optimized
// data plane plus the controller behaves exactly like the original firewall
// on the profiling trace — the paper's central "same behavior on the trace"
// claim, verified end to end.
func TestEx1DeploymentEquivalence(t *testing.T) {
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := programs.Ex1Config()
	res, err := core.New(core.Options{}).Optimize(p4.MustParse(programs.Ex1), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControllerProgram == nil {
		t.Fatal("no controller program produced")
	}
	report, err := VerifyEquivalence(context.Background(), res.Original, cfg, res.Optimized, res.OptimizedConfig,
		res.ControllerProgram, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Equivalent() {
		t.Fatalf("behavior diverged: %s", report)
	}
	// Exactly the DNS share is redirected.
	if report.Redirected != res.Profile.Hits["Sketch_1"] {
		t.Errorf("redirected = %d, want %d", report.Redirected, res.Profile.Hits["Sketch_1"])
	}
}

// TestVerifyEquivalenceAllocCeiling: the verify loop reads fates only, so
// it must not allocate per packet. Over ex1's 20 000 packets one
// VerifyEquivalence measured 1 796 allocations (three switches built from
// ASTs, 400 redirects) when the fate was read off a packet-observing plan,
// 1 280 on fate plans; with an Exec slice and a Data copy per packet per
// switch it measured 99 800. The ceiling leaves no room for one allocation
// per packet on any of the three switches.
func TestVerifyEquivalenceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply to -race builds")
	}
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := programs.Ex1Config()
	res, err := core.New(core.Options{}).Optimize(p4.MustParse(programs.Ex1), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		report, err := VerifyEquivalence(context.Background(), res.Original, cfg, res.Optimized, res.OptimizedConfig,
			res.ControllerProgram, trace)
		if err != nil || !report.Equivalent() {
			t.Fatalf("verify: %v, %v", err, report)
		}
	})
	t.Logf("ex1, %d packets: %.0f allocations per VerifyEquivalence", len(trace.Packets), allocs)
	if allocs > 4000 {
		t.Errorf("%.0f allocations per VerifyEquivalence, want <= 4000", allocs)
	}
}

// TestVerifyEquivalenceByteCeiling: the verifier releases the original,
// data-plane and controller switches when it is done, so a repeated check
// runs on recycled register memory. sourceguard's two switches declare
// 524 160 cells (4.2 MB) each: a second VerifyEquivalence measured
// 8 475 032 bytes when every switch allocated them afresh, 248 472 with
// recycling, and 179 968 on fate plans, whose arenas stay empty (what is left
// is three lowerings and two 512-packet batches of Outputs).
func TestVerifyEquivalenceByteCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not apply to -race builds")
	}
	trace := trafficgen.SourceguardTrace(trafficgen.SourceguardSpec{Seed: 1})
	cfg := programs.SourceguardConfig()
	res, err := core.New(core.Options{}).Optimize(p4.MustParse(programs.Sourceguard), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		report, err := VerifyEquivalence(context.Background(), res.Original, cfg, res.Optimized, res.OptimizedConfig,
			res.ControllerProgram, trace)
		if err != nil || !report.Equivalent() {
			t.Fatalf("verify: %v, %v", err, report)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("sourceguard, %d packets: %d bytes allocated by a second VerifyEquivalence", len(trace.Packets), bytes)
	if bytes >= 224<<10 {
		t.Errorf("a second VerifyEquivalence allocated %d bytes, want < 224 KiB: its switches are not recycled, or they serialize packets again", bytes)
	}
}

// TestFailureDeploymentEquivalence: same end-to-end check for the
// failure-detection example, where the offloaded segment's guard depends on
// data-plane Bloom filter state.
func TestFailureDeploymentEquivalence(t *testing.T) {
	trace := trafficgen.FailureTrace(trafficgen.FailureSpec{Seed: 1})
	cfg := programs.FailureConfig()
	res, err := core.New(core.Options{}).Optimize(p4.MustParse(programs.FailureDetection), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControllerProgram == nil {
		t.Fatal("no controller program produced")
	}
	report, err := VerifyEquivalence(context.Background(), res.Original, cfg, res.Optimized, res.OptimizedConfig,
		res.ControllerProgram, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Equivalent() {
		t.Fatalf("behavior diverged: %s", report)
	}
	if report.Redirected == 0 {
		t.Error("expected redirected retransmissions")
	}
}

// TestControllerProgramShape: the Ex. 1 controller program is exactly the
// DNS branch.
func TestControllerProgramShape(t *testing.T) {
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.New(core.Options{}).Optimize(p4.MustParse(programs.Ex1), programs.Ex1Config(), trace)
	if err != nil {
		t.Fatal(err)
	}
	ctl := res.ControllerProgram
	for _, want := range []string{"Sketch_1", "Sketch_2", "Sketch_Min", "DNS_Drop"} {
		if ctl.Table(want) == nil {
			t.Errorf("controller program missing table %s", want)
		}
	}
	for _, gone := range []string{"IPv4", "ACL_UDP", "ACL_DHCP"} {
		if ctl.Table(gone) != nil {
			t.Errorf("controller program should not contain %s", gone)
		}
	}
	if ctl.Register("cms_r1") == nil || ctl.Register("cms_r2") == nil {
		t.Error("controller program missing the sketch registers")
	}
	// It is valid, printable P4.
	src := p4.Print(ctl)
	if _, err := p4.Parse(src); err != nil {
		t.Fatalf("controller program does not reparse: %v", err)
	}
}

// TestControllerStats: the deployment counts drops, notifications, passes.
func TestControllerStats(t *testing.T) {
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := programs.Ex1Config()
	res, err := core.New(core.Options{}).Optimize(p4.MustParse(programs.Ex1), cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(res.Optimized, res.OptimizedConfig, res.ControllerProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range trace.Packets {
		if _, err := dep.Process(simInput(pkt)); err != nil {
			t.Fatal(err)
		}
	}
	stats := dep.Controller().Stats()
	if stats.Handled != res.Profile.Hits["Sketch_1"] {
		t.Errorf("handled = %d, want the DNS share %d", stats.Handled, res.Profile.Hits["Sketch_1"])
	}
	if stats.Dropped != res.Profile.Hits["DNS_Drop"] {
		t.Errorf("controller drops = %d, want %d", stats.Dropped, res.Profile.Hits["DNS_Drop"])
	}
	if stats.Passed != stats.Handled-stats.Dropped {
		t.Errorf("passed = %d, want %d", stats.Passed, stats.Handled-stats.Dropped)
	}
	// Reset clears everything.
	dep.Reset()
	if dep.Controller().Stats().Handled != 0 {
		t.Error("Reset did not clear stats")
	}
}

func simInput(p trafficgen.Packet) (in sim.Input) {
	return sim.Input{Port: p.Port, Data: p.Data}
}

// TestVerifyEquivalenceNamesTheFailingPacket: the original switch runs a
// batch ahead of the deployment, and a packet it fails on must still be
// reported by its trace index — here one in the second batch.
func TestVerifyEquivalenceNamesTheFailingPacket(t *testing.T) {
	prog := p4.MustParse(`
header_type h_t { fields { a : 8; } }
header h_t h;
register r { width : 8; instance_count : 4; }
parser start { extract(h); return ingress; }
action note() { register_write(r, h.a, 1); modify_field(standard_metadata.egress_spec, 2); }
table t { actions { note; } default_action : note; }
control ingress { apply(t); }
`)
	const bad = sim.ReplayBatchSize + 188
	trace := &trafficgen.Trace{}
	for i := 0; i < bad+100; i++ {
		idx := byte(i % 4)
		if i == bad {
			idx = 9 // out of range for r[4]
		}
		trace.Packets = append(trace.Packets, trafficgen.Packet{Port: 1, Data: []byte{idx}})
	}
	_, err := VerifyEquivalence(context.Background(), prog, nil, prog, nil, nil, trace)
	want := "controller: original, packet " + strconv.Itoa(bad) + ": "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want prefix %q", err, want)
	}
}
