package online

import (
	"context"
	"math/rand"
	"testing"

	"p2go/internal/core"
	"p2go/internal/p4"
	"p2go/internal/packet"
	"p2go/internal/programs"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// optimizedEx1 runs the offline pipeline once, returning the optimized
// program, its config, and the final (baseline) profile.
func optimizedEx1(t *testing.T) *core.Result {
	t.Helper()
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), p4.MustParse(programs.Ex1), programs.Ex1Config(), trace, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dnsHeavyMix generates traffic whose DNS share is far above the profiled
// 2%: the offloaded branch becomes hot and the baseline profile stale.
func dnsHeavyMix(n int, dnsShare float64, seed int64) []sim.Input {
	rng := rand.New(rand.NewSource(seed))
	var out []sim.Input
	for i := 0; i < n; i++ {
		if rng.Float64() < dnsShare {
			src := packet.IP(10, 9, byte(rng.Intn(250)), byte(1+rng.Intn(250)))
			out = append(out, sim.Input{Port: 1, Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoUDP, Src: src, Dst: packet.IP(10, 0, 0, 53)},
				&packet.UDP{SrcPort: 5353, DstPort: packet.PortDNS},
				&packet.DNS{ID: uint16(i), QDCount: 1},
			)})
			continue
		}
		out = append(out, sim.Input{Port: 1, Data: packet.Serialize(
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{Protocol: packet.ProtoTCP, Src: packet.IP(10, 20, 0, byte(1+rng.Intn(250))), Dst: packet.IP(10, 0, 1, byte(1+rng.Intn(250)))},
			&packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443, Seq: rng.Uint32(), Flags: packet.TCPAck},
		)})
	}
	return out
}

// TestNoDriftOnRepresentativeTraffic: replaying a same-mix trace through
// the monitor produces no staleness.
func TestNoDriftOnRepresentativeTraffic(t *testing.T) {
	res := optimizedEx1(t)
	mon, err := NewMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile, Config{WindowSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range fresh.Packets {
		if _, err := mon.Process(sim.Input{Port: pkt.Port, Data: pkt.Data}); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Windows() != 4 {
		t.Errorf("windows = %d, want 4", mon.Windows())
	}
	if mon.Stale() {
		t.Errorf("same-mix traffic flagged stale: %v", mon.Drifts())
	}
}

// TestDriftDetectedWhenTrafficShifts: when DNS jumps from 2% to 30% of
// traffic, the To_Ctl redirect table's hit rate leaves the baseline band.
func TestDriftDetectedWhenTrafficShifts(t *testing.T) {
	res := optimizedEx1(t)
	mon, err := NewMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile, Config{WindowSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range dnsHeavyMix(4000, 0.30, 3) {
		if _, err := mon.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if !mon.Stale() {
		t.Fatal("30% DNS traffic should mark the 2% baseline stale")
	}
	foundToCtl := false
	for _, d := range mon.Drifts() {
		if d.Table == core.ToCtlTable && d.Observed > d.Baseline {
			foundToCtl = true
		}
	}
	if !foundToCtl {
		t.Errorf("drifts %v should include the redirect table", mon.Drifts())
	}
}

// TestSamplingStillDetectsDrift: at 1-in-10 sampling the drift is still
// caught (the paper's accuracy/overhead trade-off).
func TestSamplingStillDetectsDrift(t *testing.T) {
	res := optimizedEx1(t)
	mon, err := NewMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile,
		Config{WindowSize: 2000, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range dnsHeavyMix(4000, 0.30, 4) {
		if _, err := mon.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if !mon.Stale() {
		t.Error("sampled monitoring missed a 15x traffic shift")
	}
}

// TestReoptimizeOnFreshTrace closes the dynamic-compilation loop: the
// recorded window becomes the new trace, and re-running P2GO on the
// ORIGINAL program now refuses to offload the hot DNS branch.
func TestReoptimizeOnFreshTrace(t *testing.T) {
	res := optimizedEx1(t)
	if len(res.OffloadedTables) == 0 {
		t.Fatal("baseline run should have offloaded the DNS branch")
	}
	mon, err := NewMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile, Config{WindowSize: 2000, RecordLast: 4000})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range dnsHeavyMix(4000, 0.30, 5) {
		if _, err := mon.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if !mon.Stale() {
		t.Fatal("expected staleness")
	}
	fresh := mon.RecentTrace()
	if len(fresh.Packets) != 4000 {
		t.Fatalf("recorded trace = %d packets, want 4000", len(fresh.Packets))
	}
	res2, err := core.Optimize(context.Background(), res.Original, programs.Ex1Config(), fresh, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With 30% of traffic hitting the sketch branch, offloading it would
	// flood the controller: Phase 4 must not fire on it.
	for _, tbl := range res2.OffloadedTables {
		if tbl == "Sketch_1" || tbl == "DNS_Drop" {
			t.Errorf("hot DNS branch offloaded on the fresh trace: %v", res2.OffloadedTables)
		}
	}
	// The dependency removal and IPv4 reduction still apply.
	if res2.StagesAfter() >= res2.StagesBefore() {
		t.Errorf("re-optimization saved nothing: %d -> %d", res2.StagesBefore(), res2.StagesAfter())
	}
}

// TestTrailerStripped: the monitor's outputs are production frames, not
// instrumented ones.
func TestTrailerStripped(t *testing.T) {
	res := optimizedEx1(t)
	mon, err := NewMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile, Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := dnsHeavyMix(1, 0, 6)[0]
	out, err := mon.Process(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Data) != len(in.Data) {
		t.Errorf("output length %d, want %d (trailer stripped)", len(out.Data), len(in.Data))
	}
}

// TestMonitorReset: Reset clears windows and the recorder.
func TestMonitorReset(t *testing.T) {
	res := optimizedEx1(t)
	mon, err := NewMonitor(res.Optimized, res.OptimizedConfig, res.FinalProfile, Config{WindowSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range dnsHeavyMix(250, 0.5, 7) {
		if _, err := mon.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	mon.Reset()
	if mon.Windows() != 0 || mon.Stale() || len(mon.RecentTrace().Packets) != 0 {
		t.Error("Reset did not clear monitor state")
	}
}

func TestMonitorRequiresBaseline(t *testing.T) {
	res := optimizedEx1(t)
	if _, err := NewMonitor(res.Optimized, res.OptimizedConfig, nil, Config{}); err == nil {
		t.Error("expected error without a baseline")
	}
}
