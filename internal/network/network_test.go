package network

import (
	"testing"

	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
)

func buildTopology(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	if err := topo.AddDevice("edge", p4.MustParse(programs.Ex1), programs.Ex1Config()); err != nil {
		t.Fatal(err)
	}
	coreCfg, err := rt.Parse(programs.CoreRouterRulesText)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddDevice("corert", p4.MustParse(programs.CoreRouter), coreCfg); err != nil {
		t.Fatal(err)
	}
	// The edge firewall forwards to ports 3/4/5 (its routes); all three
	// uplinks land on the core router.
	for _, port := range []uint64{3, 4, 5} {
		if err := topo.Link(Hop{"edge", port}, Hop{"corert", 1}); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

func enterpriseInjections(t *testing.T) []Injection {
	t.Helper()
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Injection, len(trace.Packets))
	for i, pkt := range trace.Packets {
		out[i] = Injection{At: Hop{"edge", pkt.Port}, Data: pkt.Data}
	}
	return out
}

func TestInjectJourney(t *testing.T) {
	topo := buildTopology(t)
	inj := enterpriseInjections(t)
	// The first packet of the trace is forwarded by the edge and then by
	// the core (all trace destinations are in 10/8).
	j, err := topo.Inject(inj[0].At, inj[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if j.Dropped && len(j.Steps) == 1 {
		// A blocked packet dies at the edge; find a forwarded one.
		for _, x := range inj[:50] {
			j, err = topo.Inject(x.At, x.Data)
			if err != nil {
				t.Fatal(err)
			}
			if !j.Dropped {
				break
			}
		}
	}
	if j.Dropped {
		t.Fatal("expected a forwarded packet in the first 50")
	}
	if len(j.Steps) != 2 {
		t.Fatalf("journey steps = %d, want 2 (edge then core): %+v", len(j.Steps), j.Steps)
	}
	if j.Steps[0].Device != "edge" || j.Steps[1].Device != "corert" {
		t.Errorf("path = %+v", j.Steps)
	}
	if j.Exit == nil || j.Exit.Port != 12 {
		t.Errorf("exit = %+v, want port 12 on the core", j.Exit)
	}
}

func TestCollectDeviceTraces(t *testing.T) {
	topo := buildTopology(t)
	inj := enterpriseInjections(t)
	traces, errs := topo.CollectDeviceTraces(inj)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if got := len(traces["edge"].Packets); got != len(inj) {
		t.Errorf("edge sees %d packets, want all %d", got, len(inj))
	}
	// The core sees only what the edge forwards: everything except the
	// firewall's drops (8% blocked UDP + 14% rogue DHCP + 1% DNS limit).
	coreN := len(traces["corert"].Packets)
	wantCore := len(inj) - (1600 + 2800 + 200)
	if coreN != wantCore {
		t.Errorf("core sees %d packets, want %d", coreN, wantCore)
	}
}

func TestTopologyErrors(t *testing.T) {
	topo := NewTopology()
	if err := topo.AddDevice("a", p4.MustParse(programs.Quickstart), programs.QuickstartConfig()); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddDevice("a", p4.MustParse(programs.Quickstart), programs.QuickstartConfig()); err == nil {
		t.Error("duplicate device should fail")
	}
	if err := topo.Link(Hop{"ghost", 1}, Hop{"a", 1}); err == nil {
		t.Error("link from unknown device should fail")
	}
	if err := topo.Link(Hop{"a", 1}, Hop{"ghost", 1}); err == nil {
		t.Error("link to unknown device should fail")
	}
	if _, err := topo.Inject(Hop{"ghost", 1}, []byte{1}); err == nil {
		t.Error("inject at unknown device should fail")
	}
}

func TestForwardingLoopDetected(t *testing.T) {
	topo := NewTopology()
	// A device that forwards everything to port 1, linked to itself.
	src := `
action fwd() { modify_field(standard_metadata.egress_spec, 1); }
table t { actions { fwd; } default_action : fwd; }
control ingress { apply(t); }
`
	if err := topo.AddDevice("loop", p4.MustParse(src), nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.Link(Hop{"loop", 1}, Hop{"loop", 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Inject(Hop{"loop", 1}, []byte{1}); err == nil {
		t.Error("forwarding loop should be detected")
	}
}
