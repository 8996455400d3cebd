package core

import (
	"context"
	"math/rand"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
)

// egressOptProgram has two egress ACLs with a write-after-write dependency
// (both drop) that never manifests: Phase 2 should fold them into one
// egress stage, shortening the egress pipeline 2 -> 1 while ingress stays
// at 1.
const egressOptProgram = `
header_type m_t { fields { klass : 8; } }
metadata m_t m;
action route(p) { modify_field(standard_metadata.egress_spec, p); }
action eg_drop_a() { drop(); }
action eg_drop_b() { drop(); }
table ing_route { actions { route; } default_action : route(2); }
table eg_acl_a {
    reads { m.klass : exact; }
    actions { eg_drop_a; }
    size : 8;
}
table eg_acl_b {
    reads { standard_metadata.egress_port : exact; }
    actions { eg_drop_b; }
    size : 8;
}
control ingress {
    apply(ing_route);
}
control egress {
    apply(eg_acl_a);
    apply(eg_acl_b);
}
`

// TestEgressDependencyRemoval: the optimizer also shortens the egress
// pipeline when the profile shows its dependencies never manifest.
func TestEgressDependencyRemoval(t *testing.T) {
	ast := p4.MustParse(egressOptProgram)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	// Traffic never matches either egress ACL (metadata stays zero and
	// no rules are installed for class 0 / port 2... install rules that
	// simply never fire on the trace).
	cfgText := `
table_add eg_acl_a eg_drop_a 9
table_add eg_acl_b eg_drop_b 9
`
	cfg, err := parseRules(cfgText)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	trace := &trafficgen.Trace{}
	for i := 0; i < 500; i++ {
		data := make([]byte, 4)
		rng.Read(data)
		trace.Packets = append(trace.Packets, trafficgen.Packet{Port: 1, Data: data})
	}
	res, err := Optimize(context.Background(), ast, cfg, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Total stages: ingress 1 + egress 2 = 3 initially, 1 + 1 = 2 after.
	if res.StagesBefore() != 3 || res.StagesAfter() != 2 {
		t.Fatalf("total stages %d -> %d, want 3 -> 2\n%s",
			res.StagesBefore(), res.StagesAfter(), RenderHistory(res.History))
	}
	var dep *Observation
	for i := range res.Observations {
		if res.Observations[i].Phase == PhaseDependencies && res.Observations[i].Accepted {
			dep = &res.Observations[i]
		}
	}
	if dep == nil {
		t.Fatal("no accepted dependency removal in the egress pipeline")
	}
	if dep.Tables[0] != "eg_acl_a" || dep.Tables[1] != "eg_acl_b" {
		t.Errorf("removed %v, want eg_acl_a -> eg_acl_b", dep.Tables)
	}
	// The rewrite happened inside the egress control.
	eg := res.Optimized.Control(p4.EgressControl)
	if eg == nil {
		t.Fatal("egress control vanished")
	}
	if path := findApplyPath(eg.Body, "eg_acl_b"); path == nil {
		t.Error("eg_acl_b not in the egress control anymore")
	} else {
		inMiss := false
		for _, enc := range path {
			if enc.viaApply == "eg_acl_a" && !enc.onHit {
				inMiss = true
			}
		}
		if !inMiss {
			t.Error("eg_acl_b should be in eg_acl_a's miss arm")
		}
	}
}

// parseRules is a tiny indirection so the test reads naturally.
func parseRules(text string) (*rt.Config, error) { return rt.Parse(text) }
