// Package workloads registers the named example workloads — program
// source, runtime configuration, and calibrated traffic trace — used by
// the command-line tools, the examples, and the experiment harness.
package workloads

import (
	"fmt"
	"sort"

	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
)

// Workload bundles everything needed to profile or optimize one example.
type Workload struct {
	Name        string
	Description string
	Source      string
	Config      func() *rt.Config
	// Trace generates the workload's whole calibrated trace. Callers that
	// use only the head of it should call TracePrefix.
	Trace func(seed int64) (*trafficgen.Trace, error)
	// Packets is the length of that trace, whatever the seed: what a
	// caller must budget for before it generates anything.
	Packets int
	// prefix is the generator's bounded form (see TracePrefix); every
	// registered workload has one and Trace is derived from it.
	prefix func(seed int64, n int) (*trafficgen.Trace, error)
	// Paper documents the expected stage reduction, for reports.
	Paper string
	// Tune configures the tune pass for workloads whose programs declare
	// @tunable knobs; nil means the workload has no tuning story.
	Tune *TuneSpec
}

// TuneSpec is the workload-level tune-pass configuration, mirrored into
// core.TuneOptions by the CLI and the service without importing core.
type TuneSpec struct {
	// AccuracyTable is the table whose hit count is the accuracy signal.
	AccuracyTable string
	// MaxAccuracyLoss overrides the tune pass's default floor; 0 keeps it.
	MaxAccuracyLoss float64
}

var registry = map[string]Workload{
	"ex1": {
		Name:        "ex1",
		Description: "Example 1 enterprise firewall: IPv4 + UDP/DHCP ACLs + DNS query limiter (CMS)",
		Source:      programs.Ex1,
		Config:      programs.Ex1Config,
		Packets:     20000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.EnterprisePrefix(trafficgen.EnterpriseSpec{Seed: seed}, n)
		},
		Paper: "Table 2: 8 -> 7 -> 6 -> 3 stages",
	},
	"l2l3_acl": {
		Name:        "l2l3_acl",
		Description: "L2/L3 router + two rarely hit port ACLs + flow accounting (phase-ordering ablation)",
		Source:      programs.L2L3ACL,
		Config:      programs.L2L3ACLConfig,
		Packets:     4000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.L2L3ACLPrefix(trafficgen.L2L3ACLSpec{Seed: seed}, n), nil
		},
		Paper: "§2.2: offloading first removes both ACLs (5 -> 3); the default order saves one of those stages in Phase 2 first",
	},
	"natgre": {
		Name:        "natgre",
		Description: "NAT & GRE features from switch.p4 (dependency removal)",
		Source:      programs.NATGRE,
		Config:      programs.NATGREConfig,
		Packets:     10000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.NATGREPrefix(trafficgen.NATGRESpec{Seed: seed}, n), nil
		},
		Paper: "Table 3: 4 -> 3 stages (Removing Dependencies)",
	},
	"sourceguard": {
		Name:        "sourceguard",
		Description: "Sourceguard DHCP snooping with a Bloom-filter database (memory reduction)",
		Source:      programs.Sourceguard,
		Config:      programs.SourceguardConfig,
		Packets:     10000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.SourceguardPrefix(trafficgen.SourceguardSpec{Seed: seed}, n), nil
		},
		Paper: "Table 3: 5 -> 4 stages (Reducing Memory, one register -8.4%)",
		Tune:  &TuneSpec{AccuracyTable: "sg_drop"},
	},
	"failure": {
		Name:        "failure",
		Description: "Blink-style failure detection: retransmission BF + per-prefix CMS + alarm (offload)",
		Source:      programs.FailureDetection,
		Config:      programs.FailureConfig,
		Packets:     20000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.FailurePrefix(trafficgen.FailureSpec{Seed: seed}, n), nil
		},
		Paper: "Table 3: 4 -> 2 stages (Offloading Code)",
		Tune:  &TuneSpec{AccuracyTable: "FailureAlarm"},
	},
	"maglev": {
		Name:        "maglev",
		Description: "Maglev-style L4 load balancer with a tunable per-connection table (parameter tuning)",
		Source:      programs.Maglev,
		Config:      programs.MaglevConfig,
		Packets:     5000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.MaglevPrefix(trafficgen.MaglevSpec{Seed: seed}, n), nil
		},
		Paper: "tune: 5 -> 4 stages (conn_cells shrunk until both connection registers share a stage)",
		Tune:  &TuneSpec{AccuracyTable: "maglev_rehash"},
	},
	"syncookie": {
		Name:        "syncookie",
		Description: "SYN-cookie DDoS mitigation with a tunable proven-clients filter (parameter tuning)",
		Source:      programs.SynCookie,
		Config:      programs.SynCookieConfig,
		Packets:     7700,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.SynCookiePrefix(trafficgen.SynCookieSpec{Seed: seed}, n), nil
		},
		Paper: "tune: 4 -> 3 stages (sc_bf_cells shrunk until the proven-clients filter shares a stage)",
		Tune:  &TuneSpec{AccuracyTable: "cookie_check"},
	},
	"stress": {
		Name:        "stress",
		Description: "Does-not-fit 14-deep ACL chain (oversized program, folded by Phase 2)",
		Source:      programs.Stress(),
		Config:      programs.StressConfig,
		Packets:     5000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.StressPrefix(0, seed, n), nil
		},
		Paper: "§2.2: compiles in simulation at 14 stages, fits after optimization",
	},
	"quickstart": {
		Name:        "quickstart",
		Description: "Minimal L3 router (no optimization opportunities)",
		Source:      programs.Quickstart,
		Config:      programs.QuickstartConfig,
		Packets:     1000,
		prefix: func(seed int64, n int) (*trafficgen.Trace, error) {
			return trafficgen.QuickstartPrefix(0, seed, n), nil
		},
		Paper: "baseline: 2 stages, unchanged",
	},
}

func init() {
	for name, w := range registry {
		prefix := w.prefix
		w.Trace = func(seed int64) (*trafficgen.Trace, error) { return prefix(seed, 0) }
		registry[name] = w
	}
}

// TracePrefix returns byte-for-byte the first n packets of Trace(seed) —
// the whole trace when n <= 0 or n exceeds it — at a cost that follows n,
// not the trace's calibrated length (trafficgen's prefix contract). A
// Workload built outside the registry has no bounded generator: its whole
// trace is generated and cut, so the answer is the same either way.
func (w Workload) TracePrefix(seed int64, n int) (*trafficgen.Trace, error) {
	if w.prefix != nil {
		return w.prefix(seed, n)
	}
	t, err := w.Trace(seed)
	if err != nil || n <= 0 || n >= len(t.Packets) {
		return t, err
	}
	return &trafficgen.Trace{Packets: t.Packets[:n]}, nil
}

// Get returns a registered workload.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown workload %q (have: %v)", name, Names())
	}
	return w, nil
}

// Names lists the registered workloads, sorted.
func Names() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
