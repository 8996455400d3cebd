package p2go_test

import (
	"context"
	"fmt"
	"log"

	"p2go"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

// ExampleCompile shows the compiler driver: parse a program and inspect the
// stage mapping and dependency graph it produces.
func ExampleCompile() {
	prog, err := p2go.ParseProgram(programs.Quickstart)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p2go.Compile(prog, p2go.DefaultTarget())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stages: %d\n", res.Mapping.StagesUsed)
	for _, e := range res.Deps.Edges {
		fmt.Printf("dependency: %s -> %s\n", e.From, e.To)
	}
	// Output:
	// stages: 2
	// dependency: port_acl -> routes
}

// ExampleRunProfile shows Phase 1 on its own: hit rates from a replayed
// trace. The last argument is the replay worker count (0: one per CPU);
// the profile is the same at any count.
func ExampleRunProfile() {
	prog, err := p2go.ParseProgram(programs.Quickstart)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := p2go.ParseRules(programs.QuickstartRulesText)
	if err != nil {
		log.Fatal(err)
	}
	trace := trafficgen.QuickstartTrace(1000, 1)
	prof, err := p2go.RunProfile(context.Background(), prog, cfg, trace, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("port_acl hit rate: %.0f%%\n", 100*prof.HitRate("port_acl"))
	fmt.Printf("routes hit rate: %.0f%%\n", 100*prof.HitRate("routes"))
	// Output:
	// port_acl hit rate: 10%
	// routes hit rate: 90%
}

// ExampleOptimize runs the full pipeline on the paper's Example 1 and
// prints the Table 2 stage counts.
func ExampleOptimize() {
	prog, err := p2go.ParseProgram(programs.Ex1)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := p2go.Optimize(prog, programs.Ex1Config(), trace, p2go.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range res.History {
		fmt.Printf("%s: %d stages\n", h.Label, h.Stages)
	}
	fmt.Printf("offloaded: %v\n", res.OffloadedTables)
	// Output:
	// initial: 8 stages
	// removing-dependencies: 7 stages
	// reducing-memory: 6 stages
	// offloading-code: 3 stages
	// offloaded: [Sketch_1 Sketch_2 Sketch_Min DNS_Drop]
}
