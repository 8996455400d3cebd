// Quickstart: parse a P4_14 program, compile it onto the RMT target model,
// profile it against generated traffic, and run the P2GO optimizer.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"p2go"
	"p2go/internal/programs"
	"p2go/internal/trafficgen"
)

func main() {
	// 1. Parse and check the program (a minimal L3 router).
	prog, err := p2go.ParseProgram(programs.Quickstart)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Compile: stage mapping + dependency graph + control graph.
	compiled, err := p2go.Compile(prog, p2go.DefaultTarget())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== compiler output ==")
	fmt.Print(compiled.Mapping.Render())

	// 3. Install rules and profile against a generated trace.
	cfg, err := p2go.ParseRules(programs.QuickstartRulesText)
	if err != nil {
		log.Fatal(err)
	}
	trace := trafficgen.QuickstartTrace(2000, 7)
	prof, err := p2go.RunProfile(context.Background(), prog, cfg, trace, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== profile ==")
	fmt.Print(prof.Render())

	// 4. Run the optimizer. The router is already tight: P2GO reports
	// what it checked and changes nothing.
	res, err := p2go.Optimize(prog, cfg, trace, p2go.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== optimization ==")
	fmt.Print(p2go.RenderHistory(res.History))
	if len(res.Observations) == 0 {
		fmt.Println("no optimization opportunities — the program is already minimal")
	}
	for _, o := range res.Observations {
		fmt.Println(o)
	}
}
