// Firewall: the paper's running example end to end. An enterprise IP
// router turned stateful firewall (Ex. 1) is profiled against a calibrated
// traffic mix and optimized through all three phases, reproducing Table 2's
// 8 -> 7 -> 6 -> 3 stage reduction. The example then composes the optimized
// data plane with the generated controller program and verifies that the
// deployed system behaves exactly like the original on every packet.
//
//	go run ./examples/firewall
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
	prog, err := p2go.ParseProgram(programs.Ex1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := programs.Ex1Config()
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: the profile on its own (the Ex. 1 annotation + Table 1).
	prof, err := p2go.RunProfile(context.Background(), prog, cfg, trace, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Phase 1: profile ==")
	fmt.Print(prof.Render())

	// Phases 2-4.
	res, err := p2go.Optimize(prog, cfg, trace, p2go.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== observations (accept/reject material for the operator) ==")
	for _, o := range res.Observations {
		fmt.Println(o)
	}
	fmt.Println("\n== stage history (Table 2) ==")
	fmt.Print(p2go.RenderHistory(res.History))

	// The optimized program and the controller program are both ordinary
	// P4 source.
	fmt.Println("\n== optimized program ==")
	fmt.Println(p2go.PrintProgram(res.Optimized))
	if res.ControllerProgram != nil {
		fmt.Println("== controller program (offloaded segment) ==")
		fmt.Println(p2go.PrintProgram(res.ControllerProgram))
	}

	// Deploy: optimized data plane + controller, equivalent to the
	// original on the trace.
	report, err := p2go.VerifyEquivalence(res, cfg, trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== deployment check ==")
	fmt.Println(report)
}
