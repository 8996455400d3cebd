// Command p4c-sim is the standalone compiler driver: it checks a P4_14
// program, maps it onto the RMT target model, and prints the three
// artifacts the optimizer consumes — the stage mapping, the dependency
// graph (optionally as Graphviz), and the control graph's execution paths —
// plus what the profiling replay's lowering keeps of the program.
//
// Usage:
//
//	p4c-sim [-workload ex1 | -program file.p4] [-dot] [-paths] [-stages N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"p2go"
	"p2go/internal/profile"
	"p2go/internal/tofino"
	"p2go/internal/workloads"
)

func main() {
	workload := flag.String("workload", "ex1", "named workload program")
	programFile := flag.String("program", "", "P4_14 program file (overrides the workload)")
	dot := flag.Bool("dot", false, "print the dependency graph in Graphviz format (Fig. 1)")
	paths := flag.Bool("paths", false, "print the control graph's execution paths")
	stages := flag.Int("stages", 0, "override the target's physical stage count")
	flag.Parse()

	if err := run(*workload, *programFile, *dot, *paths, *stages); err != nil {
		fmt.Fprintln(os.Stderr, "p4c-sim:", err)
		os.Exit(1)
	}
}

func run(workload, programFile string, dot, paths bool, stages int) error {
	src := ""
	var cfg *p2go.Config // a program file comes without rules
	if programFile != "" {
		data, err := os.ReadFile(programFile)
		if err != nil {
			return err
		}
		src = string(data)
	} else {
		w, err := workloads.Get(workload)
		if err != nil {
			return err
		}
		src, cfg = w.Source, w.Config()
	}
	prog, err := p2go.ParseProgram(src)
	if err != nil {
		return err
	}
	tgt := tofino.DefaultTarget()
	if stages > 0 {
		tgt.Stages = stages
	}
	res, err := p2go.Compile(prog, tgt)
	if err != nil {
		return err
	}
	fmt.Println("== stage mapping ==")
	fmt.Print(res.Mapping.Render())
	fmt.Println("\n== memory occupancy ==")
	for _, occ := range res.Mapping.Occupancy() {
		fmt.Printf("  stage %2d: SRAM %7d/%d  TCAM %6d/%d\n",
			occ.Stage, occ.SRAMUsed, tgt.StageSRAMBytes, occ.TCAMUsed, tgt.StageTCAMBytes)
	}
	fmt.Println("\n== dependency graph ==")
	if dot {
		fmt.Print(res.Deps.Dot())
	} else {
		for _, e := range res.Deps.Edges {
			kinds := e.Kinds()
			names := make([]string, len(kinds))
			for i, k := range kinds {
				names[i] = k.String()
			}
			fmt.Printf("  %s -> %s  (%v)\n", e.From, e.To, names)
		}
		if lp := res.Deps.LongestPaths(); len(lp) > 0 {
			fmt.Println("  longest path(s):")
			for _, p := range lp {
				fmt.Println("   ", p)
			}
		}
	}
	// The numbers on a job trace's "sim.plan" span: a replay reads only the
	// profiling header and the fate off each packet, and computes only that.
	fmt.Println("\n== replay lowering ==")
	if prep, err := profile.PrepareContext(context.Background(), prog, cfg); err != nil {
		fmt.Println("   not lowered:", err)
	} else {
		low := prep.Lowering()
		fmt.Printf("  observing the %s: %d of %d header fields extracted, %d ops and %d calculated-field updates elided\n",
			low.Observe, low.FieldsExtracted, low.FieldsTotal, low.OpsElided, low.CalcsElided)
	}
	if paths {
		// Enumerated here, on demand: the graph is exponential in the
		// number of sequentially applied tables, and a program too wide to
		// list still has a mapping and a dependency graph worth printing.
		fmt.Println("\n== control graph (execution paths) ==")
		list, err := res.Paths()
		if err != nil {
			fmt.Println("   not enumerated:", err)
		}
		for _, p := range list {
			fmt.Println("  ", p)
		}
	}
	return nil
}
