// Network: the §6 "network-wide compilation" demonstrator. Two switches —
// the Ex. 1 edge firewall and a core router — are wired into a topology;
// the enterprise traffic is injected at the edge, each device's *observed*
// traffic is recorded as its own representative trace, and P2GO optimizes
// every device with the trace it actually saw. The run is a fleet job, the
// same one p2god serves on POST /fleets.
//
//	go run ./examples/network
package main

import (
	"context"
	"fmt"
	"log"

	"p2go/internal/fleet"
	"p2go/internal/report"
)

func main() {
	res, err := fleet.Run(context.Background(), fleet.Enterprise(1), fleet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-device observed traffic:")
	for _, row := range res.Devices {
		fmt.Printf("  %-8s %6d packets\n", row.Device, row.Packets)
	}
	fmt.Println("\nper-device optimization:")
	for _, row := range res.Devices {
		switch row.Status {
		case report.FleetSkipped:
			fmt.Printf("  skipped %-8s %s\n", row.Device, row.Reason)
		case report.FleetFailed:
			log.Fatalf("device %s: %s", row.Device, row.Error)
		default:
			fmt.Printf("  %-8s %d -> %d stages", row.Device, row.Result.StagesBefore, row.Result.StagesAfter)
			if len(row.Result.OffloadedTables) > 0 {
				fmt.Printf("  (offloaded %v)", row.Result.OffloadedTables)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\nfleet total: %d -> %d stages\n", res.StagesBefore, res.StagesAfter)
}
