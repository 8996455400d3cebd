// Failuredetect: the Blink-inspired failure-detection example with a live
// controller. P2GO offloads the retransmission-counting CMS branch
// (4 -> 2 stages); this example then starts the generated controller
// program behind a TCP packet-in server, replays the redirected packets
// over the wire, and reports the alarms the controller raises.
//
//	go run ./examples/failuredetect
package main

import (
	"fmt"
	"log"
	"net"

	"p2go"
	"p2go/internal/controller"
	"p2go/internal/programs"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

func main() {
	prog, err := p2go.ParseProgram(programs.FailureDetection)
	if err != nil {
		log.Fatal(err)
	}
	cfg := programs.FailureConfig()
	trace := trafficgen.FailureTrace(trafficgen.FailureSpec{Seed: 1})

	res, err := p2go.Optimize(prog, cfg, trace, p2go.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== optimization ==")
	fmt.Print(p2go.RenderHistory(res.History))
	fmt.Printf("offloaded: %v (%.2f%% of traffic redirected)\n\n",
		res.OffloadedTables, 100*res.RedirectedFraction)

	// Start the controller behind a TCP packet-in server.
	ctl, err := p2go.NewController(res.ControllerProgram, cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := controller.NewServer(ctl)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	fmt.Println("controller listening on", l.Addr())

	// Build the optimized data plane and wire redirected packets to the
	// controller over TCP.
	dataPlane, err := sim.NewFromAST(res.Optimized, res.OptimizedConfig, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	client, err := controller.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	var redirected, notifications int
	for _, pkt := range trace.Packets {
		out, err := dataPlane.Process(sim.Input{Port: pkt.Port, Data: pkt.Data})
		if err != nil {
			log.Fatal(err)
		}
		if !out.ToCPU {
			continue
		}
		redirected++
		verdict, err := client.Submit(uint16(pkt.Port), pkt.Data)
		if err != nil {
			log.Fatal(err)
		}
		if verdict.Code == controller.WireVerdictNotify {
			notifications++
		}
	}
	fmt.Printf("replayed %d packets: %d redirected over TCP, %d failure alarms\n",
		len(trace.Packets), redirected, notifications)
	stats := ctl.Stats()
	fmt.Printf("controller stats: handled=%d passed=%d notified=%d\n",
		stats.Handled, stats.Passed, stats.Notified)
	if notifications == 0 {
		log.Fatal("expected the failure burst to raise alarms")
	}
	fmt.Println("the failed prefix was reported to the controller — detection preserved after offload")
}
