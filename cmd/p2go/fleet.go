// p2god fleet client subcommands: fleet submit, fleet status, fleet jobs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"p2go/internal/fleet"
	"p2go/internal/service"
)

// cmdFleet dispatches the network-wide verbs. A fleet job optimizes
// every device in a topology against its own observed traffic (P2GO §6)
// and returns one aggregated report.
func cmdFleet(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf(`usage: p2go fleet <submit|status|jobs> [flags] (see "p2go help")`)
	}
	switch args[0] {
	case "submit":
		return cmdFleetSubmit(args[1:])
	case "status":
		return cmdFleetStatus(args[1:])
	case "jobs":
		return cmdFleetJobs(args[1:])
	default:
		return fmt.Errorf("unknown fleet command %q (want submit, status, or jobs)", args[0])
	}
}

// cmdFleetSubmit posts a fleet spec to p2god. The spec comes from a JSON
// file (-spec, the POST /fleets request body verbatim) or is synthesized
// (-devices N -workload name): N disconnected same-program switches, each
// injected with its own seeded trace — the homogeneous-fleet shape where
// the shared analysis cache collapses N compiles into one.
func cmdFleetSubmit(args []string) error {
	fs := flag.NewFlagSet("fleet submit", flag.ContinueOnError)
	sf := addServerFlags(fs)
	specFile := fs.String("spec", "", "fleet spec JSON file (the POST /fleets body); overrides the synthetic flags")
	devices := fs.Int("devices", 4, "synthetic fleet: number of devices")
	workload := fs.String("workload", "quickstart", "synthetic fleet: workload for every device")
	seed := fs.Int64("seed", 1, "synthetic fleet: base trace seed (device i uses seed+i)")
	packets := fs.Int("packets", 200, "synthetic fleet: packets injected per device")
	passes := fs.String("passes", "", "comma-separated pass schedule for every device (empty = default order)")
	deviceParallelism := fs.Int("device-parallelism", 0, "devices optimized concurrently (0 = all CPUs)")
	wait := fs.Bool("wait", false, "wait until the fleet finishes and print the aggregated report")
	poll := fs.Duration("poll", 200*time.Millisecond, "with -wait: pause before re-asking a server that answered early (draining, mid-takeover, or too old to hold the request)")
	waitTimeout := fs.Duration("wait-timeout", 30*time.Minute, "give up on -wait after this long (0 = wait forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec fleet.Spec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("parse fleet spec %s: %w", *specFile, err)
		}
	} else {
		spec = fleet.Synthetic(*workload, *devices, *seed, *packets)
	}
	if p := splitPasses(*passes); p != nil {
		spec.Passes = p
	}
	if *deviceParallelism > 0 {
		spec.DeviceParallelism = *deviceParallelism
	}
	client := sf.client()
	st, err := client.SubmitFleet(spec)
	if err != nil {
		return err
	}
	if !*wait {
		return printStatus(st)
	}
	if st, err = client.AwaitFleet(st.ID, *poll, *waitTimeout); err != nil {
		return err
	}
	if err := printStatus(st); err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("fleet job %s %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

// cmdFleetStatus prints one fleet job's status (the aggregated
// FleetResult attached once done), asking every configured replica.
func cmdFleetStatus(args []string) error {
	fs := flag.NewFlagSet("fleet status", flag.ContinueOnError)
	sf := addServerFlags(fs)
	id := fs.String("id", "", "fleet job ID (from 'p2go fleet submit')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	st, err := sf.client().Fleet(*id)
	if err != nil {
		return err
	}
	return printStatus(st)
}

// cmdFleetJobs lists fleet jobs merged across the replica set.
func cmdFleetJobs(args []string) error {
	fs := flag.NewFlagSet("fleet jobs", flag.ContinueOnError)
	sf := addServerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sts, err := sf.client().Fleets()
	if err != nil {
		return err
	}
	if sts == nil {
		sts = []service.JobStatus{}
	}
	data, err := json.MarshalIndent(sts, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
