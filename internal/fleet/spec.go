// Package fleet is the network-wide optimization subsystem: it takes a
// serializable description of a whole deployment — devices, links, and
// traffic injections — collects each device's observed trace in-network,
// fans per-device P2GO runs across a bounded worker pool, and aggregates
// a fleet-level result with per-device error attribution instead of
// fail-fast.
//
// The paper's §6 poses network-wide compilation as future work; this
// package is the per-device baseline that question starts from (replay a
// network trace through internal/network, optimize every device with what
// it saw), in a production job shape: one content-addressed
// core.AnalysisCache is threaded across every device in a fleet, so
// fleets where most devices run the same program with different rules
// and traffic — the common case in a real deployment — dedup compiles
// and profiles massively. p2god exposes it as the POST /fleets job type;
// the spec here is exactly that endpoint's request body.
package fleet

import (
	"fmt"
	"strings"

	"p2go/internal/cache"
	"p2go/internal/core"
	"p2go/internal/programs"
	"p2go/internal/workloads"
)

// HopSpec names an attachment point: a device and one of its ports.
type HopSpec struct {
	Device string `json:"device"`
	Port   uint64 `json:"port"`
}

// LinkSpec wires an egress port of one device to an ingress port of
// another.
type LinkSpec struct {
	From HopSpec `json:"from"`
	To   HopSpec `json:"to"`
}

// DeviceSpec is one switch in the fleet. The program and rules come from
// the named workload; Program/Rules override them inline (mirroring the
// single-job JobSpec fields).
type DeviceSpec struct {
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	// Program, when set, is inline P4_14 source overriding the workload's
	// program.
	Program string `json:"program,omitempty"`
	// Rules, when set, is an inline runtime configuration overriding the
	// workload's rules.
	Rules string `json:"rules,omitempty"`
}

// InjectionSpec is one stream of traffic entering the network: the named
// workload's generated trace, injected packet-by-packet at the device
// (each packet enters on its own recorded port).
type InjectionSpec struct {
	Device   string `json:"device"`
	Workload string `json:"workload"`
	// Seed drives the workload's trace generator; 0 defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// Count caps how many trace packets are injected; 0 means the whole
	// trace. Only the packets injected are generated, so Count also bounds
	// what the injection costs.
	Count int `json:"count,omitempty"`
}

// Spec is a fleet optimization job: the topology, the traffic, and the
// per-device optimization configuration. It is the POST /fleets request
// body.
type Spec struct {
	// Name labels the fleet in reports; cosmetic but part of the job
	// digest.
	Name    string       `json:"name,omitempty"`
	Devices []DeviceSpec `json:"devices"`
	Links   []LinkSpec   `json:"links,omitempty"`
	// Injections drive trace collection; every device optimizes against
	// the traffic that actually reached it.
	Injections []InjectionSpec `json:"injections"`
	// Passes schedules the optimization passes for every device (IDs from
	// core.Passes()); empty means the default schedule.
	Passes []string `json:"passes,omitempty"`
	// DeviceParallelism bounds how many devices optimize concurrently;
	// 0 means one worker per CPU. Not part of any digest: results are
	// fan-out independent.
	DeviceParallelism int `json:"device_parallelism,omitempty"`
	// Parallelism is each device run's inner worker count (replay shards,
	// candidate probes); 0 means the runner's default. Not part of any
	// digest.
	Parallelism int `json:"parallelism,omitempty"`
}

// What one fleet job may ask for. A spec is outside input (the POST /fleets
// body) and a few hundred bytes of it can name gigabytes of traffic, so the
// request-size cap alone does not bound a job: these do, before anything is
// parsed or generated. The packet budget counts what would be generated —
// an injection's Count, or its workload's whole trace for Count 0 or a Count
// beyond it — at roughly 200 bytes of trace, injection and per-device copy
// each.
const (
	maxFleetDevices    = 4096
	maxFleetInjections = 16384
	maxFleetPackets    = 4 << 20
)

// Validate checks the spec cheaply (no parsing, no generation): within the
// size caps above, device names unique, workloads registered, links and
// injections referencing known devices, pass IDs valid. The expensive
// program parsing happens in Run.
func (s *Spec) Validate() error {
	if len(s.Devices) == 0 {
		return fmt.Errorf("fleet: no devices")
	}
	if len(s.Devices) > maxFleetDevices {
		return fmt.Errorf("fleet: %d devices, at most %d per fleet", len(s.Devices), maxFleetDevices)
	}
	if len(s.Injections) > maxFleetInjections {
		return fmt.Errorf("fleet: %d injections, at most %d per fleet", len(s.Injections), maxFleetInjections)
	}
	seen := map[string]bool{}
	for i, d := range s.Devices {
		if d.Name == "" {
			return fmt.Errorf("fleet: device %d has no name", i)
		}
		if seen[d.Name] {
			return fmt.Errorf("fleet: duplicate device %q", d.Name)
		}
		seen[d.Name] = true
		if d.Workload == "" && d.Program == "" {
			return fmt.Errorf("fleet: device %q has neither a workload nor an inline program", d.Name)
		}
		if d.Workload != "" {
			if _, err := workloads.Get(d.Workload); err != nil {
				return fmt.Errorf("fleet: device %q: %w", d.Name, err)
			}
		}
	}
	for _, l := range s.Links {
		if !seen[l.From.Device] {
			return fmt.Errorf("fleet: link from unknown device %q", l.From.Device)
		}
		if !seen[l.To.Device] {
			return fmt.Errorf("fleet: link to unknown device %q", l.To.Device)
		}
	}
	if len(s.Injections) == 0 {
		return fmt.Errorf("fleet: no injections (every device would be skipped with an empty trace)")
	}
	packets := 0
	for i, inj := range s.Injections {
		if !seen[inj.Device] {
			return fmt.Errorf("fleet: injection %d at unknown device %q", i, inj.Device)
		}
		w, err := workloads.Get(inj.Workload)
		if err != nil {
			return fmt.Errorf("fleet: injection %d: %w", i, err)
		}
		if inj.Count < 0 {
			return fmt.Errorf("fleet: injection %d: negative count", i)
		}
		if inj.Count == 0 || inj.Count > w.Packets {
			packets += w.Packets
		} else {
			packets += inj.Count
		}
	}
	if packets > maxFleetPackets {
		return fmt.Errorf("fleet: injections name %d packets, at most %d per fleet (set count to what each device needs)",
			packets, maxFleetPackets)
	}
	if len(s.Passes) == 0 {
		s.Passes = nil // JSON cannot distinguish [] from absent
	}
	if err := core.ValidatePasses(s.Passes); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if s.DeviceParallelism < 0 || s.Parallelism < 0 {
		return fmt.Errorf("fleet: negative parallelism")
	}
	return nil
}

// Fingerprint content-addresses the fleet job: two specs with the same
// fingerprint produce the same fleet artifact. The parallelism knobs are
// deliberately excluded — results are fan-out independent.
func (s Spec) Fingerprint() string {
	parts := []string{"fleet", s.Name}
	for _, d := range s.Devices {
		parts = append(parts, "dev", d.Name, d.Workload, d.Program, d.Rules)
	}
	for _, l := range s.Links {
		parts = append(parts, "link",
			fmt.Sprintf("%s/%d>%s/%d", l.From.Device, l.From.Port, l.To.Device, l.To.Port))
	}
	for _, inj := range s.Injections {
		parts = append(parts, "inj",
			fmt.Sprintf("%s/%s/%d/%d", inj.Device, inj.Workload, inj.Seed, inj.Count))
	}
	parts = append(parts, "passes", strings.Join(s.Passes, ","))
	return cache.Digest(parts...)
}

// Enterprise builds the §6 demonstrator: the Ex. 1 edge firewall, whose
// three routed ports all link to a core router, fed Ex. 1's enterprise
// trace (the given seed) at the edge. The core optimizes against only what
// the firewall forwarded; at seed 1 the fleet goes from 9 to 4 stages.
func Enterprise(seed int64) Spec {
	s := Spec{
		Name: "enterprise",
		Devices: []DeviceSpec{
			{Name: "edge", Workload: "ex1"},
			{Name: "corert", Program: programs.CoreRouter, Rules: programs.CoreRouterRulesText},
		},
		Injections: []InjectionSpec{{Device: "edge", Workload: "ex1", Seed: seed}},
	}
	for _, port := range []uint64{3, 4, 5} {
		s.Links = append(s.Links, LinkSpec{From: HopSpec{Device: "edge", Port: port}, To: HopSpec{Device: "corert", Port: 1}})
	}
	return s
}

// Synthetic builds an n-device fleet of disconnected switches all running
// the named workload, each injected with its own trace (seed, seed+1,
// ...) capped at packets per device — the homogeneous-fleet shape where
// the shared analysis cache dedups compiles massively, used by the
// `cmd/experiments -fleet` load test and `p2go fleet submit -devices N`.
func Synthetic(workload string, n int, seed int64, packets int) Spec {
	s := Spec{Name: fmt.Sprintf("synthetic-%s-%d", workload, n)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sw-%04d", i)
		s.Devices = append(s.Devices, DeviceSpec{Name: name, Workload: workload})
		s.Injections = append(s.Injections, InjectionSpec{
			Device:   name,
			Workload: workload,
			Seed:     seed + int64(i),
			Count:    packets,
		})
	}
	return s
}
