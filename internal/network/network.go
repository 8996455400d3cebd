// Package network is a demonstrator for the paper's third future-work
// direction (§6, "Network-wide compilation"): several programmable
// switches connected by links, a network-level traffic injection, and
// per-device trace collection feeding per-device P2GO runs.
//
// The paper notes that "for individual devices, these inputs can be
// recorded with relative ease" and poses network-wide optimization as an
// open research question; this package implements the per-device baseline
// that question starts from: replay a network trace through the topology,
// record what each device actually sees, and optimize every device with
// its own representative trace.
package network

import (
	"errors"
	"fmt"
	"sort"

	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// DeviceError names the device whose data plane failed mid-replay, so a
// fleet-wide error is attributable instead of surfacing as a bare
// simulator error (or, worse, zero-valued traces).
type DeviceError struct {
	// Device is the failing device's name.
	Device string
	// Injection is the index of the injection being replayed, or -1 when
	// the failure was not tied to one.
	Injection int
	// Err is the underlying simulator error.
	Err error
}

func (e *DeviceError) Error() string {
	if e.Injection >= 0 {
		return fmt.Sprintf("network: device %s (injection %d): %v", e.Device, e.Injection, e.Err)
	}
	return fmt.Sprintf("network: device %s: %v", e.Device, e.Err)
}

func (e *DeviceError) Unwrap() error { return e.Err }

// Hop identifies an attachment point: a device and one of its ports.
type Hop struct {
	Device string
	Port   uint64
}

// Device is one programmable switch.
type Device struct {
	Name    string
	Program *p4.Program
	Config  *rt.Config

	sw *sim.Switch
}

// Topology is a set of devices plus unidirectional links from a device's
// egress port to another device's ingress port. An egress port with no
// link leaves the network.
type Topology struct {
	devices map[string]*Device
	links   map[Hop]Hop
	faults  *faults.Set
}

// SetFaults installs a fault-injection set; firing faults.SimStep fails a
// device step as if its data plane errored. nil (the default) is inert.
func (t *Topology) SetFaults(set *faults.Set) { t.faults = set }

// NewTopology builds an empty topology.
func NewTopology() *Topology {
	return &Topology{devices: map[string]*Device{}, links: map[Hop]Hop{}}
}

// AddDevice boots a device's data plane and registers it.
func (t *Topology) AddDevice(name string, prog *p4.Program, cfg *rt.Config) error {
	if _, ok := t.devices[name]; ok {
		return fmt.Errorf("network: duplicate device %q", name)
	}
	sw, err := sim.NewFromAST(prog, cfg, sim.Options{})
	if err != nil {
		return fmt.Errorf("network: device %s: %w", name, err)
	}
	t.devices[name] = &Device{Name: name, Program: prog, Config: cfg, sw: sw}
	return nil
}

// Link wires an egress port of one device to an ingress port of another.
func (t *Topology) Link(from Hop, to Hop) error {
	if _, ok := t.devices[from.Device]; !ok {
		return fmt.Errorf("network: unknown device %q", from.Device)
	}
	if _, ok := t.devices[to.Device]; !ok {
		return fmt.Errorf("network: unknown device %q", to.Device)
	}
	if _, dup := t.links[from]; dup {
		return fmt.Errorf("network: port %d of %s already linked", from.Port, from.Device)
	}
	t.links[from] = to
	return nil
}

// Devices lists the registered device names, sorted.
func (t *Topology) Devices() []string {
	var out []string
	for n := range t.devices {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// maxHops bounds forwarding loops.
const maxHops = 16

// Step is one device traversal of a packet's journey.
type Step struct {
	Device  string
	Ingress uint64
	Egress  uint64
	Dropped bool
	ToCPU   bool
}

// Journey is the full path of one injected packet.
type Journey struct {
	Steps []Step
	// Final reports how the packet left the network.
	Dropped bool
	ToCPU   bool
	Exit    *Hop // nil when dropped/redirected; else the egress attachment
}

// Inject sends one packet into the network at the given attachment point
// and follows it across links until it exits, is dropped, or is redirected
// to a controller.
func (t *Topology) Inject(at Hop, data []byte) (*Journey, error) {
	j := &Journey{}
	cur := at
	payload := append([]byte(nil), data...)
	for hop := 0; ; hop++ {
		if hop >= maxHops {
			return nil, fmt.Errorf("network: packet exceeded %d hops (forwarding loop?)", maxHops)
		}
		dev, ok := t.devices[cur.Device]
		if !ok {
			return nil, fmt.Errorf("network: unknown device %q", cur.Device)
		}
		if ferr := t.faults.Err(faults.SimStep); ferr != nil {
			return nil, &DeviceError{Device: cur.Device, Injection: -1, Err: ferr}
		}
		out, err := dev.sw.Process(sim.Input{Port: cur.Port, Data: payload})
		if err != nil {
			return nil, &DeviceError{Device: cur.Device, Injection: -1, Err: err}
		}
		step := Step{Device: cur.Device, Ingress: cur.Port, Egress: out.Port,
			Dropped: out.Dropped, ToCPU: out.ToCPU}
		j.Steps = append(j.Steps, step)
		if out.Dropped {
			j.Dropped = true
			return j, nil
		}
		if out.ToCPU {
			j.ToCPU = true
			return j, nil
		}
		payload = out.Data
		next, linked := t.links[Hop{Device: cur.Device, Port: out.Port}]
		if !linked {
			exit := Hop{Device: cur.Device, Port: out.Port}
			j.Exit = &exit
			return j, nil
		}
		cur = next
	}
}

// Injection is one packet entering the network.
type Injection struct {
	At   Hop
	Data []byte
}

// CollectDeviceTraces replays the injections through the topology and
// records, per device, the traffic it actually saw — the representative
// per-device traces P2GO needs ("the network programmer has access to the
// device of interest"). It fails fast on the first device error; fleet
// runs that want to keep going use CollectDeviceTracesPartial.
func (t *Topology) CollectDeviceTraces(injections []Injection) (map[string]*trafficgen.Trace, error) {
	traces, errs := t.CollectDeviceTracesPartial(injections)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return traces, nil
}

// CollectDeviceTracesPartial replays the injections and keeps going past
// device failures: a step error abandons that injection's remaining path,
// is recorded as a typed *DeviceError naming the device, and collection
// continues with the next injection. The returned traces hold everything
// the healthy part of the network saw; a fleet run attributes the errors
// per device instead of throwing the whole collection away.
func (t *Topology) CollectDeviceTracesPartial(injections []Injection) (map[string]*trafficgen.Trace, []*DeviceError) {
	// Fresh switch state so collection is reproducible.
	for _, d := range t.devices {
		d.sw.Reset()
	}
	traces := map[string]*trafficgen.Trace{}
	for name := range t.devices {
		traces[name] = &trafficgen.Trace{}
	}
	var devErrs []*DeviceError
	for i, inj := range injections {
		cur := inj.At
		payload := append([]byte(nil), inj.Data...)
		for hop := 0; ; hop++ {
			if hop >= maxHops {
				devErrs = append(devErrs, &DeviceError{Device: cur.Device, Injection: i,
					Err: fmt.Errorf("network: injection %d exceeded %d hops (forwarding loop?)", i, maxHops)})
				break
			}
			dev := t.devices[cur.Device]
			if dev == nil {
				devErrs = append(devErrs, &DeviceError{Device: cur.Device, Injection: i,
					Err: fmt.Errorf("network: unknown device %q", cur.Device)})
				break
			}
			traces[cur.Device].Packets = append(traces[cur.Device].Packets,
				trafficgen.Packet{Port: cur.Port, Data: append([]byte(nil), payload...)})
			if ferr := t.faults.Err(faults.SimStep); ferr != nil {
				devErrs = append(devErrs, &DeviceError{Device: cur.Device, Injection: i, Err: ferr})
				break
			}
			out, err := dev.sw.Process(sim.Input{Port: cur.Port, Data: payload})
			if err != nil {
				devErrs = append(devErrs, &DeviceError{Device: cur.Device, Injection: i, Err: err})
				break
			}
			if out.Dropped || out.ToCPU {
				break
			}
			payload = out.Data
			next, linked := t.links[Hop{Device: cur.Device, Port: out.Port}]
			if !linked {
				break
			}
			cur = next
		}
	}
	return traces, devErrs
}

// DeviceResult is one device's optimization outcome.
type DeviceResult struct {
	Device string
	Result *core.Result
}

// SkippedDevice is a device the fleet run deliberately did not optimize,
// with the reason why.
type SkippedDevice struct {
	Device string
	Reason string
}

// FleetReport aggregates per-device optimizations. Every registered
// device lands in exactly one of the three lists: Results (optimized),
// Skipped (not optimizable, with a reason), or Errors (its collection or
// optimization failed, attributed via *DeviceError).
type FleetReport struct {
	Results []DeviceResult
	Skipped []SkippedDevice
	Errors  []*DeviceError
}

// Err joins the per-device errors into one error, nil when every device
// succeeded or was skipped. Callers that want the historical fail-on-any
// behavior check this; callers that want partial results read Errors.
func (f *FleetReport) Err() error {
	if len(f.Errors) == 0 {
		return nil
	}
	errs := make([]error, len(f.Errors))
	for i, e := range f.Errors {
		errs[i] = e
	}
	return errors.Join(errs...)
}

// TotalStagesBefore sums the fleet's initial stage counts.
func (f *FleetReport) TotalStagesBefore() int {
	n := 0
	for _, r := range f.Results {
		n += r.Result.StagesBefore()
	}
	return n
}

// TotalStagesAfter sums the fleet's optimized stage counts.
func (f *FleetReport) TotalStagesAfter() int {
	n := 0
	for _, r := range f.Results {
		n += r.Result.StagesAfter()
	}
	return n
}

// OptimizeAll runs P2GO independently on every device using its collected
// trace — the per-device baseline the paper's network-wide research
// question starts from. It never fails fast on a single device: devices
// whose collection or optimization errored are attributed in
// FleetReport.Errors (typed *DeviceError), devices whose trace is empty
// are recorded in FleetReport.Skipped with the reason (P2GO needs a
// representative trace), and every successfully optimized device keeps
// its result in FleetReport.Results. The error return is reserved for
// fleet-level problems; per-device failures live in the report (join
// them with FleetReport.Err if failure should be fatal).
func (t *Topology) OptimizeAll(injections []Injection, opts core.Options) (*FleetReport, error) {
	traces, devErrs := t.CollectDeviceTracesPartial(injections)
	report := &FleetReport{}
	// A device whose data plane errored mid-collection saw a trace that
	// under-represents its real traffic; attribute the error instead of
	// optimizing against bad evidence.
	failed := map[string]bool{}
	for _, e := range devErrs {
		report.Errors = append(report.Errors, e)
		failed[e.Device] = true
	}
	for _, name := range t.Devices() {
		if failed[name] {
			continue
		}
		dev := t.devices[name]
		trace := traces[name]
		if len(trace.Packets) == 0 {
			report.Skipped = append(report.Skipped, SkippedDevice{
				Device: name,
				Reason: "no packets reached the device (empty trace; P2GO needs a representative trace)",
			})
			continue
		}
		res, err := core.New(opts).Optimize(dev.Program, dev.Config, trace)
		if err != nil {
			report.Errors = append(report.Errors, &DeviceError{Device: name, Injection: -1,
				Err: fmt.Errorf("optimize: %w", err)})
			continue
		}
		report.Results = append(report.Results, DeviceResult{Device: name, Result: res})
	}
	return report, nil
}
