// Package network simulates several programmable switches connected by
// links — the setting of the paper's third future-work direction (§6,
// "Network-wide compilation"). It follows injected packets across the
// topology and records, per device, the traffic that device actually saw.
//
// The paper notes that "for individual devices, these inputs can be
// recorded with relative ease" and poses network-wide optimization as an
// open research question; the per-device traces recorded here are the
// baseline that question starts from. internal/fleet optimizes every
// device with its own trace.
package network

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"p2go/internal/faults"
	"p2go/internal/p4"
	"p2go/internal/pool"
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

// Topology is a set of devices plus unidirectional links from a device's
// egress port to another device's ingress port. An egress port with no
// link leaves the network.
type Topology struct {
	// devices names each device's plan. Its level is fate until a link
	// leaves the device: nobody reads the bytes of a packet that exits.
	devices map[string]planKey
	plans   map[planKey]*sim.Plan // one per distinct (program, rules, level)
	links   map[Hop]Hop
	faults  *faults.Set
	workers int
}

type planKey struct {
	prog  *p4.Program
	cfg   *rt.Config
	level sim.Observation
}

// SetFaults installs a fault-injection set; firing faults.SimStep fails a
// device step as if its data plane errored. nil (the default) is inert.
func (t *Topology) SetFaults(set *faults.Set) { t.faults = set }

// SetParallelism bounds how many connected components CollectDeviceTraces
// replays at once; 0 (the default) means one per CPU.
func (t *Topology) SetParallelism(workers int) { t.workers = workers }

// NewTopology builds an empty topology.
func NewTopology() *Topology {
	return &Topology{devices: map[string]planKey{}, plans: map[planKey]*sim.Plan{}, links: map[Hop]Hop{}}
}

// AddDevice validates a device's program and rules and registers it.
// Devices added with the same program and config share their execution
// plans: a fleet of one program lowers it once, not once per device.
func (t *Topology) AddDevice(name string, prog *p4.Program, cfg *rt.Config) error {
	if _, ok := t.devices[name]; ok {
		return fmt.Errorf("network: duplicate device %q", name)
	}
	key := planKey{prog, cfg, sim.ObserveFate}
	if err := t.lower(key); err != nil {
		return fmt.Errorf("network: device %s: %w", name, err)
	}
	t.devices[name] = key
	return nil
}

// lower builds the plan under key unless the topology has it already.
func (t *Topology) lower(key planKey) error {
	if t.plans[key] != nil {
		return nil
	}
	pl, err := sim.NewPlanFromAST(key.prog, key.cfg, sim.Options{Observe: key.level})
	if err == nil {
		t.plans[key] = pl
	}
	return err
}

// Plan returns the plan the named device's switches boot from (nil if
// there is no such device).
func (t *Topology) Plan(name string) *sim.Plan { return t.plans[t.devices[name]] }

// Link wires an egress port of one device to an ingress port of another.
// The upstream device's switches now boot from its packet plan.
func (t *Topology) Link(from Hop, to Hop) error {
	key, ok := t.devices[from.Device]
	if !ok {
		return fmt.Errorf("network: unknown device %q", from.Device)
	}
	if _, ok := t.devices[to.Device]; !ok {
		return fmt.Errorf("network: unknown device %q", to.Device)
	}
	if _, dup := t.links[from]; dup {
		return fmt.Errorf("network: port %d of %s already linked", from.Port, from.Device)
	}
	key.level = sim.ObservePacket
	if err := t.lower(key); err != nil {
		return fmt.Errorf("network: device %s: %w", from.Device, err)
	}
	t.devices[from.Device] = key
	t.links[from] = to
	return nil
}

// maxHops bounds forwarding loops.
const maxHops = 16

var (
	errUnknownDevice = errors.New("unknown device")
	errLoop          = fmt.Errorf("packet exceeded %d hops (forwarding loop?)", maxHops)
)

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
// to a controller. Like a collection, it runs on switches booted for it, so
// no register or counter state carries over from one Inject to the next.
func (t *Topology) Inject(at Hop, data []byte) (*Journey, error) {
	j := &Journey{}
	sws := map[string]*sim.Switch{}
	defer release(sws)
	if err := t.walk(at, data, sws, nil, j); err != nil {
		return nil, err
	}
	return j, nil
}

// release hands booted switches' register memory back for reuse.
func release(sws map[string]*sim.Switch) {
	for _, sw := range sws {
		sw.Release()
	}
}

// walk is the one forwarding loop under Inject and CollectDeviceTraces. It
// follows a packet from at across links until it exits, is dropped, or is
// redirected to a controller, running each device's switch in sws and
// booting the ones not there yet. arrive, when non-nil, sees the packet as
// each device receives it; j, when non-nil, records the journey. A failure
// names the device it happened on.
func (t *Topology) walk(at Hop, payload []byte, sws map[string]*sim.Switch, arrive func(Hop, []byte), j *Journey) *DeviceError {
	cur := at
	for hop := 0; ; hop++ {
		if hop >= maxHops {
			return &DeviceError{Device: cur.Device, Injection: -1, Err: errLoop}
		}
		key, ok := t.devices[cur.Device]
		if !ok {
			return &DeviceError{Device: cur.Device, Injection: -1, Err: errUnknownDevice}
		}
		sw := sws[cur.Device]
		if sw == nil {
			sw = sim.NewFromPlan(t.plans[key])
			sws[cur.Device] = sw
		}
		if arrive != nil {
			arrive(cur, payload)
		}
		if err := t.faults.Err(faults.SimStep); err != nil {
			return &DeviceError{Device: cur.Device, Injection: -1, Err: err}
		}
		out, err := sw.Process(sim.Input{Port: cur.Port, Data: payload})
		if err != nil {
			return &DeviceError{Device: cur.Device, Injection: -1, Err: err}
		}
		if j != nil {
			j.Steps = append(j.Steps, Step{Device: cur.Device, Ingress: cur.Port, Egress: out.Port,
				Dropped: out.Dropped, ToCPU: out.ToCPU})
		}
		if out.Dropped || out.ToCPU {
			if j != nil {
				j.Dropped, j.ToCPU = out.Dropped, !out.Dropped
			}
			return nil
		}
		payload = out.Data
		next, linked := t.links[Hop{Device: cur.Device, Port: out.Port}]
		if !linked {
			if j != nil {
				j.Exit = &Hop{Device: cur.Device, Port: out.Port}
			}
			return nil
		}
		cur = next
	}
}

// Injection is one packet entering the network.
type Injection struct {
	At   Hop
	Data []byte
}

// CollectDeviceTraces replays the injections through the topology, from
// fresh switch state so collection is reproducible, and records per device
// the traffic it actually saw — the representative per-device traces P2GO
// needs ("the network programmer has access to the device of interest").
// Every device gets a trace, empty if nothing reached it.
//
// No packet crosses between connected components, so each replays its own
// injections in injection order, on switches it boots and releases, and
// components run concurrently (see SetParallelism). Under a fault set, whose
// events count in global order, the topology is one component.
//
// A device failure abandons the rest of that injection's path and is
// returned, in injection order, as a *DeviceError naming the device and the
// injection; collection goes on with the next injection. The traces hold
// everything the healthy part of the network saw, and a fleet run attributes
// the errors per device instead of throwing the whole collection away.
func (t *Topology) CollectDeviceTraces(injections []Injection) (map[string]*trafficgen.Trace, []*DeviceError) {
	traces := make(map[string]*trafficgen.Trace, len(t.devices))
	for name := range t.devices {
		traces[name] = &trafficgen.Trace{}
	}
	// Process never writes its input, so the one copy is the trace's own.
	record := func(at Hop, payload []byte) {
		tr := traces[at.Device]
		tr.Packets = append(tr.Packets, trafficgen.Packet{Port: at.Port, Data: append([]byte(nil), payload...)})
	}
	groups := t.components(injections)
	failed := make([]*DeviceError, len(injections))
	// Nothing cancels a collection and no component fails it: the pool
	// cannot return an error.
	_ = pool.ForEachIndexed(context.TODO(), len(groups), t.workers, func(g int) error {
		sws := map[string]*sim.Switch{}
		for _, i := range groups[g] {
			if err := t.walk(injections[i].At, injections[i].Data, sws, record, nil); err != nil {
				err.Injection = i
				failed[i] = err
			}
		}
		release(sws)
		return nil
	})
	return traces, slices.DeleteFunc(failed, func(err *DeviceError) bool { return err == nil })
}

// components groups the injection indexes by the connected component of the
// device they enter at, in injection order; under a fault set, all in one.
func (t *Topology) components(injections []Injection) [][]int {
	parent := map[string]string{}
	root := func(d string) string {
		for p, ok := parent[d]; ok; p, ok = parent[d] {
			d = p
		}
		return d
	}
	for from, to := range t.links {
		if a, b := root(from.Device), root(to.Device); a != b {
			parent[a] = b
		}
	}
	groups := map[string][]int{}
	for i, inj := range injections {
		key := ""
		if t.faults == nil {
			key = root(inj.At.Device)
		}
		groups[key] = append(groups[key], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}
