package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"p2go/internal/cache"
	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/network"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/pool"
	"p2go/internal/report"
	"p2go/internal/rt"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// skipEmptyTrace is the recorded reason for devices no traffic reached.
const skipEmptyTrace = "no packets reached the device (empty trace; P2GO needs a representative trace)"

// DeviceCache stores finished per-device rows across fleet runs, keyed by
// a content digest of the device's inputs (program, rules, observed
// trace, pass schedule, target). p2god plugs in its memory LRU and a
// per-job checkpoint file, which is what lets a fleet job killed mid-run
// recompute only the devices that had not finished. Implementations must
// be safe for concurrent use; Get returning false means "compute it".
type DeviceCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// Options configures a fleet run.
type Options struct {
	// Core is the per-device optimization template: target, hooks,
	// thresholds, context. The fleet runner copies it per device and
	// overrides Passes/Parallelism from the spec. Core.AnalysisCache is
	// shared across every device in the fleet — the core of the
	// network-wide story: a homogeneous fleet of N same-program devices
	// compiles far fewer than N times. nil means a fresh cache per fleet
	// (still shared across the fleet's devices, just not across fleets).
	Core core.Options
	// DeviceCache, when non-nil, serves and stores whole per-device rows
	// across runs (see DeviceCache). Only optimized rows are stored —
	// failures are always recomputed.
	DeviceCache DeviceCache
	// OnDevice, when non-nil, is called once per finished device row, in
	// completion order — the journal/metrics progress hook. It must be
	// safe for concurrent use; rows run on the device fan-out workers.
	OnDevice func(report.FleetDevice)
	// Faults injects failures into trace collection (faults.SimStep).
	Faults *faults.Set
}

// resolvedDevice is a DeviceSpec with its program parsed and rules
// loaded, plus the canonical printed forms the device digest uses.
type resolvedDevice struct {
	spec    DeviceSpec
	prog    *p4.Program
	cfg     *rt.Config
	printed string // canonical program text
	rules   string // canonical rules text
	// tuneTable is the device workload's tune-pass accuracy table ("" without
	// one), as a single job of that workload would run it.
	tuneTable string
}

// Run executes the fleet job: collect each device's observed trace by
// replaying the injections through the topology, fan per-device P2GO
// runs across a bounded pool sharing one analysis cache, and aggregate
// the per-device rows into a fleet-level result. Per-device failures are
// attributed in their row (Status "failed") and never abort the fleet;
// the error return is reserved for fleet-level problems — an invalid
// spec, an unbuildable topology, or context cancellation.
func Run(ctx context.Context, spec Spec, opts Options) (*report.FleetResult, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	ctx, root := obs.Start(ctx, "fleet",
		obs.String("fleet.name", spec.Name),
		obs.Int("fleet.devices", len(spec.Devices)),
		obs.Int("fleet.injections", len(spec.Injections)))
	defer root.End()

	devices, topo, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	topo.SetFaults(opts.Faults)
	topo.SetParallelism(spec.DeviceParallelism)

	injections, err := BuildInjections(ctx, spec)
	if err != nil {
		return nil, err
	}

	_, collectSpan := obs.Start(ctx, "fleet.collect",
		obs.Int("packets", len(injections)))
	traces, devErrs := topo.CollectDeviceTraces(injections)
	collectSpan.SetAttr(obs.Int("device_errors", len(devErrs)))
	collectSpan.End()

	// A device whose data plane errored mid-collection saw a trace that
	// under-represents its traffic; fail its row instead of optimizing
	// against bad evidence. Several errors on one device join into one
	// row.
	collectFailed := map[string][]string{}
	for _, e := range devErrs {
		collectFailed[e.Device] = append(collectFailed[e.Device], e.Error())
	}

	if opts.Core.AnalysisCache == nil {
		opts.Core.AnalysisCache = core.NewAnalysisCache()
	}

	rows := make([]report.FleetDevice, len(devices))
	runErr := pool.ForEachIndexed(ctx, len(devices), spec.DeviceParallelism, func(i int) error {
		dev := devices[i]
		trace := traces[dev.spec.Name]
		row, err := runDevice(ctx, spec, opts, dev, trace, collectFailed[dev.spec.Name])
		if err != nil {
			return err
		}
		rows[i] = row
		if opts.OnDevice != nil {
			opts.OnDevice(row)
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}

	out := report.AggregateFleet(spec.Name, rows)
	// The fleet's lookups are its own devices' pass rows. The shared cache's
	// counters cannot say: on a daemon-wide cache they move with every
	// concurrent job. A cached row's passes are the lookups of the run that
	// computed it, not of this one.
	for _, row := range rows {
		if row.Cached || row.Result == nil {
			continue
		}
		for _, ps := range row.Result.Passes {
			out.CompileHits += ps.CompileHits
			out.CompileMisses += ps.CompileMisses
			out.ProfileHits += ps.ProfileHits
			out.ProfileMisses += ps.ProfileMisses
		}
	}
	out.DurationSeconds = time.Since(start).Seconds()
	root.SetAttr(
		obs.Int("fleet.optimized", out.Optimized),
		obs.Int("fleet.skipped", out.Skipped),
		obs.Int("fleet.failed", out.Failed),
		obs.Int("fleet.stages_before", out.StagesBefore),
		obs.Int("fleet.stages_after", out.StagesAfter),
		obs.Int("fleet.compile_hits", out.CompileHits),
		obs.Int("fleet.compile_misses", out.CompileMisses))
	return out, nil
}

// runDevice produces one device's row: failed (collection errors),
// skipped (empty trace), cached (device-cache hit), or optimized (a
// fresh P2GO run against the device's observed trace). The error return
// aborts the whole fleet and is reserved for context cancellation —
// every per-device failure becomes a row instead.
func runDevice(ctx context.Context, spec Spec, opts Options,
	dev resolvedDevice, trace *trafficgen.Trace, collectErrs []string) (report.FleetDevice, error) {
	name := dev.spec.Name
	packets := 0
	if trace != nil {
		packets = len(trace.Packets)
	}
	devCtx, span := obs.Start(ctx, "fleet.device", obs.String("device", name))
	defer span.End()

	if len(collectErrs) > 0 {
		span.SetAttr(obs.String("status", report.FleetFailed))
		return report.FleetDevice{
			Device:  name,
			Status:  report.FleetFailed,
			Error:   strings.Join(collectErrs, "; "),
			Packets: packets,
		}, nil
	}
	if packets == 0 {
		span.SetAttr(obs.String("status", report.FleetSkipped))
		return report.FleetDevice{
			Device: name,
			Status: report.FleetSkipped,
			Reason: skipEmptyTrace,
		}, nil
	}

	devOpts := opts.Core
	if spec.Passes != nil {
		devOpts.Passes = spec.Passes
	}
	if spec.Parallelism > 0 {
		devOpts.Parallelism = spec.Parallelism
	}
	if dev.tuneTable != "" {
		devOpts.TuneAccuracyTable = dev.tuneTable
	}
	key := deviceKey(dev, trace, spec.Passes, devOpts)
	if opts.DeviceCache != nil {
		if data, ok := opts.DeviceCache.Get(key); ok {
			var row report.FleetDevice
			if err := json.Unmarshal(data, &row); err == nil && row.Status == report.FleetOptimized {
				row.Device = name
				row.Cached = true
				span.SetAttr(obs.String("status", row.Status), obs.Bool("cached", true))
				return row, nil
			}
			// A corrupt or mismatched entry falls through to recompute.
		}
	}

	res, err := core.Optimize(devCtx, dev.prog, dev.cfg, trace, devOpts)
	if err != nil {
		// Cancellation is fleet-level: stop fanning out instead of
		// recording every remaining device as failed.
		if ctx.Err() != nil {
			return report.FleetDevice{}, ctx.Err()
		}
		span.SetAttr(obs.String("status", report.FleetFailed))
		return report.FleetDevice{
			Device:  name,
			Status:  report.FleetFailed,
			Error:   fmt.Sprintf("optimize: %v", err),
			Packets: packets,
		}, nil
	}
	row := report.FleetDevice{
		Device:  name,
		Status:  report.FleetOptimized,
		Packets: packets,
		Result:  report.FromResult(dev.spec.Workload, 0, res),
	}
	span.SetAttr(obs.String("status", row.Status),
		obs.Int("stages_before", row.Result.StagesBefore),
		obs.Int("stages_after", row.Result.StagesAfter))
	if opts.DeviceCache != nil {
		if data, err := json.Marshal(row); err == nil {
			opts.DeviceCache.Put(key, data)
		}
	}
	return row, nil
}

// resolve parses every device's program, loads its rules, and builds the
// topology. Returned devices are in spec order (the row order of the
// result). Parsing, printing, rule formatting and lowering happen once per
// distinct (source, rules) pair, not once per device: devices that share a
// pair share its read-only AST and the topology's execution plans for it,
// while every device still gets a config of its own (an optimize run
// installs guard rules into its own).
func resolve(spec Spec) ([]resolvedDevice, *network.Topology, error) {
	topo := network.NewTopology()
	devices := make([]resolvedDevice, 0, len(spec.Devices))
	// Rules are inline text or, without any, the named workload's own.
	type pair struct{ src, rules, rulesOf string }
	resolved := map[pair]resolvedDevice{}
	for _, d := range spec.Devices {
		key := pair{src: d.Program, rules: d.Rules}
		var w workloads.Workload
		if d.Workload != "" {
			var err error
			if w, err = workloads.Get(d.Workload); err != nil {
				return nil, nil, fmt.Errorf("fleet: device %q: %w", d.Name, err)
			}
			if key.src == "" {
				key.src = w.Source
			}
			if key.rules == "" {
				key.rulesOf = d.Workload
			}
		}
		dev, ok := resolved[key]
		if !ok {
			switch {
			case d.Rules != "":
				parsed, err := rt.Parse(d.Rules)
				if err != nil {
					return nil, nil, fmt.Errorf("fleet: device %q rules: %w", d.Name, err)
				}
				dev.cfg = parsed
			case d.Workload != "":
				dev.cfg = w.Config()
			}
			var err error
			if dev.prog, err = p4.Parse(key.src); err != nil {
				return nil, nil, fmt.Errorf("fleet: device %q program: %w", d.Name, err)
			}
			dev.printed = p4.Print(dev.prog)
			if dev.cfg != nil {
				dev.rules = rt.Format(dev.cfg)
			}
			resolved[key] = dev
		}
		if err := topo.AddDevice(d.Name, dev.prog, dev.cfg); err != nil {
			return nil, nil, fmt.Errorf("fleet: %w", err)
		}
		dev.spec = d
		dev.tuneTable = w.TuneAccuracyTable
		if dev.cfg != nil {
			dev.cfg = dev.cfg.Clone()
		}
		devices = append(devices, dev)
	}
	for _, l := range spec.Links {
		if err := topo.Link(network.Hop{Device: l.From.Device, Port: l.From.Port},
			network.Hop{Device: l.To.Device, Port: l.To.Port}); err != nil {
			return nil, nil, fmt.Errorf("fleet: %w", err)
		}
	}
	return devices, topo, nil
}

// BuildInjections expands every injection spec into per-packet network
// injections: the first Count packets of the workload's trace (all of them
// for Count 0) entering at the named device on each packet's own recorded
// port. Only those packets are generated (workloads.TracePrefix), on the
// run's bounded pool; the streams are concatenated in spec order, so a
// linked topology sees the same interleaving whatever the parallelism.
func BuildInjections(ctx context.Context, spec Spec) ([]network.Injection, error) {
	streams := make([][]trafficgen.Packet, len(spec.Injections))
	err := pool.ForEachIndexed(ctx, len(spec.Injections), spec.DeviceParallelism, func(i int) error {
		inj := spec.Injections[i]
		w, err := workloads.Get(inj.Workload)
		if err != nil {
			return fmt.Errorf("fleet: injection %d: %w", i, err)
		}
		seed := inj.Seed
		if seed == 0 {
			seed = 1
		}
		trace, err := w.TracePrefix(seed, inj.Count)
		if err != nil {
			return fmt.Errorf("fleet: injection %d (%s): %w", i, inj.Workload, err)
		}
		streams[i] = trace.Packets
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, pkts := range streams {
		total += len(pkts)
	}
	out := make([]network.Injection, 0, total)
	for i, pkts := range streams {
		for _, pkt := range pkts {
			out = append(out, network.Injection{
				At:   network.Hop{Device: spec.Injections[i].Device, Port: pkt.Port},
				Data: pkt.Data,
			})
		}
	}
	return out, nil
}

// deviceKey content-addresses one device's optimization: the canonical
// program text, rules, observed trace, effective pass schedule, hardware
// model and, for a schedule with the tune pass, its accuracy table. Two devices
// (or two runs) with the same key produce the same row, which is what
// makes the DeviceCache safe to share across fleets and after crashes.
func deviceKey(dev resolvedDevice, trace *trafficgen.Trace, passes []string, copts core.Options) string {
	parts := []string{"fleet-device",
		dev.printed,
		dev.rules,
		trace.Digest(),
		strings.Join(passes, ","),
		copts.Target.Key(),
	}
	if copts.TuneAccuracyTable != "" && slices.Contains(passes, "tune") {
		parts = append(parts, "tune "+copts.TuneAccuracyTable)
	}
	return cache.Digest(parts...)
}
