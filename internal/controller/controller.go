// Package controller implements the software side of Phase 4: a controller
// that processes the packets an optimized data plane redirects to the CPU
// port. It executes the offloaded segment (core.Result.ControllerProgram)
// in the behavioral simulator: reception implies the segment's external
// guards held, the segment is self-contained, and the data plane's
// forwarding decision survives the redirect (sim.Output.ForwardPort), so
// the composed system reproduces the original program's behavior exactly.
//
// The package also provides the end-to-end equivalence harness the
// experiments use: original program vs. optimized program + controller,
// verdict-for-verdict over a trace.
package controller

import (
	"context"
	"fmt"
	"sync"
	"time"

	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// Stats counts controller activity.
type Stats struct {
	Handled  int // packets received from the data plane
	Dropped  int // segment verdict: drop
	Notified int // segment verdict: notification (e.g. a failure alarm)
	Passed   int // segment verdict: pass (data plane forwards)
}

// Controller executes the offloaded segment on redirected packets.
type Controller struct {
	mu    sync.Mutex
	sw    *sim.Switch
	stats Stats
}

// New builds a controller from the offloaded-segment program (e.g.
// core.Result.ControllerProgram) and the full runtime configuration —
// rules and defaults for tables outside the segment are filtered out. A
// nil segment (a run that offloaded nothing) is the empty pass-through
// control; a deployment over a nil segment hands it no packet.
func New(segment *p4.Program, cfg *rt.Config) (*Controller, error) {
	if segment == nil {
		segment = p4.MustParse("control ingress { }")
	}
	filtered := &rt.Config{}
	if cfg != nil {
		filtered = cfg.Restrict(segment)
	}
	sw, err := sim.NewFromAST(segment, filtered, fateOnly)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return &Controller{sw: sw}, nil
}

// fateOnly lowers every Switch of this package: its verdict loops never read
// the execution trace or the outgoing bytes, so the plans compute neither and
// an Output carries the forwarding decision and the execution marks.
var fateOnly = sim.Options{Observe: sim.ObserveFate}

// Handle processes one redirected packet through the segment and returns
// the segment's verdict (an Output without Exec, whose Data is the
// segment's execution marks).
func (c *Controller) Handle(in sim.Input) (sim.Output, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, err := c.sw.Process(in)
	if err != nil {
		return sim.Output{}, err
	}
	c.stats.Handled++
	switch {
	case out.Dropped:
		c.stats.Dropped++
	case out.ToCPU:
		c.stats.Notified++
	default:
		c.stats.Passed++
	}
	return out, nil
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset clears the controller's state (registers and counters).
func (c *Controller) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sw.Reset()
	c.stats = Stats{}
}

// Verdict is the effective fate of a packet after the data plane and,
// when redirected, the controller.
type Verdict struct {
	Dropped       bool
	Port          uint64
	ViaController bool
	// Notified means the segment raised a controller notification (the
	// original program would have sent the packet to the CPU port).
	Notified bool
	// Degraded means the fate was decided (or may have been influenced)
	// by a failure-handling path — a degradation policy after delivery
	// exhaustion, or a replica whose segment state is stale. Degraded
	// verdicts are allowed to diverge from the original program; they
	// are always explicitly counted in DegradationStats.
	Degraded bool
}

// EquivalenceReport summarizes an original-vs-deployment comparison. A
// packet whose fate diverged is either flagged degraded (a failure-handling
// path decided it, and Stats counts how) or silent.
type EquivalenceReport struct {
	Packets    int
	Redirected int
	// Mismatches counts every divergent verdict, flagged or not.
	Mismatches int
	// Degraded counts divergent verdicts that were explicitly flagged.
	Degraded int
	// Silent counts divergent verdicts with no degradation flag.
	Silent int
	// First describes the first silent divergence, for debugging.
	First string
	// Stats are the deployment's degradation counters after the replay.
	Stats DegradationStats
	// Faults maps fault points to how often each fired; nil without a
	// fault plan.
	Faults map[string]int
}

// Equivalent is true when every packet's fate matched.
func (r *EquivalenceReport) Equivalent() bool { return r.Mismatches == 0 }

// Clean is true when every divergence was explicitly accounted for.
func (r *EquivalenceReport) Clean() bool { return r.Silent == 0 }

// String summarizes the equivalence verdict.
func (r *EquivalenceReport) String() string {
	if r.Equivalent() {
		return fmt.Sprintf("equivalent over %d packets (%d via controller)", r.Packets, r.Redirected)
	}
	return fmt.Sprintf("%d/%d mismatches (first: %s)", r.Mismatches, r.Packets, r.First)
}

// sameFate is the equivalence the verifier holds every packet to: drops
// must match, a controller notification must correspond to the original's
// CPU-port redirect, and forwarded packets must leave on the same port.
func sameFate(c sim.Outcome, v Verdict) bool {
	orig := c.Output()
	switch {
	case orig.Dropped != v.Dropped:
		return false
	case orig.Dropped:
		return true
	case orig.ToCPU:
		return v.Notified
	}
	return orig.Port == v.Port && !v.Notified
}

// VerifyChaosEquivalence holds every packet of the trace to sameFate: its
// fate under the original program, original[i], against its fate through
// the deployment opts configures, fault plan included, over the optimized
// data plane's outcome dataPlane[i]. Both vectors are one sim.Outcome per
// trace packet (core.Fates reads or replays them). A divergence is legal
// only when flagged degraded; anything else is silent. A nil segment is a
// run that offloaded nothing. The controller segment, the fault draws and
// the degradation policy run live, in trace order, on every redirected
// packet. The comparison runs inside a "controller.verify" span that
// reports packets/sec, and every redirect, retry and degradation decision
// appears as a child span. A canceled ctx ends the loop between batches of
// sim.ReplayBatchSize packets.
func VerifyChaosEquivalence(ctx context.Context, original *p4.Program, cfg *rt.Config,
	segment *p4.Program, trace *trafficgen.Trace, opts ResilientOptions,
	originalFates, dataPlane []sim.Outcome) (*EquivalenceReport, error) {

	n := len(trace.Packets)
	if len(originalFates) != n || len(dataPlane) != n {
		return nil, fmt.Errorf("controller: %d original and %d data-plane outcomes for %d packets",
			len(originalFates), len(dataPlane), n)
	}
	ctx, sp := obs.Start(ctx, "controller.verify", obs.Int("packets", n))
	defer sp.End()
	dep, err := newDeployment(nil, segment, cfg, original, opts)
	if err != nil {
		return nil, err
	}
	defer dep.release()

	report := &EquivalenceReport{}
	start := time.Now()
	for i, pkt := range trace.Packets {
		if i%sim.ReplayBatchSize == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("controller: verify canceled: %w", err)
			}
		}
		dpOut := dataPlane[i].Output()
		verdict, err := dep.verdict(ctx, sim.Input{Port: pkt.Port, Data: pkt.Data}, &dpOut)
		if err != nil {
			return nil, fmt.Errorf("controller: deployment, packet %d: %w", i, err)
		}
		report.Packets++
		if verdict.ViaController {
			report.Redirected++
		}
		if sameFate(originalFates[i], verdict) {
			continue
		}
		report.Mismatches++
		if verdict.Degraded {
			report.Degraded++
			continue
		}
		report.Silent++
		if report.First == "" {
			fate := originalFates[i].Output()
			report.First = fmt.Sprintf(
				"packet %d: original(drop=%v port=%d cpu=%v) vs deployment(drop=%v port=%d via_ctl=%v notified=%v)",
				i, fate.Dropped, fate.Port, fate.ToCPU,
				verdict.Dropped, verdict.Port, verdict.ViaController, verdict.Notified)
		}
	}
	report.Stats = dep.Stats()
	report.Faults = opts.Faults.Counts()
	sp.SetAttr(obs.Int("redirected", report.Redirected), obs.Int("mismatches", report.Mismatches),
		obs.Int("degraded", report.Degraded), obs.Int("silent", report.Silent))
	if n > 0 {
		sp.SetAttr(obs.Float("packets_per_sec", sim.Throughput(n, time.Since(start))))
	}
	return report, nil
}
