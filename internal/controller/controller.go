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
// rules for tables outside the segment are filtered out. A nil segment
// (a run that offloaded nothing) is the empty pass-through control, so the
// deployments and equivalence checks built on New accept it too.
func New(segment *p4.Program, cfg *rt.Config) (*Controller, error) {
	if segment == nil {
		segment = p4.MustParse("control ingress { }")
	}
	filtered := &rt.Config{}
	if cfg != nil {
		for _, rule := range cfg.Rules {
			if segment.Table(rule.Table) != nil {
				filtered.Add(rule)
			}
		}
	}
	sw, err := sim.NewFromAST(segment, filtered, fateOnly)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return &Controller{sw: sw}, nil
}

// fateOnly lowers every Switch of this package: its verdict loops never read
// the execution trace or the outgoing bytes, so the plans compute neither and
// an Output carries only the forwarding decision.
var fateOnly = sim.Options{Observe: sim.ObserveFate}

// replayFates drives the original program — and, in lock-step, a deployment's
// data plane when one is given — over the trace in batches under a
// "sim.replay" span (so the loop reports packets/sec) and hands each packet
// and its fates to step, in trace order (dpFate is nil without a data plane).
// The data plane may run a batch ahead of the controller step feeds, because
// it never reads controller state. A packet a Switch fails on ends the replay
// after step has seen every packet before it.
func replayFates(ctx context.Context, original, dataPlane *sim.Switch, trace *trafficgen.Trace,
	step func(i int, in sim.Input, fate, dpFate *sim.Output) error) error {

	n := len(trace.Packets)
	ins := make([]sim.Input, 0, sim.ReplayBatchSize)
	outs := make([]sim.Output, sim.ReplayBatchSize)
	var dpOuts []sim.Output
	if dataPlane != nil {
		dpOuts = make([]sim.Output, sim.ReplayBatchSize)
	}
	return sim.ReplayBatch(ctx, n, n, func(lo, hi int) error {
		ins = ins[:0]
		for _, pkt := range trace.Packets[lo:hi] {
			ins = append(ins, sim.Input{Port: pkt.Port, Data: pkt.Data})
		}
		k, err := original.ProcessBatch(ins, outs, sim.BatchOpts{})
		if err != nil {
			err = fmt.Errorf("controller: original, packet %d: %w", lo+k, err)
		}
		if dataPlane != nil {
			// On a tie the original's error is the one reported.
			if dk, derr := dataPlane.ProcessBatch(ins, dpOuts, sim.BatchOpts{}); dk < k {
				k, err = dk, fmt.Errorf("controller: deployment, packet %d: %w", lo+dk, derr)
			}
		}
		for j := 0; j < k; j++ {
			var dpFate *sim.Output
			if dataPlane != nil {
				dpFate = &dpOuts[j]
			}
			if err := step(lo+j, ins[j], &outs[j], dpFate); err != nil {
				return err
			}
		}
		return err
	})
}

// Handle processes one redirected packet through the segment and returns
// the segment's verdict (an Output without Data or Exec).
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

// Deployment composes the optimized data plane with a controller, modeling
// the post-offload system.
type Deployment struct {
	dataPlane *sim.Switch
	ctl       *Controller
}

// NewDeployment builds the composed system from a completed optimization:
// the optimized program and its filtered configuration drive the data
// plane; the controller program (the offloaded segment) and the full
// original configuration drive the controller.
func NewDeployment(optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, fullCfg *rt.Config) (*Deployment, error) {
	dp, err := sim.NewFromAST(optimized, optimizedCfg, fateOnly)
	if err != nil {
		return nil, fmt.Errorf("controller: optimized program: %w", err)
	}
	ctl, err := New(segment, fullCfg)
	if err != nil {
		return nil, err
	}
	return &Deployment{dataPlane: dp, ctl: ctl}, nil
}

// Controller exposes the deployment's controller (for stats).
func (d *Deployment) Controller() *Controller { return d.ctl }

// Process runs a packet through the data plane and, when redirected,
// through the controller. Packets the controller passes are forwarded to
// the data plane's pre-redirect forwarding decision.
func (d *Deployment) Process(in sim.Input) (Verdict, error) {
	return d.ProcessContext(context.Background(), in)
}

// ProcessContext is Process under a tracer-carrying context: each
// redirect to the controller is recorded as a "controller.redirect" span
// with the segment's verdict. Non-redirected packets stay span-free — the
// fast path is the common path.
func (d *Deployment) ProcessContext(ctx context.Context, in sim.Input) (Verdict, error) {
	out, err := d.dataPlane.Process(in)
	if err != nil {
		return Verdict{}, err
	}
	return d.verdict(ctx, in, &out)
}

// verdict completes a packet the data plane has decided: out is its fate
// there, and a redirect goes through the controller.
func (d *Deployment) verdict(ctx context.Context, in sim.Input, out *sim.Output) (Verdict, error) {
	if !out.ToCPU {
		return Verdict{Dropped: out.Dropped, Port: out.Port}, nil
	}
	_, sp := obs.Start(ctx, "controller.redirect")
	defer sp.End()
	ctlOut, err := d.ctl.Handle(in)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		return Verdict{}, err
	}
	v := Verdict{ViaController: true}
	switch {
	case ctlOut.Dropped:
		v.Dropped = true
		v.Port = sim.DropPort
		sp.SetAttr(obs.String("verdict", "drop"))
	case ctlOut.ToCPU:
		v.Notified = true
		v.Port = sim.CPUPort
		sp.SetAttr(obs.String("verdict", "notify"))
	default:
		v.Port = out.ForwardPort
		v.Dropped = out.ForwardPort == sim.DropPort
		sp.SetAttr(obs.String("verdict", "pass"))
	}
	return v, nil
}

// Reset clears data-plane and controller state.
func (d *Deployment) Reset() {
	d.dataPlane.Reset()
	d.ctl.Reset()
}

// release ends the deployment, handing its switches' register memory back
// for reuse (sim.Switch.Release); the verifiers call it when they are done.
func (d *Deployment) release() {
	d.dataPlane.Release()
	d.ctl.sw.Release()
}

// EquivalenceReport summarizes an original-vs-deployment comparison.
type EquivalenceReport struct {
	Packets    int
	Redirected int
	Mismatches int
	// First describes the first mismatch, for debugging.
	First string
}

// Equivalent is true when every packet's fate matched.
func (r *EquivalenceReport) Equivalent() bool { return r.Mismatches == 0 }

func (r *EquivalenceReport) String() string {
	if r.Equivalent() {
		return fmt.Sprintf("equivalent over %d packets (%d via controller)", r.Packets, r.Redirected)
	}
	return fmt.Sprintf("%d/%d mismatches (first: %s)", r.Mismatches, r.Packets, r.First)
}

// sameFate is the equivalence both verifiers hold every packet to: drops
// must match, a controller notification must correspond to the original's
// CPU-port redirect, and forwarded packets must leave on the same port.
func sameFate(orig *sim.Output, v Verdict) bool {
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

// VerifyEquivalence replays the trace through the original program and
// through the optimized program + controller, comparing the fate of every
// packet (sameFate). A nil segment is the empty pass-through controller. The
// whole comparison runs inside a "controller.verify" span, both data planes
// go through replayFates batch by batch (so the loop reports packets/sec),
// and each redirect shows up as a "controller.redirect" child span.
func VerifyEquivalence(ctx context.Context,
	original *p4.Program, originalCfg *rt.Config,
	optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, trace *trafficgen.Trace) (*EquivalenceReport, error) {

	ctx, sp := obs.Start(ctx, "controller.verify", obs.Int("packets", len(trace.Packets)))
	defer sp.End()

	origSwitch, err := sim.NewFromAST(original, originalCfg, fateOnly)
	if err != nil {
		return nil, err
	}
	defer origSwitch.Release()
	dep, err := NewDeployment(optimized, optimizedCfg, segment, originalCfg)
	if err != nil {
		return nil, err
	}
	defer dep.release()

	report := &EquivalenceReport{}
	err = replayFates(ctx, origSwitch, dep.dataPlane, trace, func(i int, in sim.Input, origOut, dpOut *sim.Output) error {
		verdict, err := dep.verdict(ctx, in, dpOut)
		if err != nil {
			return fmt.Errorf("controller: deployment, packet %d: %w", i, err)
		}
		report.Packets++
		if verdict.ViaController {
			report.Redirected++
		}
		if !sameFate(origOut, verdict) {
			report.Mismatches++
			if report.First == "" {
				report.First = fmt.Sprintf(
					"packet %d: original(drop=%v port=%d cpu=%v) vs deployment(drop=%v port=%d via_ctl=%v notified=%v)",
					i, origOut.Dropped, origOut.Port, origOut.ToCPU,
					verdict.Dropped, verdict.Port, verdict.ViaController, verdict.Notified)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp.SetAttr(obs.Int("redirected", report.Redirected), obs.Int("mismatches", report.Mismatches))
	return report, nil
}
