package controller

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2go/internal/faults"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/sim"
)

// DegradationPolicy decides a redirected packet's fate when no controller
// replica accepts the delivery.
type DegradationPolicy int

const (
	// FailOpen forwards the packet on the data plane's pre-redirect
	// forwarding decision (availability over the segment's verdict).
	FailOpen DegradationPolicy = iota
	// FailClosed drops the packet (the segment's verdict is
	// safety-relevant; never forward unchecked).
	FailClosed
	// FallbackOriginal runs the packet through a local copy of the
	// original program and uses its verdict (slowest, most faithful).
	FallbackOriginal
)

func (p DegradationPolicy) String() string {
	switch p {
	case FailOpen:
		return "fail-open"
	case FailClosed:
		return "fail-closed"
	case FallbackOriginal:
		return "fallback"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy reads a policy name ("fail-open", "fail-closed",
// "fallback") — the CLI surface for -degrade flags.
func ParsePolicy(s string) (DegradationPolicy, error) {
	switch s {
	case "fail-open", "":
		return FailOpen, nil
	case "fail-closed":
		return FailClosed, nil
	case "fallback":
		return FallbackOriginal, nil
	}
	return 0, fmt.Errorf("controller: unknown degradation policy %q (want fail-open, fail-closed, or fallback)", s)
}

// Redirect delivery. A redirect gets deliveryAttempts attempts, replica
// failovers included. The first retry waits retryBaseDelay, doubling per
// retry up to retryMaxDelay, plus a deterministic jitter of up to half the
// delay; the harness replays traces, so delays stay small. A replica is
// unhealthy after healthFailureThreshold consecutive delivery failures, and
// one injected RedirectDelay costs delayPenalty.
const (
	deliveryAttempts       = 3
	retryBaseDelay         = time.Millisecond
	retryMaxDelay          = 16 * time.Millisecond
	healthFailureThreshold = 2
	delayPenalty           = time.Millisecond
)

// DegradationStats counts every failure-handling decision a deployment
// made. Anything that may make a verdict diverge from the original
// program increments one of these — the verifier asserts there is no
// divergence these counters do not explain.
type DegradationStats struct {
	// Redirected counts packets the data plane sent to the controller.
	Redirected int
	// Delivered counts redirects some replica accepted and answered.
	Delivered int
	// Retries counts delivery re-attempts (loss or replica down).
	Retries int
	// Failovers counts deliveries served by a non-primary replica.
	Failovers int
	// Delayed counts deliveries that paid an injected link delay.
	Delayed int
	// MirrorMisses counts state-sync mirrors a replica missed; that
	// replica's segment state is stale from then on.
	MirrorMisses int
	// StaleServed counts verdicts served by a stale replica (marked
	// degraded: their segment state may have diverged).
	StaleServed int
	// ReplicaTrips counts healthy -> unhealthy transitions.
	ReplicaTrips int
	// Lost counts redirects no replica accepted; the degradation policy
	// decided their fate.
	Lost int
	// DegradedPass/Drop/Fallback split Lost by the applied policy.
	DegradedPass, DegradedDrop, DegradedFallback int
}

// Degraded is the total number of packets whose verdict was produced by a
// failure-handling path.
func (s DegradationStats) Degraded() int {
	return s.StaleServed + s.DegradedPass + s.DegradedDrop + s.DegradedFallback
}

// ReplicaStatus is one replica's health snapshot.
type ReplicaStatus struct {
	Index               int
	Healthy             bool
	Stale               bool
	Handled             int
	ConsecutiveFailures int
}

// ResilientOptions configures a Deployment's controller side. The plain
// deployment (NewDeployment) is Replicas 1 and no Faults.
type ResilientOptions struct {
	// Replicas is the controller replica count (default 2).
	Replicas int
	// Policy applies when no replica accepts a delivery.
	Policy DegradationPolicy
	// Faults is the fault plan; nil means no injection.
	Faults *faults.Set

	// sleep is the backoff and delay clock, time.Sleep unless a test
	// replaces it.
	sleep func(time.Duration)
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.sleep == nil {
		o.sleep = time.Sleep
	}
	return o
}

// replica is one controller instance plus its health/staleness state.
type replica struct {
	ctl     *Controller
	healthy bool
	stale   bool
	fails   int // consecutive delivery failures
	handled int
}

// Deployment composes the optimized data plane with a set of replicated
// controllers behind bounded-retry redirect delivery, passive health
// tracking, state-sync mirroring, and a degradation policy, modeling the
// post-offload system. Every way a verdict can deviate from the original
// program is counted in DegradationStats and flagged on the Verdict, never
// silent. Only injected faults are retried, failed over or degraded: a
// segment that fails on a packet is a bug in the controller program, and
// that error is returned.
type Deployment struct {
	mu        sync.Mutex
	dataPlane *sim.Switch
	offloaded bool // a segment was given
	replicas  []*replica
	fallback  *sim.Switch // original program; only for FallbackOriginal
	opts      ResilientOptions
	jitter    *rand.Rand // backoff jitter, seeded at the first retry
	rr        int        // round-robin cursor over replicas
	stats     DegradationStats
}

// NewDeployment builds the plain composed system from a completed
// optimization: the optimized program and its filtered configuration
// drive the data plane; the controller program (the offloaded segment)
// and the full original configuration drive one controller replica, with
// no fault injection.
func NewDeployment(optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, fullCfg *rt.Config) (*Deployment, error) {
	return NewResilientDeployment(optimized, optimizedCfg, segment, fullCfg, nil, ResilientOptions{Replicas: 1})
}

// NewResilientDeployment builds the composed system under opts.
// original may be nil unless opts.Policy is FallbackOriginal.
func NewResilientDeployment(optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, fullCfg *rt.Config,
	original *p4.Program, opts ResilientOptions) (*Deployment, error) {

	dp, err := sim.NewFromAST(optimized, optimizedCfg, fateOnly)
	if err != nil {
		return nil, fmt.Errorf("controller: optimized program: %w", err)
	}
	return newDeployment(dp, segment, fullCfg, original, opts)
}

// newDeployment builds the composed system over a data plane already built.
// The verifier passes a nil data plane: it reads the data plane's outputs
// from outcome vectors, so its deployment only decides verdicts. With a nil
// segment nothing was offloaded, and a packet the data plane sends to the
// CPU is the program's own notification: it reaches no replica.
func newDeployment(dp *sim.Switch, segment *p4.Program, fullCfg *rt.Config,
	original *p4.Program, opts ResilientOptions) (*Deployment, error) {

	opts = opts.withDefaults()
	d := &Deployment{dataPlane: dp, offloaded: segment != nil, opts: opts}
	for i := 0; i < opts.Replicas; i++ {
		ctl, err := New(segment, fullCfg)
		if err != nil {
			return nil, err
		}
		d.replicas = append(d.replicas, &replica{ctl: ctl, healthy: true})
	}
	if opts.Policy == FallbackOriginal {
		if original == nil {
			return nil, fmt.Errorf("controller: fallback policy requires the original program")
		}
		var err error
		if d.fallback, err = sim.NewFromAST(original, fullCfg, fateOnly); err != nil {
			return nil, fmt.Errorf("controller: original program: %w", err)
		}
	}
	return d, nil
}

// Controller exposes the first controller replica (for stats).
func (d *Deployment) Controller() *Controller { return d.replicas[0].ctl }

// Process runs a packet through the data plane and, when redirected,
// through the replicated controller path. Packets the controller passes
// are forwarded to the data plane's pre-redirect forwarding decision.
func (d *Deployment) Process(in sim.Input) (Verdict, error) {
	return d.ProcessContext(context.Background(), in)
}

// ProcessContext is Process under a tracer-carrying context: each
// redirect is recorded as a "controller.redirect" span carrying the
// segment's verdict and the delivery's retry/failover counts, and a
// delivery exhaustion adds a "controller.degrade" child span with the
// applied policy. Packets the data plane handles alone stay span-free —
// the fast path is the common path.
func (d *Deployment) ProcessContext(ctx context.Context, in sim.Input) (Verdict, error) {
	out, err := d.dataPlane.Process(in)
	if err != nil {
		return Verdict{}, err
	}
	return d.verdict(ctx, in, &out)
}

// verdict completes a packet the data plane has decided: out is its fate
// there, and a redirect goes through the controller replicas.
func (d *Deployment) verdict(ctx context.Context, in sim.Input, out *sim.Output) (Verdict, error) {
	if !out.ToCPU {
		return Verdict{Dropped: out.Dropped, Port: out.Port}, nil
	}
	if !d.offloaded {
		return Verdict{Notified: true, Port: sim.CPUPort}, nil
	}
	ctx, sp := obs.Start(ctx, "controller.redirect")
	defer sp.End()

	d.mu.Lock()
	defer d.mu.Unlock()
	pre := d.stats
	d.stats.Redirected++

	ctlOut, serving, err := d.deliverLocked(in)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		return Verdict{}, err
	}
	sp.SetAttr(
		obs.Int("retries", d.stats.Retries-pre.Retries),
		obs.Int("failovers", d.stats.Failovers-pre.Failovers),
		obs.Bool("delivered", serving != nil))
	if serving == nil {
		_, dsp := obs.Start(ctx, "controller.degrade",
			obs.String("policy", d.opts.Policy.String()))
		v, err := d.degradeLocked(in, out)
		if err != nil {
			dsp.SetAttr(obs.String("error", err.Error()))
		}
		dsp.End()
		sp.SetAttr(obs.Bool("degraded", true))
		return v, err
	}
	d.stats.Delivered++
	if err := d.mirrorLocked(in, serving); err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		return Verdict{}, err
	}

	v := Verdict{ViaController: true}
	if serving.stale {
		d.stats.StaleServed++
		v.Degraded = true
		sp.SetAttr(obs.Bool("stale_served", true))
	}
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

// deliverLocked attempts redirect delivery with bounded retry,
// exponential backoff with deterministic jitter, and replica failover. It
// returns the serving replica and its verdict, or a nil replica when no
// replica accepted the delivery. A segment error is returned, not retried.
func (d *Deployment) deliverLocked(in sim.Input) (sim.Output, *replica, error) {
	delay := retryBaseDelay
	first := -1
	for attempt := 0; attempt < deliveryAttempts; attempt++ {
		if attempt > 0 {
			d.stats.Retries++
			if d.jitter == nil {
				d.jitter = rand.New(rand.NewSource(0))
			}
			d.opts.sleep(delay + time.Duration(d.jitter.Int63n(int64(delay)/2+1)))
			if delay *= 2; delay > retryMaxDelay {
				delay = retryMaxDelay
			}
		}
		if d.opts.Faults.Fire(faults.RedirectDelay) {
			d.stats.Delayed++
			d.opts.sleep(delayPenalty)
		}
		if d.opts.Faults.Fire(faults.RedirectLoss) {
			continue // lost on the link; no replica saw it
		}
		idx := d.pickLocked()
		if first < 0 {
			first = idx
		}
		r := d.replicas[idx]
		if d.opts.Faults.Fire(faults.ControllerDown) {
			d.failLocked(r)
			continue
		}
		ctlOut, err := r.ctl.Handle(in)
		if err != nil {
			return sim.Output{}, nil, err
		}
		r.fails = 0
		r.healthy = true
		r.handled++
		if idx != first {
			d.stats.Failovers++
		}
		return ctlOut, r, nil
	}
	return sim.Output{}, nil, nil
}

// pickLocked chooses the next replica: round-robin over healthy ones,
// falling back to round-robin over all (so a fully-down set still gets
// half-open probes and can recover).
func (d *Deployment) pickLocked() int {
	n := len(d.replicas)
	for i := 0; i < n; i++ {
		idx := (d.rr + i) % n
		if d.replicas[idx].healthy {
			d.rr = (idx + 1) % n
			return idx
		}
	}
	idx := d.rr % n
	d.rr = (idx + 1) % n
	return idx
}

func (d *Deployment) failLocked(r *replica) {
	r.fails++
	if r.healthy && r.fails >= healthFailureThreshold {
		r.healthy = false
		d.stats.ReplicaTrips++
	}
}

// mirrorLocked syncs the delivered packet to every other replica so
// their segment state (sketches, filters, registers) tracks the serving
// replica's. A replica that misses a mirror is stale: its future
// verdicts are flagged degraded. A segment error is returned.
func (d *Deployment) mirrorLocked(in sim.Input, serving *replica) error {
	for _, r := range d.replicas {
		if r == serving {
			continue
		}
		if d.opts.Faults.Fire(faults.ControllerDown) {
			d.failLocked(r)
			d.markStaleLocked(r)
			continue
		}
		if _, err := r.ctl.Handle(in); err != nil {
			return err
		}
		r.fails = 0
		r.healthy = true
	}
	return nil
}

func (d *Deployment) markStaleLocked(r *replica) {
	r.stale = true
	d.stats.MirrorMisses++
}

// degradeLocked applies the degradation policy after delivery
// exhaustion. The packet never reached the segment, so every replica's
// state is now behind the original program's — all become stale.
func (d *Deployment) degradeLocked(in sim.Input, out *sim.Output) (Verdict, error) {
	d.stats.Lost++
	for _, r := range d.replicas {
		r.stale = true
	}
	v := Verdict{ViaController: true, Degraded: true}
	switch d.opts.Policy {
	case FailClosed:
		d.stats.DegradedDrop++
		v.Dropped = true
		v.Port = sim.DropPort
	case FallbackOriginal:
		d.stats.DegradedFallback++
		fout, err := d.fallback.Process(in)
		if err != nil {
			return Verdict{}, fmt.Errorf("controller: fallback: %w", err)
		}
		switch {
		case fout.Dropped:
			v.Dropped = true
			v.Port = sim.DropPort
		case fout.ToCPU:
			v.Notified = true
			v.Port = sim.CPUPort
		default:
			v.Port = fout.Port
		}
	default: // FailOpen
		d.stats.DegradedPass++
		v.Port = out.ForwardPort
		v.Dropped = out.ForwardPort == sim.DropPort
	}
	return v, nil
}

// Stats returns a snapshot of the degradation counters.
func (d *Deployment) Stats() DegradationStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Health snapshots every replica's status.
func (d *Deployment) Health() []ReplicaStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ReplicaStatus, len(d.replicas))
	for i, r := range d.replicas {
		out[i] = ReplicaStatus{Index: i, Healthy: r.healthy, Stale: r.stale,
			Handled: r.handled, ConsecutiveFailures: r.fails}
	}
	return out
}

// Reset clears data-plane, replica, and degradation state.
func (d *Deployment) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dataPlane.Reset()
	for _, r := range d.replicas {
		r.ctl.Reset()
		r.healthy, r.stale, r.fails, r.handled = true, false, 0, 0
	}
	if d.fallback != nil {
		d.fallback.Reset()
	}
	d.stats = DegradationStats{}
	d.rr = 0
}

// release ends the deployment, handing its switches' register memory back
// for reuse (sim.Switch.Release); the verifier calls it when it is done.
func (d *Deployment) release() {
	if d.dataPlane != nil {
		d.dataPlane.Release()
	}
	for _, r := range d.replicas {
		r.ctl.sw.Release()
	}
	if d.fallback != nil {
		d.fallback.Release()
	}
}
