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
	"p2go/internal/trafficgen"
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

// RetryConfig shapes redirect-delivery retries.
type RetryConfig struct {
	// MaxAttempts is the total delivery attempts per redirect, replica
	// failovers included (default 3).
	MaxAttempts int
	// BaseDelay is the first backoff; it doubles per retry up to
	// MaxDelay (defaults 1ms and 16ms — the harness replays traces, so
	// delays stay small).
	BaseDelay, MaxDelay time.Duration
	// JitterSeed drives the deterministic jitter added to each backoff
	// (up to half the delay).
	JitterSeed int64
	// Sleep replaces time.Sleep; tests install a recording no-op.
	Sleep func(time.Duration)
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 16 * time.Millisecond
	}
	if r.Sleep == nil {
		r.Sleep = time.Sleep
	}
	return r
}

// DegradationStats counts every failure-handling decision the resilient
// deployment made. Anything that may make a verdict diverge from the
// original program increments one of these — the chaos harness asserts
// there is no divergence these counters do not explain.
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

// ResilientOptions configures a ResilientDeployment.
type ResilientOptions struct {
	// Replicas is the controller replica count (default 2).
	Replicas int
	// Policy applies when no replica accepts a delivery.
	Policy DegradationPolicy
	// Retry shapes delivery retries and backoff.
	Retry RetryConfig
	// HealthFailureThreshold is the consecutive delivery failures that
	// mark a replica unhealthy (default 2). Unhealthy replicas are
	// deprioritized; a success restores them.
	HealthFailureThreshold int
	// DelayPenalty is the latency one injected RedirectDelay costs
	// (default 1ms).
	DelayPenalty time.Duration
	// Faults is the fault plan; nil means no injection.
	Faults *faults.Set
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.HealthFailureThreshold <= 0 {
		o.HealthFailureThreshold = 2
	}
	if o.DelayPenalty <= 0 {
		o.DelayPenalty = time.Millisecond
	}
	o.Retry = o.Retry.withDefaults()
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

// ResilientDeployment composes the optimized data plane with a set of
// replicated controllers behind bounded-retry redirect delivery, passive
// health tracking, state-sync mirroring, and a degradation policy. It is
// the fault-tolerant counterpart of Deployment: every way a verdict can
// deviate from the original program is counted in DegradationStats and
// flagged on the Verdict, never silent.
type ResilientDeployment struct {
	mu        sync.Mutex
	dataPlane *sim.Switch
	replicas  []*replica
	fallback  *sim.Switch // original program; only for FallbackOriginal
	opts      ResilientOptions
	jitter    *rand.Rand
	rr        int // round-robin cursor over replicas
	stats     DegradationStats
}

// NewResilientDeployment builds the composed fault-tolerant system.
// original may be nil unless opts.Policy is FallbackOriginal.
func NewResilientDeployment(optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, fullCfg *rt.Config,
	original *p4.Program, opts ResilientOptions) (*ResilientDeployment, error) {

	opts = opts.withDefaults()
	dp, err := sim.NewFromAST(optimized, optimizedCfg, fateOnly)
	if err != nil {
		return nil, fmt.Errorf("controller: optimized program: %w", err)
	}
	d := &ResilientDeployment{
		dataPlane: dp,
		opts:      opts,
		jitter:    rand.New(rand.NewSource(opts.Retry.JitterSeed)),
	}
	for i := 0; i < opts.Replicas; i++ {
		ctl, err := New(segment, fullCfg)
		if err != nil {
			return nil, fmt.Errorf("controller: replica %d: %w", i, err)
		}
		d.replicas = append(d.replicas, &replica{ctl: ctl, healthy: true})
	}
	if opts.Policy == FallbackOriginal {
		if original == nil {
			return nil, fmt.Errorf("controller: fallback policy requires the original program")
		}
		d.fallback, err = sim.NewFromAST(original, fullCfg, fateOnly)
		if err != nil {
			return nil, fmt.Errorf("controller: original program: %w", err)
		}
	}
	return d, nil
}

// Process runs a packet through the data plane and, when redirected,
// through the replicated controller path.
func (d *ResilientDeployment) Process(in sim.Input) (Verdict, error) {
	return d.ProcessContext(context.Background(), in)
}

// ProcessContext is Process under a tracer-carrying context: each
// redirect is recorded as a "controller.redirect" span carrying the
// delivery's retry/failover counts, and a delivery exhaustion adds a
// "controller.degrade" child span with the applied policy. Packets the
// data plane handles alone stay span-free.
func (d *ResilientDeployment) ProcessContext(ctx context.Context, in sim.Input) (Verdict, error) {
	out, err := d.dataPlane.Process(in)
	if err != nil {
		return Verdict{}, err
	}
	if !out.ToCPU {
		return Verdict{Dropped: out.Dropped, Port: out.Port}, nil
	}
	ctx, sp := obs.Start(ctx, "controller.redirect")
	defer sp.End()

	d.mu.Lock()
	defer d.mu.Unlock()
	pre := d.stats
	d.stats.Redirected++

	ctlOut, serving, ok := d.deliverLocked(in)
	sp.SetAttr(
		obs.Int("retries", d.stats.Retries-pre.Retries),
		obs.Int("failovers", d.stats.Failovers-pre.Failovers),
		obs.Bool("delivered", ok))
	if !ok {
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
	d.mirrorLocked(in, serving)

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
	case ctlOut.ToCPU:
		v.Notified = true
		v.Port = sim.CPUPort
	default:
		v.Port = out.ForwardPort
		v.Dropped = out.ForwardPort == sim.DropPort
	}
	return v, nil
}

// deliverLocked attempts redirect delivery with bounded retry,
// exponential backoff with deterministic jitter, and replica failover.
func (d *ResilientDeployment) deliverLocked(in sim.Input) (sim.Output, *replica, bool) {
	delay := d.opts.Retry.BaseDelay
	first := -1
	for attempt := 0; attempt < d.opts.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			d.stats.Retries++
			d.opts.Retry.Sleep(delay + time.Duration(d.jitter.Int63n(int64(delay)/2+1)))
			if delay *= 2; delay > d.opts.Retry.MaxDelay {
				delay = d.opts.Retry.MaxDelay
			}
		}
		if d.opts.Faults.Fire(faults.RedirectDelay) {
			d.stats.Delayed++
			d.opts.Retry.Sleep(d.opts.DelayPenalty)
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
			d.failLocked(r)
			continue
		}
		r.fails = 0
		r.healthy = true
		r.handled++
		if idx != first {
			d.stats.Failovers++
		}
		return ctlOut, r, true
	}
	return sim.Output{}, nil, false
}

// pickLocked chooses the next replica: round-robin over healthy ones,
// falling back to round-robin over all (so a fully-down set still gets
// half-open probes and can recover).
func (d *ResilientDeployment) pickLocked() int {
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

func (d *ResilientDeployment) failLocked(r *replica) {
	r.fails++
	if r.healthy && r.fails >= d.opts.HealthFailureThreshold {
		r.healthy = false
		d.stats.ReplicaTrips++
	}
}

// mirrorLocked syncs the delivered packet to every other replica so
// their segment state (sketches, filters, registers) tracks the serving
// replica's. A replica that misses a mirror is stale: its future
// verdicts are flagged degraded.
func (d *ResilientDeployment) mirrorLocked(in sim.Input, serving *replica) {
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
			d.failLocked(r)
			d.markStaleLocked(r)
			continue
		}
		r.fails = 0
		r.healthy = true
	}
}

func (d *ResilientDeployment) markStaleLocked(r *replica) {
	if !r.stale {
		r.stale = true
	}
	d.stats.MirrorMisses++
}

// degradeLocked applies the degradation policy after delivery
// exhaustion. The packet never reached the segment, so every replica's
// state is now behind the original program's — all become stale.
func (d *ResilientDeployment) degradeLocked(in sim.Input, out sim.Output) (Verdict, error) {
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
func (d *ResilientDeployment) Stats() DegradationStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Health snapshots every replica's status.
func (d *ResilientDeployment) Health() []ReplicaStatus {
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
func (d *ResilientDeployment) Reset() {
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

// release ends the deployment the way Deployment.release does.
func (d *ResilientDeployment) release() {
	d.dataPlane.Release()
	for _, r := range d.replicas {
		r.ctl.sw.Release()
	}
	if d.fallback != nil {
		d.fallback.Release()
	}
}

// ChaosReport is the chaos-equivalence verdict: every packet either
// matched the original program exactly or carried an explicit degradation
// flag. Silent is the count of unexplained divergences — the invariant
// the chaos suite enforces is Silent == 0 under every fault plan.
type ChaosReport struct {
	Packets    int
	Redirected int
	// Degraded counts divergent verdicts that were explicitly flagged.
	Degraded int
	// Silent counts divergent verdicts with no degradation flag.
	Silent int
	// First describes the first silent divergence, for debugging.
	First string
	// Stats are the deployment's degradation counters after the replay.
	Stats DegradationStats
	// Faults maps fault points to how often each fired.
	Faults map[string]int
}

// Clean is true when every divergence was explicitly accounted for.
func (r *ChaosReport) Clean() bool { return r.Silent == 0 }

func (r *ChaosReport) String() string {
	return fmt.Sprintf("%d packets (%d redirected): %d degraded, %d silent divergences",
		r.Packets, r.Redirected, r.Degraded, r.Silent)
}

// VerifyChaosEquivalence replays the trace through the original program
// and through the resilient deployment under opts (including its fault
// plan), comparing every packet's fate. Divergences are legal only when
// flagged degraded; anything else is a silent divergence. A nil segment is
// the empty pass-through controller. The comparison runs inside a
// "controller.verify-chaos" span, the replay goes through replayFates, and
// every redirect, retry, and degradation decision appears as child spans.
func VerifyChaosEquivalence(ctx context.Context,
	original *p4.Program, originalCfg *rt.Config,
	optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, trace *trafficgen.Trace,
	opts ResilientOptions) (*ChaosReport, error) {

	ctx, sp := obs.Start(ctx, "controller.verify-chaos", obs.Int("packets", len(trace.Packets)))
	defer sp.End()

	origSwitch, err := sim.NewFromAST(original, originalCfg, fateOnly)
	if err != nil {
		return nil, err
	}
	defer origSwitch.Release()
	dep, err := NewResilientDeployment(optimized, optimizedCfg, segment, originalCfg, original, opts)
	if err != nil {
		return nil, err
	}
	defer dep.release()

	report := &ChaosReport{}
	err = replayFates(ctx, origSwitch, nil, trace, func(i int, in sim.Input, origOut, _ *sim.Output) error {
		verdict, err := dep.ProcessContext(ctx, in)
		if err != nil {
			return fmt.Errorf("controller: resilient deployment, packet %d: %w", i, err)
		}
		report.Packets++
		if verdict.ViaController {
			report.Redirected++
		}
		if !sameFate(origOut, verdict) {
			if verdict.Degraded {
				report.Degraded++
			} else {
				report.Silent++
				if report.First == "" {
					report.First = fmt.Sprintf(
						"packet %d: original(drop=%v port=%d cpu=%v) vs resilient(drop=%v port=%d via_ctl=%v notified=%v degraded=%v)",
						i, origOut.Dropped, origOut.Port, origOut.ToCPU,
						verdict.Dropped, verdict.Port, verdict.ViaController, verdict.Notified, verdict.Degraded)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	report.Stats = dep.Stats()
	report.Faults = opts.Faults.Counts()
	sp.SetAttr(obs.Int("redirected", report.Redirected),
		obs.Int("degraded", report.Degraded), obs.Int("silent", report.Silent))
	return report, nil
}
