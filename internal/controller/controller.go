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
// control, so the deployments and equivalence checks built on New accept
// it too.
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

// fateRing is how many batches of fates the original program may run ahead
// of the deployment loop in replayFates.
const fateRing = 4

// origBatch is one batch of the original program's fates: one per packet up
// to the first the program failed on, whose error err carries.
type origBatch struct {
	fates []sim.Fate
	err   error
}

// Recorded holds the fates a verifier reads instead of replaying a side:
// one sim.Outcome per trace packet, as a replay of exactly that side's
// program, rules and trace recorded them (core.RecordedFates binds them to
// that key). A nil side, or one whose length is not the trace's, is
// replayed.
type Recorded struct {
	Original, DataPlane []sim.Outcome
}

// source names where a side's fates come from, for the verify span.
func source(fates []sim.Outcome) string {
	if fates != nil {
		return "recorded"
	}
	return "replayed"
}

// replayFates hands each packet, the original program's fate and the data
// plane's output to step, in trace order and in sim.ReplayBatchSize batches
// (so the loop reports packets/sec). A side with recorded fates in rec is
// read from them, and its Switch is nil; a side without is replayed. The
// original replays on a goroutine of its own (replayOriginal), up to
// fateRing batches ahead, and shares nothing with the data plane or step but
// the fates it hands over. The data plane may run a batch ahead of the
// controller step feeds, because it never reads controller state. A packet a
// Switch fails on ends the replay after step has seen every packet before
// it; on a tie the original's error is the one reported. A canceled ctx ends
// the replay between batches. replayFates returns once the original's
// goroutine, if any, has exited, with how long the loop waited on it.
func replayFates(ctx context.Context, original, dataPlane *sim.Switch, rec Recorded, trace *trafficgen.Trace,
	step func(i int, in sim.Input, fate sim.Fate, dpOut *sim.Output) error) (time.Duration, error) {

	var free chan []sim.Fate
	var full chan origBatch
	if original != nil {
		free = make(chan []sim.Fate, fateRing)
		for range fateRing {
			free <- make([]sim.Fate, 0, sim.ReplayBatchSize)
		}
		full = make(chan origBatch, fateRing) // never blocks: fateRing buffers exist
		done := make(chan struct{})
		go replayOriginal(original, trace, free, full, done)
		defer func() {
			close(done)
			for range full { // until replayOriginal returns
			}
		}()
	}

	var wait time.Duration
	n := len(trace.Packets)
	ins := make([]sim.Input, 0, sim.ReplayBatchSize)
	dpOuts := make([]sim.Output, sim.ReplayBatchSize)
	var recorded []sim.Fate
	if original == nil {
		recorded = make([]sim.Fate, 0, sim.ReplayBatchSize)
	}
	err := sim.ReplayBatch(ctx, n, n, func(lo, hi int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("controller: verify canceled: %w", err)
		}
		ins = ins[:0]
		for _, pkt := range trace.Packets[lo:hi] {
			ins = append(ins, sim.Input{Port: pkt.Port, Data: pkt.Data})
		}
		dk, derr := hi-lo, error(nil)
		if dataPlane != nil {
			dk, derr = dataPlane.ProcessBatch(ins, dpOuts, sim.BatchOpts{})
		} else {
			for j, c := range rec.DataPlane[lo:hi] {
				dpOuts[j] = c.Output()
			}
		}
		var b origBatch
		if full != nil {
			start := time.Now()
			b = <-full
			wait += time.Since(start)
		} else {
			b.fates = recorded[:0]
			for _, c := range rec.Original[lo:hi] {
				b.fates = append(b.fates, c.Fate())
			}
		}
		k, err := len(b.fates), b.err
		if dk < k {
			k, err = dk, fmt.Errorf("controller: deployment, packet %d: %w", lo+dk, derr)
		}
		for j := 0; j < k; j++ {
			if err := step(lo+j, ins[j], b.fates[j], &dpOuts[j]); err != nil {
				return err
			}
		}
		if full != nil {
			free <- b.fates
		}
		return err
	})
	return wait, err
}

// replayOriginal is replayFates' original side: it replays the trace through
// the original program in sim.ReplayBatchSize batches, each into a buffer
// taken from free and sent on full, and stops after a batch the program
// failed in. It closes full when it returns: at the end of the trace, after
// a failure, or at the first batch boundary after done is closed, even with
// buffers left in free.
func replayOriginal(original *sim.Switch, trace *trafficgen.Trace,
	free <-chan []sim.Fate, full chan<- origBatch, done <-chan struct{}) {

	defer close(full)
	n := len(trace.Packets)
	for lo := 0; lo < n; lo += sim.ReplayBatchSize {
		select { // a select picks among ready cases at random: done first
		case <-done:
			return
		default:
		}
		var b origBatch
		select {
		case b.fates = <-free:
		case <-done:
			return
		}
		b.fates = b.fates[:0]
		for i, pkt := range trace.Packets[lo:min(lo+sim.ReplayBatchSize, n)] {
			out, err := original.Process(sim.Input{Port: pkt.Port, Data: pkt.Data})
			if err != nil {
				b.err = fmt.Errorf("controller: original, packet %d: %w", lo+i, err)
				break
			}
			b.fates = append(b.fates, out.Fate())
		}
		full <- b
		if b.err != nil {
			return
		}
	}
}

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

// sameFate is the equivalence both verifiers hold every packet to: drops
// must match, a controller notification must correspond to the original's
// CPU-port redirect, and forwarded packets must leave on the same port.
func sameFate(orig sim.Fate, v Verdict) bool {
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

// VerifyEquivalence is VerifyChaosEquivalence on the plain deployment
// (NewDeployment: one replica, no faults), where nothing is degraded and
// every divergence is a mismatch, with both sides replayed.
func VerifyEquivalence(ctx context.Context,
	original *p4.Program, originalCfg *rt.Config,
	optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, trace *trafficgen.Trace) (*EquivalenceReport, error) {
	return VerifyChaosEquivalence(ctx, original, originalCfg, optimized, optimizedCfg, segment, trace,
		ResilientOptions{Replicas: 1}, Recorded{})
}

// VerifyChaosEquivalence holds every packet of the trace to sameFate: its
// fate under the original program against its fate through the deployment
// opts configures, fault plan included. A divergence is legal only when
// flagged degraded; anything else is silent. A nil segment is the empty
// pass-through controller. A side with fates in rec is read from them, not
// replayed: the original's fates, or the data plane's output before the
// controller. The controller segment, the fault draws and the degradation
// policy always run live, in trace order, on every redirected packet, so
// the report is the one two replays give. The whole comparison runs inside
// a "controller.verify" span whose original and data_plane attributes say
// which side was "recorded" or "replayed", and which records how long the
// loop waited on a replayed original (original_wait_us); the loop goes
// batch by batch (so it reports packets/sec), and every redirect, retry
// and degradation decision appears as a child span.
func VerifyChaosEquivalence(ctx context.Context,
	original *p4.Program, originalCfg *rt.Config,
	optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, trace *trafficgen.Trace,
	opts ResilientOptions, rec Recorded) (*EquivalenceReport, error) {
	return verify(ctx, replayFates, original, originalCfg, optimized, optimizedCfg, segment, trace, opts, rec)
}

// replayFunc is replayFates' signature.
type replayFunc func(ctx context.Context, original, dataPlane *sim.Switch, rec Recorded, trace *trafficgen.Trace,
	step func(i int, in sim.Input, fate sim.Fate, dpOut *sim.Output) error) (time.Duration, error)

// verify is VerifyChaosEquivalence over the given replay loop. It builds a
// Switch only for a side it replays.
func verify(ctx context.Context, replay replayFunc,
	original *p4.Program, originalCfg *rt.Config,
	optimized *p4.Program, optimizedCfg *rt.Config,
	segment *p4.Program, trace *trafficgen.Trace,
	opts ResilientOptions, rec Recorded) (*EquivalenceReport, error) {

	n := len(trace.Packets)
	if len(rec.Original) != n {
		rec.Original = nil
	}
	if len(rec.DataPlane) != n {
		rec.DataPlane = nil
	}
	ctx, sp := obs.Start(ctx, "controller.verify", obs.Int("packets", n),
		obs.String("original", source(rec.Original)), obs.String("data_plane", source(rec.DataPlane)))
	defer sp.End()

	var origSwitch, dataPlane *sim.Switch
	var err error
	if rec.Original == nil {
		if origSwitch, err = sim.NewFromAST(original, originalCfg, fateOnly); err != nil {
			return nil, err
		}
		defer origSwitch.Release()
	}
	if rec.DataPlane == nil {
		if dataPlane, err = sim.NewFromAST(optimized, optimizedCfg, fateOnly); err != nil {
			return nil, fmt.Errorf("controller: optimized program: %w", err)
		}
	}
	dep, err := newDeployment(dataPlane, segment, originalCfg, original, opts)
	if err != nil {
		return nil, err
	}
	defer dep.release()

	report := &EquivalenceReport{}
	wait, err := replay(ctx, origSwitch, dataPlane, rec, trace, func(i int, in sim.Input, fate sim.Fate, dpOut *sim.Output) error {
		verdict, err := dep.verdict(ctx, in, dpOut)
		if err != nil {
			return fmt.Errorf("controller: deployment, packet %d: %w", i, err)
		}
		report.Packets++
		if verdict.ViaController {
			report.Redirected++
		}
		if sameFate(fate, verdict) {
			return nil
		}
		report.Mismatches++
		if verdict.Degraded {
			report.Degraded++
			return nil
		}
		report.Silent++
		if report.First == "" {
			report.First = fmt.Sprintf(
				"packet %d: original(drop=%v port=%d cpu=%v) vs deployment(drop=%v port=%d via_ctl=%v notified=%v)",
				i, fate.Dropped, fate.Port, fate.ToCPU,
				verdict.Dropped, verdict.Port, verdict.ViaController, verdict.Notified)
		}
		return nil
	})
	if origSwitch != nil {
		sp.SetAttr(obs.Int64("original_wait_us", wait.Microseconds()))
	}
	if err != nil {
		return nil, err
	}
	report.Stats = dep.Stats()
	report.Faults = opts.Faults.Counts()
	sp.SetAttr(obs.Int("redirected", report.Redirected), obs.Int("mismatches", report.Mismatches),
		obs.Int("degraded", report.Degraded), obs.Int("silent", report.Silent))
	return report, nil
}
