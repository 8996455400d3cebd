package online

import (
	"fmt"

	"p2go/internal/faults"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/sim"
)

// RollbackGuard wires the drift monitor to an automatic safety net: it
// forwards traffic through the monitored optimized program and, the
// moment the live profile drifts from the baseline (or the monitored
// data plane errors), reverts to a standby copy of the original,
// unoptimized program. The optimized program's specializations are only
// valid while the profile holds (§6, "Dynamic compilation"); once it is
// stale the original is the only program known to be correct for the
// new mix, so the guard fails back to it rather than keep serving
// assumptions that no longer hold. Reinstate returns to the optimized
// program after the operator re-runs P2GO on the recorded fresh trace.
type RollbackGuard struct {
	mon      *Monitor
	fallback *sim.Switch
	faults   *faults.Set

	rolledBack bool
	reason     string
	rollbacks  int
	processed  int
}

// GuardOptions tunes the guard.
type GuardOptions struct {
	// Monitor tunes the underlying drift monitor.
	Monitor Config
	// Faults is the fault-injection set; firing faults.SimStep simulates
	// a monitored-data-plane error (which triggers a rollback). nil is
	// inert.
	Faults *faults.Set
}

// NewRollbackGuard builds the guard: the optimized program runs under
// the drift monitor, and a standby switch holds the original program.
func NewRollbackGuard(optimized *p4.Program, optimizedCfg *rt.Config,
	original *p4.Program, originalCfg *rt.Config,
	baseline *profile.Profile, opts GuardOptions) (*RollbackGuard, error) {
	if original == nil {
		return nil, fmt.Errorf("online: the rollback guard needs the original program")
	}
	mon, err := NewMonitor(optimized, optimizedCfg, baseline, opts.Monitor)
	if err != nil {
		return nil, err
	}
	fallback, err := sim.NewFromAST(original, originalCfg, sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("online: original program: %w", err)
	}
	return &RollbackGuard{mon: mon, fallback: fallback, faults: opts.Faults}, nil
}

// Process forwards one packet. Before a rollback it runs the monitored
// optimized program; after, the original. A drift detection or a monitor
// error flips to the original for every subsequent packet — the packet
// that exposed the problem is served by the fallback too when the
// monitor failed on it, and by the optimized program when only the
// profile (not the verdict) went stale.
func (g *RollbackGuard) Process(in sim.Input) (sim.Output, error) {
	g.processed++
	if g.rolledBack {
		return g.fallback.Process(in)
	}
	if ferr := g.faults.Err(faults.SimStep); ferr != nil {
		g.trip(fmt.Sprintf("monitor error: %v", ferr))
		return g.fallback.Process(in)
	}
	out, err := g.mon.Process(in)
	if err != nil {
		g.trip(fmt.Sprintf("monitor error: %v", err))
		return g.fallback.Process(in)
	}
	if g.mon.Stale() {
		g.trip(fmt.Sprintf("profile drift: %v", g.mon.Drifts()[0]))
	}
	return out, nil
}

func (g *RollbackGuard) trip(reason string) {
	g.rolledBack = true
	g.reason = reason
	g.rollbacks++
}

// RolledBack reports whether the guard is serving the original program.
func (g *RollbackGuard) RolledBack() bool { return g.rolledBack }

// Reason describes what triggered the most recent rollback.
func (g *RollbackGuard) Reason() string { return g.reason }

// Rollbacks counts how many times the guard has tripped over its life
// (Reinstate re-arms it; a later drift trips it again).
func (g *RollbackGuard) Rollbacks() int { return g.rollbacks }

// Monitor exposes the underlying drift monitor (for RecentTrace — the
// fresh packets to re-run P2GO with — and drift reports).
func (g *RollbackGuard) Monitor() *Monitor { return g.mon }

// Reinstate returns traffic to the (presumably re-optimized) program and
// re-arms drift detection. The caller typically rebuilds the guard with
// the new program; Reinstate covers the false-alarm path where the old
// optimized program is kept.
func (g *RollbackGuard) Reinstate() {
	g.rolledBack = false
	g.reason = ""
	g.mon.Reset()
}
