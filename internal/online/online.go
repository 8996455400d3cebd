// Package online implements the paper's first future-work direction (§6,
// "Dynamic compilation"): online profiling. P2GO's offline optimizations
// are only valid while the computed profile stays representative; this
// package classifies each forwarded packet's table applications the way
// the offline profiler does, maintains a sliding-window profile at a
// configurable sampling rate (the paper's accuracy-vs-overhead trade-off),
// detects when the live profile drifts from the baseline, and records
// recent traffic so the operator can re-run P2GO with a fresh,
// representative trace.
package online

import (
	"fmt"

	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// Config tunes the monitor.
type Config struct {
	// WindowSize is the number of processed packets per profiling window
	// (default 5000).
	WindowSize int
	// SampleEvery profiles every Nth packet (default 1 = every packet).
	// Larger values model cheaper monitoring at lower accuracy.
	SampleEvery int
	// MaxHitRateDelta is the absolute per-table hit-rate drift that
	// marks the baseline profile stale (default 0.05).
	MaxHitRateDelta float64
	// RecordLast keeps the most recent N packets for re-profiling
	// (default = WindowSize).
	RecordLast int
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 5000
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.MaxHitRateDelta <= 0 {
		c.MaxHitRateDelta = 0.05
	}
	if c.RecordLast <= 0 {
		c.RecordLast = c.WindowSize
	}
	return c
}

// Drift reports one table whose windowed hit rate left the baseline band.
type Drift struct {
	Window   int
	Table    string
	Baseline float64
	Observed float64
}

func (d Drift) String() string {
	return fmt.Sprintf("window %d: table %s hit rate %.3f vs baseline %.3f",
		d.Window, d.Table, d.Observed, d.Baseline)
}

// Monitor is a data plane with windowed online profiling.
type Monitor struct {
	cfg      Config
	sw       *sim.Switch
	baseline *profile.Profile
	// missDefault classifies default-action executions as misses exactly
	// the way the offline profiler that produced baseline did.
	missDefault map[string]bool

	processed int
	windowID  int
	winCount  int // packets attributed to the current window
	winSample int // sampled packets in the current window
	winHits   map[string]int

	drifts []Drift
	recent []trafficgen.Packet
	next   int // ring-buffer cursor
	full   bool
}

// NewMonitor boots the (optimized) program and wires it against the
// baseline profile the offline run produced.
func NewMonitor(ast *p4.Program, rules *rt.Config, baseline *profile.Profile, cfg Config) (*Monitor, error) {
	if baseline == nil {
		return nil, fmt.Errorf("online: a baseline profile is required")
	}
	sw, err := sim.NewFromAST(ast, rules, sim.Options{})
	if err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	return &Monitor{
		cfg:         c,
		sw:          sw,
		baseline:    baseline,
		missDefault: profile.MissDefaults(ast, rules),
		winHits:     map[string]int{},
		recent:      make([]trafficgen.Packet, c.RecordLast),
	}, nil
}

// Process forwards one packet through the monitored data plane and returns
// its output.
func (m *Monitor) Process(in sim.Input) (sim.Output, error) {
	out, err := m.sw.Process(in)
	if err != nil {
		return sim.Output{}, err
	}
	m.record(in)
	m.processed++
	m.winCount++
	if m.processed%m.cfg.SampleEvery == 0 {
		m.winSample++
		// A table is applied at most once per packet (p4.Check). A miss
		// runs the default action, or none.
		for _, e := range out.Exec {
			if e.Action != "" && !m.missDefault[e.Table+"."+e.Action] {
				m.winHits[e.Table]++
			}
		}
	}
	if m.winCount >= m.cfg.WindowSize {
		m.closeWindow()
	}
	return out, nil
}

// closeWindow compares the window's hit rates with the baseline.
func (m *Monitor) closeWindow() {
	if m.winSample > 0 {
		tables := map[string]bool{}
		for tbl := range m.winHits {
			tables[tbl] = true
		}
		for tbl := range m.baseline.Hits {
			tables[tbl] = true
		}
		for tbl := range tables {
			base := m.baseline.HitRate(tbl)
			obs := float64(m.winHits[tbl]) / float64(m.winSample)
			if delta := obs - base; delta > m.cfg.MaxHitRateDelta || -delta > m.cfg.MaxHitRateDelta {
				m.drifts = append(m.drifts, Drift{
					Window: m.windowID, Table: tbl, Baseline: base, Observed: obs,
				})
			}
		}
	}
	m.windowID++
	m.winCount = 0
	m.winSample = 0
	m.winHits = map[string]int{}
}

// record keeps the packet in the ring buffer.
func (m *Monitor) record(in sim.Input) {
	m.recent[m.next] = trafficgen.Packet{Port: in.Port, Data: append([]byte(nil), in.Data...)}
	m.next++
	if m.next == len(m.recent) {
		m.next = 0
		m.full = true
	}
}

// Stale reports whether any window drifted from the baseline.
func (m *Monitor) Stale() bool { return len(m.drifts) > 0 }

// Drifts returns the recorded drift reports.
func (m *Monitor) Drifts() []Drift { return append([]Drift(nil), m.drifts...) }

// Windows returns how many complete windows have been evaluated.
func (m *Monitor) Windows() int { return m.windowID }

// RecentTrace returns the most recent recorded packets, oldest first — the
// fresh trace to re-run P2GO with.
func (m *Monitor) RecentTrace() *trafficgen.Trace {
	out := &trafficgen.Trace{}
	if m.full {
		for i := m.next; i < len(m.recent); i++ {
			out.Packets = append(out.Packets, m.recent[i])
		}
	}
	for i := 0; i < m.next; i++ {
		out.Packets = append(out.Packets, m.recent[i])
	}
	return out
}

// Reset clears windows, drift reports, and the recorder (register state of
// the data plane is preserved; it belongs to the program).
func (m *Monitor) Reset() {
	m.processed = 0
	m.windowID = 0
	m.winCount = 0
	m.winSample = 0
	m.winHits = map[string]int{}
	m.drifts = nil
	m.next = 0
	m.full = false
}
