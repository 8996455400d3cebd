// Package report defines the machine-readable job-result schema shared by
// the `p2go -json` command-line flags and the p2god HTTP service: one JSON
// shape for the outcome of a profile or optimize run, whichever surface it
// came through.
package report

import (
	"fmt"

	"p2go/internal/controller"
	"p2go/internal/core"
	"p2go/internal/p4"
	"p2go/internal/prof"
	"p2go/internal/profile"
)

// JobResult is the outcome of one profile or optimize run.
type JobResult struct {
	Kind     string `json:"kind"` // "profile" or "optimize"
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed"`

	// Optimize fields.
	StagesBefore       int           `json:"stages_before,omitempty"`
	StagesAfter        int           `json:"stages_after,omitempty"`
	History            []Stage       `json:"history,omitempty"`
	Passes             []Pass        `json:"passes,omitempty"`
	Observations       []Observation `json:"observations,omitempty"`
	OffloadedTables    []string      `json:"offloaded_tables,omitempty"`
	RedirectedFraction float64       `json:"redirected_fraction,omitempty"`
	OptimizedP4        string        `json:"optimized_p4,omitempty"`
	ControllerP4       string        `json:"controller_p4,omitempty"`
	FinalProfile       *Profile      `json:"final_profile,omitempty"`

	// Bindings is the canonical "name=value,name=value" rendering of the
	// @tunable assignments the run operated under (submitted or found by
	// the tune pass); empty for knob-free programs.
	Bindings string `json:"bindings,omitempty"`
	// Tunables lists each knob's declared range and final value.
	Tunables []TunedKnob `json:"tunables,omitempty"`

	// Profile is the Phase 1 profile: the whole result of a profile run,
	// the original program's profile of an optimize run.
	Profile *Profile `json:"profile,omitempty"`

	// Equivalence is the behavior check verdict, when the caller ran one
	// (the CLI does; the service leaves it empty).
	Equivalence string `json:"equivalence,omitempty"`

	// Resilience reports the failure-handling counters when the run was
	// verified under fault injection (`p2go optimize -faults ...`).
	Resilience *Resilience `json:"resilience,omitempty"`

	// Resources attributes the run's own resource consumption (CPU time,
	// allocations, GC work, peaks) when the surface that ran it metered
	// it — p2god does; the CLI leaves it empty.
	Resources *Resources `json:"resources,omitempty"`
}

// TunedKnob is one @tunable symbol's declared range and final value.
type TunedKnob struct {
	Name    string `json:"name"`
	Min     int    `json:"min"`
	Max     int    `json:"max"`
	Default int    `json:"default"`
	Value   int    `json:"value"`
}

// Resources is the resource-attribution block: what one run cost the
// process that executed it. CPU seconds are the process-wide rusage
// delta while the job ran — exact when the job ran alone, an upper
// bound when workers ran concurrently (documented rather than hidden:
// splitting rusage across goroutines is not possible from user space).
type Resources struct {
	WallSeconds   float64 `json:"wall_seconds"`
	CPUSeconds    float64 `json:"cpu_seconds"`
	AllocBytes    int64   `json:"alloc_bytes"`
	AllocObjects  int64   `json:"alloc_objects"`
	GCCycles      int64   `json:"gc_cycles"`
	HeapPeakBytes int64   `json:"heap_peak_bytes"`
	GoroutinePeak int     `json:"goroutine_peak"`
}

// FromUsage converts a measured prof.Usage into the report block.
func FromUsage(u prof.Usage) *Resources {
	return &Resources{
		WallSeconds:   u.WallSeconds,
		CPUSeconds:    u.CPUSeconds,
		AllocBytes:    u.AllocBytes,
		AllocObjects:  u.AllocObjects,
		GCCycles:      u.GCCycles,
		HeapPeakBytes: u.HeapPeakBytes,
		GoroutinePeak: u.GoroutinePeak,
	}
}

// Fleet device statuses.
const (
	// FleetOptimized: the device was optimized and carries a Result.
	FleetOptimized = "optimized"
	// FleetSkipped: the device was deliberately not optimized (Reason says
	// why — typically an empty trace).
	FleetSkipped = "skipped"
	// FleetFailed: the device's collection or optimization errored.
	FleetFailed = "failed"
)

// FleetDevice is one device's row in a fleet result: exactly one of
// Result (optimized), Reason (skipped), or Error (failed) is meaningful,
// selected by Status.
type FleetDevice struct {
	Device string `json:"device"`
	Status string `json:"status"`
	// Reason says why a skipped device was not optimized.
	Reason string `json:"reason,omitempty"`
	// Error is the failure text of a failed device.
	Error string `json:"error,omitempty"`
	// Packets is how much of the injected traffic this device saw.
	Packets int `json:"packets"`
	// Cached reports the row was served from the device artifact cache
	// (a previous fleet run already optimized identical inputs).
	Cached bool `json:"cached,omitempty"`
	// Result is the device's optimize outcome, in the same schema as a
	// single-program optimize job.
	Result *JobResult `json:"result,omitempty"`
}

// FleetResult is the outcome of one network-wide fleet optimization job:
// per-device rows plus the fleet-level aggregates.
type FleetResult struct {
	Kind string `json:"kind"` // always "fleet"
	Name string `json:"name,omitempty"`

	DeviceCount int `json:"device_count"`
	Optimized   int `json:"optimized"`
	Skipped     int `json:"skipped"`
	Failed      int `json:"failed"`

	// StagesBefore/After sum the optimized devices' pipeline lengths.
	StagesBefore int `json:"stages_before"`
	StagesAfter  int `json:"stages_after"`

	// TotalPackets sums the traffic every device saw; Redirected*
	// aggregate the optimized programs' controller redirections.
	TotalPackets       int     `json:"total_packets"`
	RedirectedPackets  int     `json:"redirected_packets"`
	RedirectedFraction float64 `json:"redirected_fraction"`

	// Cross-device analysis-cache counters: with a shared cache, devices
	// running the same program dedup compiles and profiles, so hits grow
	// with fleet homogeneity while misses track unique analyses.
	CompileHits   int `json:"compile_cache_hits"`
	CompileMisses int `json:"compile_cache_misses"`
	ProfileHits   int `json:"profile_cache_hits"`
	ProfileMisses int `json:"profile_cache_misses"`

	Devices []FleetDevice `json:"devices"`

	DurationSeconds float64 `json:"duration_seconds,omitempty"`

	// Resources attributes the whole fleet job's resource consumption on
	// the daemon that ran it. Attribution only: FleetEquivalent ignores
	// it, like timings and cache counters.
	Resources *Resources `json:"resources,omitempty"`

	// Replica names the p2god replica that produced this result, when the
	// job ran in a replica group. Attribution only: FleetEquivalent
	// ignores it, so a report computed by a survivor after takeover
	// compares equal to one computed uninterrupted.
	Replica string `json:"replica,omitempty"`
}

// FleetEquivalent compares two fleet results for semantic equality: same
// devices, same per-device outcomes, same optimized programs, same
// fleet-level aggregates. Fields that legitimately differ between an
// uninterrupted run and a kill/takeover re-run — timings, cache-hit
// counters, per-row Cached flags, and replica attribution — are ignored.
// It returns the differences found (empty means equivalent), so a chaos
// harness can say exactly what diverged.
func FleetEquivalent(a, b *FleetResult) []string {
	var diffs []string
	diff := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }
	if a == nil || b == nil {
		if a != b {
			diff("one result is nil (a=%v b=%v)", a == nil, b == nil)
		}
		return diffs
	}
	if a.Kind != b.Kind || a.Name != b.Name {
		diff("identity: %s/%s vs %s/%s", a.Kind, a.Name, b.Kind, b.Name)
	}
	if a.DeviceCount != b.DeviceCount || a.Optimized != b.Optimized ||
		a.Skipped != b.Skipped || a.Failed != b.Failed {
		diff("status counts: %d/%d/%d/%d vs %d/%d/%d/%d (devices/optimized/skipped/failed)",
			a.DeviceCount, a.Optimized, a.Skipped, a.Failed,
			b.DeviceCount, b.Optimized, b.Skipped, b.Failed)
	}
	if a.StagesBefore != b.StagesBefore || a.StagesAfter != b.StagesAfter {
		diff("fleet stages: %d->%d vs %d->%d", a.StagesBefore, a.StagesAfter, b.StagesBefore, b.StagesAfter)
	}
	if a.TotalPackets != b.TotalPackets || a.RedirectedPackets != b.RedirectedPackets {
		diff("traffic: %d total/%d redirected vs %d/%d",
			a.TotalPackets, a.RedirectedPackets, b.TotalPackets, b.RedirectedPackets)
	}
	rows := func(r *FleetResult) map[string]FleetDevice {
		m := make(map[string]FleetDevice, len(r.Devices))
		for _, d := range r.Devices {
			m[d.Device] = d
		}
		return m
	}
	am, bm := rows(a), rows(b)
	for name, ad := range am {
		bd, ok := bm[name]
		if !ok {
			diff("device %s: only in first result", name)
			continue
		}
		if ad.Status != bd.Status || ad.Reason != bd.Reason || ad.Packets != bd.Packets {
			diff("device %s: %s/%q/%d pkts vs %s/%q/%d pkts",
				name, ad.Status, ad.Reason, ad.Packets, bd.Status, bd.Reason, bd.Packets)
			continue
		}
		ar, br := ad.Result, bd.Result
		if (ar == nil) != (br == nil) {
			diff("device %s: result present in one run only", name)
			continue
		}
		if ar == nil {
			continue
		}
		if ar.StagesBefore != br.StagesBefore || ar.StagesAfter != br.StagesAfter {
			diff("device %s: stages %d->%d vs %d->%d",
				name, ar.StagesBefore, ar.StagesAfter, br.StagesBefore, br.StagesAfter)
		}
		if ar.OptimizedP4 != br.OptimizedP4 {
			diff("device %s: optimized programs differ", name)
		}
		if !slicesEqual(ar.OffloadedTables, br.OffloadedTables) {
			diff("device %s: offloaded tables %v vs %v", name, ar.OffloadedTables, br.OffloadedTables)
		}
	}
	for name := range bm {
		if _, ok := am[name]; !ok {
			diff("device %s: only in second result", name)
		}
	}
	return diffs
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AggregateFleet folds per-device rows into a FleetResult: status counts,
// fleet stage totals, and aggregate redirected traffic. Cache counters
// and duration are the caller's to fill (they come from the shared
// analysis cache, not the rows).
func AggregateFleet(name string, devices []FleetDevice) *FleetResult {
	out := &FleetResult{Kind: "fleet", Name: name, DeviceCount: len(devices), Devices: devices}
	replayed := 0
	for _, d := range devices {
		out.TotalPackets += d.Packets
		switch d.Status {
		case FleetOptimized:
			out.Optimized++
			if d.Result != nil {
				out.StagesBefore += d.Result.StagesBefore
				out.StagesAfter += d.Result.StagesAfter
				if fp := d.Result.FinalProfile; fp != nil {
					out.RedirectedPackets += fp.ToCPU
					replayed += fp.TotalPackets
				}
			}
		case FleetSkipped:
			out.Skipped++
		case FleetFailed:
			out.Failed++
		}
	}
	if replayed > 0 {
		out.RedirectedFraction = float64(out.RedirectedPackets) / float64(replayed)
	}
	return out
}

// Resilience is the machine-readable view of every degradation path a
// fault-injected run took. All counters are zero on a clean run; the
// invariant the chaos harness enforces is that divergences are counted
// here, never silent.
type Resilience struct {
	FaultPlan         string         `json:"fault_plan,omitempty"`
	Policy            string         `json:"policy,omitempty"`
	Redirected        int            `json:"redirected"`
	Delivered         int            `json:"delivered"`
	Retries           int            `json:"redirect_retries,omitempty"`
	Failovers         int            `json:"failovers,omitempty"`
	Delayed           int            `json:"delayed,omitempty"`
	Lost              int            `json:"lost,omitempty"`
	StaleServed       int            `json:"stale_served,omitempty"`
	DegradedPass      int            `json:"degraded_pass,omitempty"`
	DegradedDrop      int            `json:"degraded_drop,omitempty"`
	DegradedFallback  int            `json:"degraded_fallback,omitempty"`
	DegradedVerdicts  int            `json:"degraded_verdicts"`
	SilentDivergences int            `json:"silent_divergences"`
	FaultsFired       map[string]int `json:"faults_fired,omitempty"`
}

// Pass is one executed optimization pass, in execution order (the
// implicit phase1 profiling pass first): how long it ran, how many of its
// compiles/profiles the analysis cache answered, and how many
// observations it produced.
type Pass struct {
	ID              string  `json:"id"`
	DurationSeconds float64 `json:"duration_seconds"`
	CompileHits     int     `json:"compile_cache_hits"`
	CompileMisses   int     `json:"compile_cache_misses"`
	ProfileHits     int     `json:"profile_cache_hits"`
	ProfileMisses   int     `json:"profile_cache_misses"`
	Observations    int     `json:"observations"`
}

// Stage is one row of the Table 2-style stage history.
type Stage struct {
	Label           string  `json:"label"`
	Stages          int     `json:"stages"`
	IngressStages   int     `json:"ingress_stages"`
	EgressStages    int     `json:"egress_stages,omitempty"`
	Fits            bool    `json:"fits"`
	Summary         string  `json:"summary"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// Observation is one profile-guided finding with its evidence.
type Observation struct {
	Phase        string            `json:"phase"`
	Kind         string            `json:"kind"`
	Accepted     bool              `json:"accepted"`
	Summary      string            `json:"summary"`
	Evidence     string            `json:"evidence"`
	Tables       []string          `json:"tables,omitempty"`
	StagesBefore int               `json:"stages_before"`
	StagesAfter  int               `json:"stages_after"`
	Details      map[string]string `json:"details,omitempty"`
}

// Profile is the serialized form of a Phase 1 profile.
type Profile struct {
	TotalPackets     int                `json:"total_packets"`
	HitRates         map[string]float64 `json:"hit_rates"`
	Hits             map[string]int     `json:"hits"`
	Applied          map[string]int     `json:"applied"`
	Drops            int                `json:"drops"`
	ToCPU            int                `json:"to_cpu"`
	NonExclusiveSets []ActionSet        `json:"non_exclusive_sets,omitempty"`
	// ReplayEngine records how the replay executed (compiled, or the
	// forced interpreter; dedup on/off and why not; shards) so the path
	// taken is visible in the report, not just in wall-clock time.
	ReplayEngine *profile.EngineReport `json:"replay_engine,omitempty"`
}

// ActionSet is one observed set of non-exclusive actions (Table 1).
type ActionSet struct {
	Members []string `json:"members"`
	Count   int      `json:"count"`
}

// FromChaos serializes a chaos-equivalence run's degradation counters.
func FromChaos(rep *controller.ChaosReport, plan, policy string) *Resilience {
	return &Resilience{
		FaultPlan:         plan,
		Policy:            policy,
		Redirected:        rep.Redirected,
		Delivered:         rep.Stats.Delivered,
		Retries:           rep.Stats.Retries,
		Failovers:         rep.Stats.Failovers,
		Delayed:           rep.Stats.Delayed,
		Lost:              rep.Stats.Lost,
		StaleServed:       rep.Stats.StaleServed,
		DegradedPass:      rep.Stats.DegradedPass,
		DegradedDrop:      rep.Stats.DegradedDrop,
		DegradedFallback:  rep.Stats.DegradedFallback,
		DegradedVerdicts:  rep.Degraded,
		SilentDivergences: rep.Silent,
		FaultsFired:       rep.Faults,
	}
}

// FromProfile serializes a profile run.
func FromProfile(workload string, seed int64, p *profile.Profile) *JobResult {
	return &JobResult{
		Kind:     "profile",
		Workload: workload,
		Seed:     seed,
		Profile:  convertProfile(p),
	}
}

// FromResult serializes an optimize run.
func FromResult(workload string, seed int64, res *core.Result) *JobResult {
	out := &JobResult{
		Kind:               "optimize",
		Workload:           workload,
		Seed:               seed,
		StagesBefore:       res.StagesBefore(),
		StagesAfter:        res.StagesAfter(),
		OffloadedTables:    res.OffloadedTables,
		RedirectedFraction: res.RedirectedFraction,
		OptimizedP4:        p4.Print(res.Optimized),
		Profile:            convertProfile(res.Profile),
		FinalProfile:       convertProfile(res.FinalProfile),
	}
	if res.ControllerProgram != nil {
		out.ControllerP4 = p4.Print(res.ControllerProgram)
	}
	if len(res.Bindings) > 0 {
		out.Bindings = p4.FormatBindings(res.Bindings)
	}
	for _, k := range res.Tunables {
		out.Tunables = append(out.Tunables, TunedKnob{
			Name: k.Name, Min: k.Min, Max: k.Max, Default: k.Default, Value: k.Value,
		})
	}
	for _, h := range res.History {
		out.History = append(out.History, Stage{
			Label:           h.Label,
			Stages:          h.Stages,
			IngressStages:   h.IngressStages,
			EgressStages:    h.EgressStages,
			Fits:            h.Fits,
			Summary:         h.Summary,
			DurationSeconds: h.Duration.Seconds(),
		})
	}
	for _, s := range res.PassStats {
		out.Passes = append(out.Passes, Pass{
			ID:              s.ID,
			DurationSeconds: s.Duration.Seconds(),
			CompileHits:     s.CompileHits,
			CompileMisses:   s.CompileMisses,
			ProfileHits:     s.ProfileHits,
			ProfileMisses:   s.ProfileMisses,
			Observations:    s.Observations,
		})
	}
	for _, o := range res.Observations {
		out.Observations = append(out.Observations, Observation{
			Phase:        o.Phase.String(),
			Kind:         o.Kind,
			Accepted:     o.Accepted,
			Summary:      o.Summary,
			Evidence:     o.Evidence,
			Tables:       o.Tables,
			StagesBefore: o.StagesBefore,
			StagesAfter:  o.StagesAfter,
			Details:      o.Details,
		})
	}
	return out
}

func convertProfile(p *profile.Profile) *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{
		TotalPackets: p.TotalPackets,
		HitRates:     map[string]float64{},
		Hits:         p.Hits,
		Applied:      p.Applied,
		Drops:        p.Drops,
		ToCPU:        p.ToCPU,
		ReplayEngine: p.Engine,
	}
	for t := range p.Applied {
		out.HitRates[t] = p.HitRate(t)
	}
	for _, s := range p.NonExclusiveSets(2) {
		out.NonExclusiveSets = append(out.NonExclusiveSets, ActionSet{Members: s.Members, Count: s.Count})
	}
	return out
}
