// Replay entry point and flow deduplication. PrepareContext then
// Prepared.Profiler().RunWith is the only way to replay a trace: RunWith
// picks the execution engine (the compiled plan, or the reference
// interpreter when RunOptions.Interpret forces it), decides whether
// flow-level deduplication applies, shards the trace when asked, and
// reports all of it through span attributes and the profile's
// EngineReport.
//
// Flow deduplication replays one weighted representative per distinct
// (ingress port, payload) pair — the trace's flow index, trafficgen's
// Trace.Flows, built once per trace: the pipeline is a deterministic
// function of those two inputs for stateless programs, so replay cost
// drops to O(unique flows) while every profile counter is scaled by the
// representative's multiplicity. The result is guaranteed Profile.Equal
// to the packet-by-packet replay; programs with stateful tables skip
// dedup exactly the way they skip sharding.
package profile

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"p2go/internal/ir"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// RunOptions tunes RunWith.
type RunOptions struct {
	// Shards is the replay worker count; <= 0 means one per CPU. Stateful
	// programs always run on one worker.
	Shards int
	// Interpret forces the tree-walking interpreter — the reference engine
	// the differential tests and bench rows compare against.
	Interpret bool
	// NoDedup disables flow-level trace deduplication.
	NoDedup bool
}

// EngineReport records how a replay actually executed, attached to the
// resulting Profile (and surfaced in report JSON and span attributes).
// It is ignored by Equal/Diff: two replays that produce the same counts
// are the same profile however they were computed.
type EngineReport struct {
	// Engine is "compiled" or "interpreter".
	Engine string `json:"engine"`
	// FallbackReason says why the interpreter ran when it did: "forced"
	// (RunOptions.Interpret). A program that does not lower is an error
	// from PrepareContext, never a slower replay.
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Dedup reports whether flow deduplication was applied; DedupReason
	// says why not when it wasn't ("disabled", "stateful-tables").
	Dedup       bool   `json:"dedup"`
	DedupReason string `json:"dedup_reason,omitempty"`
	// UniquePackets is the number of packets actually replayed: with dedup
	// the trace-wide count of distinct flows, however many shards replayed
	// them; without, the profile's TotalPackets.
	UniquePackets int `json:"unique_packets,omitempty"`
	// Shards is the worker count actually used (never more than there were
	// packets to replay).
	Shards int `json:"shards,omitempty"`
}

// String renders the one-line human form of the block, e.g.
// "compiled, flow dedup 512 unique, 4 shards" or
// "interpreter (forced), no dedup (stateful-tables)".
func (e *EngineReport) String() string {
	var b strings.Builder
	b.WriteString(e.Engine)
	if e.FallbackReason != "" {
		fmt.Fprintf(&b, " (%s)", e.FallbackReason)
	}
	if e.Dedup {
		fmt.Fprintf(&b, ", flow dedup %d unique", e.UniquePackets)
	} else {
		b.WriteString(", no dedup")
		if e.DedupReason != "" {
			fmt.Fprintf(&b, " (%s)", e.DedupReason)
		}
	}
	if e.Shards > 1 {
		fmt.Fprintf(&b, ", %d shards", e.Shards)
	}
	return b.String()
}

// Prepared is the immutable, reusable part of a profiler: the
// instrumented program, its IR, and the lowered execution plan. One
// Prepared serves any number of replays and any number of concurrent
// Profilers, so repeated optimizer phases (and the daemon's analysis
// cache) pay instrumentation and lowering once per (program, config).
type Prepared struct {
	Ins  *Instrumented
	plan *sim.Plan
	// interp builds, on the first forced-interpreter replay, the same
	// pipeline with lowering disabled, and shares it with the later ones.
	interp      func() (*sim.Plan, error)
	stateful    []string
	missDefault map[string]bool
}

// PrepareContext instruments the program, builds its IR, and lowers the
// execution plan under a "profile.instrument" span. Drops are neutralized
// so the collector observes every packet (the instrumented program is only
// used for profiling and never deployed, §3.1), and the plan computes no more
// than the collector reads off a packet: the profiling header and the fate
// (sim.ObserveTrailer; a "sim.plan" child span records what that left of the
// program). A program the lowerer does not cover is an error here.
func PrepareContext(ctx context.Context, ast *p4.Program, cfg *rt.Config) (*Prepared, error) {
	ctx, sp := obs.Start(ctx, "profile.instrument")
	defer sp.End()
	ins, err := Instrument(ast)
	if err != nil {
		return nil, err
	}
	prog, err := ir.Build(ins.AST)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	opts := sim.Options{Trailer: TrailerName, NeutralizeDrops: true, Observe: sim.ObserveTrailer}
	_, psp := obs.Start(ctx, "sim.plan")
	plan, err := sim.NewPlan(prog, cfg, opts)
	if err == nil {
		psp.SetAttr(plan.Lowering().Attrs()...)
	}
	psp.End()
	if err != nil {
		return nil, err
	}
	iopts := opts
	iopts.Interpret = true
	interp := sync.OnceValues(func() (*sim.Plan, error) { return sim.NewPlan(prog, cfg, iopts) })
	sp.SetAttr(obs.Int("tables", len(ins.AST.Tables)))
	return &Prepared{
		Ins:         ins,
		plan:        plan,
		interp:      interp,
		stateful:    StatefulTables(prog),
		missDefault: MissDefaults(ins.AST, cfg),
	}, nil
}

// MissDefaults returns the "table.action" executions that count as a
// (probable) miss: the action is the effective default — a runtime
// table_set_default override, or the declared default — of a table that
// has a reads block. A rule installing the default-named action is
// misclassified as a miss; the standard profiling approximation,
// irrelevant to the example programs; Profile.SkipUnlessMissed, which
// needs exact misses, must not trust the tag on a real default.
func MissDefaults(ast *p4.Program, cfg *rt.Config) map[string]bool {
	md := map[string]bool{}
	for _, t := range ast.Tables {
		if len(t.Reads) == 0 {
			continue
		}
		action := t.DefaultAction
		if cfg != nil {
			if d := cfg.DefaultFor(t.Name); d != nil {
				action = d.Action
			}
		}
		if action != "" {
			md[t.Name+"."+action] = true
		}
	}
	return md
}

// Tables returns the instrumented program's table count (the
// "profile.instrument" span attribute, re-emitted on plan-cache hits).
func (pr *Prepared) Tables() int { return len(pr.Ins.AST.Tables) }

// Lowering reports what the replay plan's lowering kept of the program (the
// "sim.plan" span's attributes, re-emitted on plan-cache hits).
func (pr *Prepared) Lowering() sim.Lowering { return pr.plan.Lowering() }

// Engine reports the execution engine Profilers built from this Prepared
// use by default: always ("compiled", ""), since PrepareContext fails on a
// program that does not lower.
func (pr *Prepared) Engine() (engine, reason string) { return pr.plan.Engine() }

// Profiler instantiates a Profiler over the shared plan. It holds no
// replay state — every RunWith takes its Switches when it starts and
// releases them when it finishes — so one serves concurrent callers. It is
// the only constructor.
func (pr *Prepared) Profiler() *Profiler {
	return &Profiler{Ins: pr.Ins, prep: pr}
}

// RunWith replays the trace and builds the profile. All replay paths —
// sequential, sharded, deduplicated, interpreter-forced — converge here.
// Every run starts from zeroed register state, so repeated runs are
// reproducible. The resulting profile carries an EngineReport describing
// how the replay executed, and is Profile.Equal across every option
// combination (asserted by the differential harness on all bundled
// workloads).
func (p *Profiler) RunWith(ctx context.Context, trace *trafficgen.Trace, opts RunOptions) (*Profile, error) {
	n := len(trace.Packets)
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = min(shards, n)
	dedup := !opts.NoDedup
	dedupReason := ""
	if opts.NoDedup {
		dedupReason = "disabled"
	}
	// Stateful programs (registers both read and written: sketches, Bloom
	// filters) depend on replay order and multiplicity, so they get
	// neither sharding nor dedup. The fallback is recorded on a span so
	// the slow path is visible.
	if stateful := p.prep.stateful; len(stateful) > 0 && (shards > 1 || dedup) {
		_, fsp := obs.Start(ctx, "sim.replay-fallback",
			obs.String("reason", "stateful-tables"),
			obs.String("tables", strings.Join(stateful, ",")))
		fsp.End()
		shards = 1
		if dedup {
			dedup, dedupReason = false, "stateful-tables"
		}
	}
	// work is what gets replayed: the whole trace, or with dedup one
	// representative per flow. Shards split the representatives, so a flow
	// is replayed once however many shards there are.
	work := replayWork{packets: trace.Packets, n: n}
	if dedup {
		flows := trace.Flows()
		work.weights, work.first, work.n = flows.Weights, flows.First, len(flows.First)
	}
	shards = max(1, min(shards, work.n))
	pl := p.prep.plan
	if opts.Interpret {
		var err error
		if pl, err = p.prep.interp(); err != nil {
			return nil, err
		}
	}
	engine, reason := pl.Engine()
	rep := &EngineReport{
		Engine:         engine,
		FallbackReason: reason,
		Dedup:          dedup,
		DedupReason:    dedupReason,
		UniquePackets:  work.n,
		Shards:         shards,
	}
	attrs := []obs.Attr{obs.String("engine", engine), obs.Bool("dedup", dedup)}

	if shards == 1 {
		if dedup {
			attrs = append(attrs, obs.Int("unique_packets", work.n))
		}
		sw := sim.NewFromPlan(pl)
		defer sw.Release()
		col := newCollector(p, sw)
		err := sim.ReplayBatch(ctx, n, work.n, func(lo, hi int) error {
			return col.observeBatch(work, lo, hi)
		}, attrs...)
		if err != nil {
			return nil, err
		}
		prof := col.profile()
		prof.Engine = rep
		prof.classes = parseClasses(prof.Sets)
		return prof, nil
	}

	spanAttrs := append([]obs.Attr{obs.Int("packets", n), obs.Int("shards", shards)}, attrs...)
	ctx, sp := obs.Start(ctx, "sim.replay-sharded", spanAttrs...)
	defer sp.End()
	start := time.Now()

	parts := make([]*Profile, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo := w * work.n / shards
		hi := (w + 1) * work.n / shards
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w], errs[w] = p.replayShard(ctx, pl, work, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	// First error in shard (trace) order, so a bad packet reports the
	// same failure whatever the worker scheduling was.
	for _, err := range errs {
		if err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
			return nil, err
		}
	}
	merged := MergeProfiles(parts...)
	if dedup {
		sp.SetAttr(obs.Int("unique_packets", work.n))
	}
	sp.SetAttr(obs.Float("packets_per_sec", sim.Throughput(merged.TotalPackets, time.Since(start))))
	merged.Engine = rep
	merged.classes = parseClasses(merged.Sets)
	return merged, nil
}

// replayWork is the packet sequence one RunWith replays: positions [0, n)
// are the trace's packets themselves or, when weights and first are set,
// its flows — position i standing for packets[first[i]] weights[i] times.
type replayWork struct {
	packets        []trafficgen.Packet
	weights, first []int
	n              int
}

// index maps a replay position to its trace index.
func (w *replayWork) index(i int) int {
	if w.first != nil {
		return w.first[i]
	}
	return i
}

// replayShard replays positions [lo, hi) of the work on a Switch of its
// own, built from the shared plan, and returns the shard's profile.
func (p *Profiler) replayShard(ctx context.Context, pl *sim.Plan, work replayWork, lo, hi int) (*Profile, error) {
	sw := sim.NewFromPlan(pl)
	defer sw.Release()
	col := newCollector(p, sw)
	// Check cancellation between batches: a canceled profile should stop
	// burning CPU on a large shard.
	for b := lo; b < hi; b += sim.ReplayBatchSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := col.observeBatch(work, b, min(b+sim.ReplayBatchSize, hi)); err != nil {
			return nil, err
		}
	}
	return col.profile(), nil
}
