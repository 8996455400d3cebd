// Replay entry point and flow deduplication. PrepareContext then
// Prepared.Profiler().RunWith is the only way to replay a trace: RunWith
// picks the execution engine (the compiled plan, or the reference
// interpreter when RunOptions.Interpret forces it), decides whether
// flow-level deduplication applies, shards the trace when asked, and
// reports all of it through span attributes and the profile's
// EngineReport. A stateful program replays on one Switch in trace order;
// given two workers or more, that one shard is pipelined instead
// (sim.Switch.ProcessPipelined): a second goroutine parses the next batch
// and folds the last one while the Switch executes, with the same result.
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
	"p2go/internal/pool"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

// RunOptions tunes RunWith.
type RunOptions struct {
	// Shards is the replay worker count; <= 0 means one per CPU. Stateful
	// programs always replay on one Switch: at two workers or more that
	// one shard is pipelined over two goroutines (parse and fold beside
	// execution), at one it runs on the caller's alone.
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
// instrumented program and the program's lowered execution plan. One
// Prepared serves any number of replays and any number of concurrent
// Profilers, so repeated optimizer phases (and the daemon's analysis
// cache) pay instrumentation and lowering once per (program, config).
type Prepared struct {
	Ins  *Instrumented
	plan *sim.Plan
	// interp builds, on the first forced-interpreter replay, the program's
	// fate-level interpreter plan, and shares it with the later ones.
	interp   func() (*sim.Plan, error)
	stateful []string
	// missSlot says, per execution-mark slot, whether executing it counts as
	// a (probable) miss: a miss slot, or a table's effective default.
	missSlot []bool
	tables   int
}

// PrepareContext instruments the program and lowers the program itself
// under a "profile.instrument" span. Both engines replay the program
// itself at the fate level (sim.ObserveFate): each packet's Data is its
// execution marks, read off the program's own apply records in the order
// of the instrumented program's marker fields, so drops and egress behave
// as on the target. The compiled plan is lowered here (a "sim.plan" child
// span records what that left of the program; a program the lowerer does
// not cover is an error); the interpreter's is built from the rules at the
// first replay that forces it. The instrumented clone (§3.1) is the
// printable artifact and names the markers; nothing replays it.
func PrepareContext(ctx context.Context, ast *p4.Program, cfg *rt.Config) (*Prepared, error) {
	ctx, sp := obs.Start(ctx, "profile.instrument")
	defer sp.End()
	ins, err := Instrument(ast)
	if err != nil {
		return nil, err
	}
	ast = p4.Clone(ast)
	p4.EnsureBuiltins(ast)
	prog, err := ir.Build(ast)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	_, psp := obs.Start(ctx, "sim.plan")
	plan, err := sim.NewPlan(prog, cfg, sim.Options{Observe: sim.ObserveFate})
	if err == nil {
		psp.SetAttr(plan.Lowering().Attrs()...)
	}
	psp.End()
	if err != nil {
		return nil, err
	}
	md := MissDefaults(ast, cfg)
	marks := sim.Marks(ast)
	missSlot := make([]bool, len(marks))
	for i, m := range marks {
		missSlot[i] = m.Miss || md[m.Table+"."+m.Action]
	}
	sp.SetAttr(obs.Int("tables", len(ast.Tables)))
	return &Prepared{
		Ins:  ins,
		plan: plan,
		interp: sync.OnceValues(func() (*sim.Plan, error) {
			return sim.NewPlan(prog, cfg, sim.Options{Interpret: true, Observe: sim.ObserveFate})
		}),
		stateful: StatefulTables(prog),
		missSlot: missSlot,
		tables:   len(ast.Tables),
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

// Tables returns the program's table count (the "profile.instrument" span
// attribute, re-emitted on plan-cache hits).
func (pr *Prepared) Tables() int { return pr.tables }

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
// workloads). It also carries the replay's outcome vector, one sim.Outcome
// per replayed position, the same at every trace index across those
// combinations, which answers only once bound to a key (BindFates).
func (p *Profiler) RunWith(ctx context.Context, trace *trafficgen.Trace, opts RunOptions) (*Profile, error) {
	n := len(trace.Packets)
	budget := pool.Workers(opts.Shards)
	shards := min(budget, n)
	dedup := !opts.NoDedup
	dedupReason := ""
	if opts.NoDedup {
		dedupReason = "disabled"
	}
	// Stateful programs (registers both read and written: sketches, Bloom
	// filters) depend on replay order and multiplicity, so they get
	// neither sharding nor dedup. The fallback is recorded on a span so
	// the slow path is visible. With a budget of two workers or more the
	// one compiled Switch is pipelined instead: a second goroutine parses
	// and folds while it executes, in the same order.
	stateful := p.prep.stateful
	pipelined := len(stateful) > 0 && budget > 1 && !opts.Interpret
	if len(stateful) > 0 && (shards > 1 || dedup) {
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
		work.weights, work.first, work.flow, work.n = flows.Weights, flows.First, flows.ID, len(flows.First)
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
	// One loop for every shard count: the pool runs one shard inline and
	// fans more out, each shard replaying its contiguous slice of the work
	// on a Switch of its own, built from the shared plan.
	name := "sim.replay"
	attrs := []obs.Attr{obs.Int("packets", n), obs.String("engine", engine), obs.Bool("dedup", dedup)}
	if shards > 1 {
		name = "sim.replay-sharded"
		attrs = append(attrs, obs.Int("shards", shards))
	}
	if dedup {
		attrs = append(attrs, obs.Int("unique_packets", work.n))
	}
	if pipelined {
		attrs = append(attrs, obs.Bool("pipeline", true))
	}
	_, sp := obs.Start(ctx, name, attrs...)
	defer sp.End()
	start := time.Now()
	parts := make([]*Profile, shards)
	// Every shard records the outcomes of its own range of positions.
	fates := make([]sim.Outcome, work.n)
	// The pool reports the lowest shard's error, so a bad packet reports
	// the same failure whatever the worker scheduling was.
	err := pool.ForEachIndexed(ctx, shards, shards, func(w int) error {
		sw := sim.NewFromPlan(pl)
		defer sw.Release()
		col := newCollector(p, sw, fates)
		lo, hi := w*work.n/shards, (w+1)*work.n/shards
		var err error
		if pipelined {
			err = col.observePipelined(ctx, work, lo, hi)
		} else {
			err = col.observeRange(ctx, work, lo, hi)
		}
		if err != nil {
			return err
		}
		parts[w] = col.profile()
		return nil
	})
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	prof := parts[0]
	if shards > 1 {
		prof = MergeProfiles(parts...)
	}
	if n > 0 {
		sp.SetAttr(obs.Float("packets_per_sec", sim.Throughput(n, time.Since(start))))
	}
	prof.Engine = rep
	prof.classes = parseClasses(prof.Sets)
	prof.fates = fateVector{out: fates, flow: work.flow}
	return prof, nil
}

// replayWork is the packet sequence one RunWith replays: positions [0, n)
// are the trace's packets themselves or, when weights and first are set,
// its flows — position i standing for packets[first[i]] weights[i] times,
// and packet j for position flow[j].
type replayWork struct {
	packets        []trafficgen.Packet
	weights, first []int
	flow           []int32
	n              int
}

// inputs fills ins with the packets of positions lo, lo+1, ...
func (w *replayWork) inputs(lo int, ins []sim.Input) {
	for j := range ins {
		pkt := &w.packets[w.index(lo+j)]
		ins[j] = sim.Input{Port: pkt.Port, Data: pkt.Data}
	}
}

// index maps a replay position to its trace index.
func (w *replayWork) index(i int) int {
	if w.first != nil {
		return w.first[i]
	}
	return i
}
