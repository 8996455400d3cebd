package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"p2go/internal/cache"
	"p2go/internal/obs"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// AnalysisCache is the pipeline's typed view of the content-addressed store
// (internal/cache) for its three expensive analyses: compiles (stage
// mapping + dependency graph), profiles (trace replays) and prepared plans
// (instrumentation + bytecode lowering). Keys are digests of the analysis
// inputs — the printed program plus the hardware model for compiles, plus
// the rules and the trace for profiles — so any two requests for the same
// analysis share one result, wherever they come from: Phase 3's binary
// search re-visiting a probe value, Phase 4 re-compiling the candidate it
// already measured, a re-run with only Options changed, a sibling device of
// a fleet, another p2god job.
//
// The store is bounded and single-flight: concurrent lookups of one key run
// one fill, the others wait and count a hit; an entry a neighbour evicted
// is recomputed on the next lookup (a run holds the pointers it was
// handed, so eviction never changes an answer). Errors, cancellation
// included, are not stored. Stored values are immutable and shared; the one
// thing that grows is a table of derived candidates: a compile entry's, or
// a source's table of bound programs.
//
// A run without Options.AnalysisCache gets a fresh view over a fresh store;
// pass one to carry results across runs.
type AnalysisCache struct {
	store                     *cache.Cache
	compiles, profiles, plans lookupCounters
	sources                   lookupCounters // tables of bound programs; not an analysis, so not in Stats
}

// lookupCounters counts one analysis kind's lookups through a view.
type lookupCounters struct{ hits, misses, stored atomic.Int64 }

// AnalysisCacheStats counts the lookups made through one view over its
// lifetime (all runs that shared it). The Entries fields count what the
// view stored; the store may have evicted some since.
type AnalysisCacheStats struct {
	CompileHits    int
	CompileMisses  int
	ProfileHits    int
	ProfileMisses  int
	PlanHits       int
	PlanMisses     int
	CompileEntries int
	ProfileEntries int
	PlanEntries    int
}

// NewAnalysisCache creates a view over a fresh memory-only store of the
// default bound, ready to be shared across runs via Options.AnalysisCache.
func NewAnalysisCache() *AnalysisCache {
	return NewAnalysisCacheOver(cache.NewCache(0, ""))
}

// NewAnalysisCacheOver creates a view over an existing store, whose bound
// the analyses then share with whatever else it holds.
func NewAnalysisCacheOver(store *cache.Cache) *AnalysisCache {
	return &AnalysisCache{store: store}
}

// lookup serves one analysis from the store under "<kind>:<hex key>",
// running fill on a miss. A hit allocates the key string and nothing else.
func lookup[T any](c *AnalysisCache, n *lookupCounters, kind string, key analysisKey, fill func() (T, error)) (T, bool, error) {
	buf := make([]byte, 0, 8+2*len(key))
	buf = append(append(buf, kind...), ':')
	buf = hex.AppendEncode(buf, key[:])
	v, hit, err := c.store.Do(string(buf), func() (any, error) { return fill() })
	if hit {
		n.hits.Add(1)
	} else {
		n.misses.Add(1)
	}
	if err != nil {
		var zero T
		return zero, hit, err
	}
	if !hit {
		n.stored.Add(1)
	}
	return v.(T), hit, nil
}

// derivations is a table of children derived from one program, name →
// *child. It holds only answers that depend on nothing but that program and
// the target, so it serves every run that reaches the program, and it is
// evicted with the store entry that holds it.
type derivations struct{ children sync.Map }

// compiled is what the store holds under a "compile:" key: the result, and
// the table of candidates derived from the compiled program (derivations.derive).
type compiled struct {
	*tofino.Result
	derivations
}

// source returns the table of programs bound from src (run.bind), empty when
// first made. Its key is the printed parameterized source, tunable
// declarations and symbol references included, and the target its
// children's compile keys are for. Not the instantiated program: that drops
// the declarations, and two sources that bind a symbol at different sites
// can print the same program at their defaults. A lookup is neither an
// analysis nor a compile: Stats and PassStats leave it out.
func (c *AnalysisCache) source(src *p4.Program, tgt tofino.Target) *derivations {
	d, _, _ := lookup(c, &c.sources, "source", newAnalysisKey(src, "source", tgt.Key()), func() (*derivations, error) {
		return &derivations{}, nil
	})
	return d
}

// Profile returns the profile of (ast, cfg) on the trace with the given
// digest (trafficgen.Trace.Digest), running fill on a miss. A filled
// profile's outcome vector is bound to the lookup's key before it is
// stored (profile.Profile.BindFates), so the vector answers only a reader
// that asks under the same program, rules and trace (Fates).
func (c *AnalysisCache) Profile(ast *p4.Program, cfg *rt.Config, traceDigest string, fill func() (*profile.Profile, error)) (*profile.Profile, bool, error) {
	key := profileKey(ast, cfg, traceDigest)
	return lookup(c, &c.profiles, "profile", key, func() (*profile.Profile, error) {
		prof, err := fill()
		if err == nil && prof != nil {
			prof.BindFates(key)
		}
		return prof, err
	})
}

// Prepare returns the instrumented program and lowered execution plan for
// (ast, cfg), preparing them on a miss — a profile of the same program on a
// different trace (a re-run, a fleet sibling, another job) pays
// instrumentation and bytecode lowering once. Every replay takes a fresh
// Switch from the shared plan. A hit emits the same "profile.instrument"
// span and "sim.plan" child with the same attrs as a real preparation, so
// span trees are structurally identical either way.
func (c *AnalysisCache) Prepare(ctx context.Context, ast *p4.Program, cfg *rt.Config) (*profile.Prepared, error) {
	prep, hit, err := lookup(c, &c.plans, "plan", planKey(ast, cfg), func() (*profile.Prepared, error) {
		return profile.PrepareContext(ctx, ast, cfg)
	})
	if err == nil && hit {
		ictx, sp := obs.Start(ctx, "profile.instrument")
		_, psp := obs.Start(ictx, "sim.plan", prep.Lowering().Attrs()...)
		psp.End()
		sp.SetAttr(obs.Int("tables", prep.Tables()))
		sp.End()
	}
	return prep, err
}

// Stats returns a snapshot of the view's counters.
func (c *AnalysisCache) Stats() AnalysisCacheStats {
	return AnalysisCacheStats{
		CompileHits:    int(c.compiles.hits.Load()),
		CompileMisses:  int(c.compiles.misses.Load()),
		ProfileHits:    int(c.profiles.hits.Load()),
		ProfileMisses:  int(c.profiles.misses.Load()),
		PlanHits:       int(c.plans.hits.Load()),
		PlanMisses:     int(c.plans.misses.Load()),
		CompileEntries: int(c.compiles.stored.Load()),
		ProfileEntries: int(c.profiles.stored.Load()),
		PlanEntries:    int(c.plans.stored.Load()),
	}
}

// analysisKey content-addresses one analysis: the SHA-256 of its inputs.
// These keys never reach disk: lookup goes through the store's Do, which
// keeps values in memory only (DoBytes and PutBytes spill; job artifacts and
// fleet device rows use them). The byte layout below and the text
// p4.AppendProgram emits are pinned all the same (TestCompileKeysStable,
// TestPrintGolden), because the printed text is also what fleet.deviceKey
// hashes, and "fleetdev:" rows do spill: a changed printer byte orphans
// every one of them.
type analysisKey [sha256.Size]byte

// keyBufs recycles the buffers key material is assembled in, so a lookup of
// a program that fits allocates nothing for its key.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// newAnalysisKey hashes the key material: the domain tag and the string
// parts first, each length-prefixed so concatenation ambiguity cannot
// collide keys, then the program's source (its length is unknown until
// printed, and everything before it is delimited).
func newAnalysisKey(ast *p4.Program, domain string, parts ...string) analysisKey {
	bp := keyBufs.Get().(*[]byte)
	buf := appendKeyPart((*bp)[:0], domain)
	for _, p := range parts {
		buf = appendKeyPart(buf, p)
	}
	buf = p4.AppendProgram(buf, ast)
	key := analysisKey(sha256.Sum256(buf))
	*bp = buf
	keyBufs.Put(bp)
	return key
}

func appendKeyPart(buf []byte, part string) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(part)))
	return append(buf, part...)
}

// compileKey content-addresses one compile: the printed program and the
// hardware model. A compile never mutates the AST it is handed, so the
// printed source is a faithful key.
func compileKey(ast *p4.Program, tgt tofino.Target) analysisKey {
	return newAnalysisKey(ast, "compile", tgt.Key())
}

// profileKey content-addresses one trace replay: the printed program, the
// installed rules, and the trace digest (computed once per run).
func profileKey(ast *p4.Program, cfg *rt.Config, traceDigest string) analysisKey {
	return newAnalysisKey(ast, "profile", rt.Format(cfg), traceDigest)
}

// Fates returns the outcome of every trace packet under the two sides an
// equivalence check of res compares (controller.VerifyChaosEquivalence):
// the original program under cfg and the optimized program under
// res.OptimizedConfig. A side is read from the vector its run recorded
// (res.Profile for the original, res.FinalProfile for the optimized
// program) when that replay had exactly the key the check asks under: the
// printed program, the formatted rules and the trace digest. Any other side
// (an edited program, other rules, another trace) is replayed through the
// profiler, the original first. A program or rules the profiler refuses
// fail the check with its error; a packet a side fails on, with an error
// naming the side and the packet's trace index.
func Fates(ctx context.Context, res *Result, cfg *rt.Config, trace *trafficgen.Trace) (original, optimized []sim.Outcome, err error) {
	if original, err = sideFates(ctx, "original", res.Profile, res.Original, cfg, trace); err != nil {
		return nil, nil, err
	}
	if optimized, err = sideFates(ctx, "optimized", res.FinalProfile, res.Optimized, res.OptimizedConfig, trace); err != nil {
		return nil, nil, err
	}
	return original, optimized, nil
}

// sideFates is one side of Fates: recorded's vector when it is bound to the
// side's key, else a replay's.
func sideFates(ctx context.Context, side string, recorded *profile.Profile, ast *p4.Program, cfg *rt.Config,
	trace *trafficgen.Trace) ([]sim.Outcome, error) {

	if cfg == nil {
		cfg = &rt.Config{}
	}
	key := profileKey(ast, cfg, trace.Digest())
	if recorded != nil {
		if fates := recorded.Fates(key); fates != nil {
			return fates, nil
		}
	}
	prep, err := profile.PrepareContext(ctx, ast, cfg)
	if err != nil {
		return nil, err
	}
	prof, err := prep.Profiler().RunWith(ctx, trace, profile.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: %s program: %w", side, err)
	}
	prof.BindFates(key)
	return prof.Fates(key), nil
}

// planKey content-addresses one preparation (instrumentation + plan
// lowering): the printed program and the rules. The trace is deliberately
// absent — a prepared plan serves any trace, which is the point of caching
// it separately from profiles.
func planKey(ast *p4.Program, cfg *rt.Config) analysisKey {
	return newAnalysisKey(ast, "plan", rt.Format(cfg))
}
