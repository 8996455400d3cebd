package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// AnalysisCache is the content-addressed store for the two expensive
// analyses the pipeline computes: compiles (stage mapping + dependency
// graph) and profiles (trace replays). Keys are digests of the analysis
// inputs — the printed program plus the hardware model for compiles, plus
// the rules and the trace for profiles — so any two requests for the same
// analysis of the same program share one result, wherever in the pipeline
// they come from: Phase 3's binary search re-visiting a probe value,
// Phase 4 re-compiling the winning candidate it already measured, or a
// whole re-run with only Options changed.
//
// A fresh per-run cache is created automatically; pass one explicitly via
// Options.AnalysisCache to carry results across runs (incremental
// re-optimization). Cached values are treated as immutable and shared —
// the same contract CompileHook/ProfileHook results already obey. Only
// successful analyses are cached: errors (including context cancellation)
// are never stored, so a canceled run cannot poison a shared cache.
type AnalysisCache struct {
	mu       sync.Mutex
	compiles map[analysisKey]*tofino.Result
	profiles map[analysisKey]*profile.Profile
	preps    map[analysisKey]*profile.Prepared
	stats    AnalysisCacheStats
}

// AnalysisCacheStats counts lookups and stored entries across the cache's
// lifetime (all runs that shared it).
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

// NewAnalysisCache creates an empty cache, ready to be shared across runs
// via Options.AnalysisCache.
func NewAnalysisCache() *AnalysisCache {
	return &AnalysisCache{
		compiles: map[analysisKey]*tofino.Result{},
		profiles: map[analysisKey]*profile.Profile{},
		preps:    map[analysisKey]*profile.Prepared{},
	}
}

// getCompile looks up a compile result and records the hit or miss.
func (c *AnalysisCache) getCompile(key analysisKey) (*tofino.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.compiles[key]
	if ok {
		c.stats.CompileHits++
	} else {
		c.stats.CompileMisses++
	}
	return res, ok
}

// putCompile stores a successful compile. The first stored result wins so
// concurrent probes that raced on the same key keep pointer-stable values.
func (c *AnalysisCache) putCompile(key analysisKey, res *tofino.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.compiles[key]; !ok {
		c.compiles[key] = res
		c.stats.CompileEntries++
	}
}

// getProfile looks up a profile and records the hit or miss.
func (c *AnalysisCache) getProfile(key analysisKey) (*profile.Profile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.profiles[key]
	if ok {
		c.stats.ProfileHits++
	} else {
		c.stats.ProfileMisses++
	}
	return p, ok
}

// putProfile stores a successful profile; first stored result wins.
func (c *AnalysisCache) putProfile(key analysisKey, p *profile.Profile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.profiles[key]; !ok {
		c.profiles[key] = p
		c.stats.ProfileEntries++
	}
}

// getPrepared looks up a prepared profiler (instrumented program + lowered
// execution plan) and records the hit or miss.
func (c *AnalysisCache) getPrepared(key analysisKey) (*profile.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.preps[key]
	if ok {
		c.stats.PlanHits++
	} else {
		c.stats.PlanMisses++
	}
	return p, ok
}

// putPrepared stores a successful preparation; first stored result wins.
// Prepared values are immutable and every replay takes a fresh Switch from
// them, so sharing across runs (and concurrent probes) is safe.
func (c *AnalysisCache) putPrepared(key analysisKey, p *profile.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.preps[key]; !ok {
		c.preps[key] = p
		c.stats.PlanEntries++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *AnalysisCache) Stats() AnalysisCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// analysisKey content-addresses one analysis: the SHA-256 of its inputs.
// Keys never leave the process, so their byte layout is free to change as
// long as distinct inputs stay distinct.
type analysisKey [sha256.Size]byte

// newAnalysisKey streams the key material into SHA-256 through a small
// buffer, so a lookup never materialises the printed program it is keyed
// on. The domain tag and the string parts go first, each length-prefixed so
// concatenation ambiguity cannot collide keys; the program's source is
// streamed last (its length is unknown until printed, and everything before
// it is delimited).
func newAnalysisKey(ast *p4.Program, domain string, parts ...string) analysisKey {
	h := sha256.New()
	bw := bufio.NewWriterSize(h, 512)
	var n [8]byte
	for _, p := range append([]string{domain}, parts...) {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		bw.Write(n[:])
		bw.WriteString(p)
	}
	p4.Fprint(bw, ast)
	bw.Flush() // a hash never fails a write
	var key analysisKey
	h.Sum(key[:0])
	return key
}

// compileKey content-addresses one compile: the printed program and the
// hardware model. doCompile never mutates the AST it is handed, so the
// printed source is a faithful key.
func compileKey(ast *p4.Program, tgt tofino.Target) analysisKey {
	return newAnalysisKey(ast, "compile",
		fmt.Sprintf("%d/%d/%d/%d/%d", tgt.Stages, tgt.StageSRAMBytes, tgt.StageTCAMBytes,
			tgt.MaxTablesPerStage, tgt.StageALUs))
}

// profileKey content-addresses one trace replay: the printed program, the
// installed rules, and the trace digest (computed once per run).
func profileKey(ast *p4.Program, cfg *rt.Config, traceDigest string) analysisKey {
	return newAnalysisKey(ast, "profile", rt.Format(cfg), traceDigest)
}

// planKey content-addresses one preparation (instrumentation + plan
// lowering): the printed program and the rules. The trace is deliberately
// absent — a prepared plan serves any trace, which is the point of caching
// it separately from profiles.
func planKey(ast *p4.Program, cfg *rt.Config) analysisKey {
	return newAnalysisKey(ast, "plan", rt.Format(cfg))
}

// digestTrace hashes the trace packets (port + frame bytes), mirroring the
// service-layer trace digest so profile keys distinguish traces even when
// they come from the same generator spec.
func digestTrace(t *trafficgen.Trace) string {
	h := sha256.New()
	var n [8]byte
	for _, pkt := range t.Packets {
		binary.BigEndian.PutUint64(n[:], pkt.Port)
		h.Write(n[:])
		binary.BigEndian.PutUint64(n[:], uint64(len(pkt.Data)))
		h.Write(n[:])
		h.Write(pkt.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
