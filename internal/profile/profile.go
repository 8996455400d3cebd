package profile

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"p2go/internal/sim"
)

// Profile is the result of profiling a program on a trace: "(i) the
// fraction of packets that match each table (hit rate); and (ii) the sets
// of actions that are applied on the same packet(s) (non-exclusive
// actions)" (§3.1).
type Profile struct {
	TotalPackets int
	// Hits counts, per table, the packets that matched it. A read-less
	// table counts as matched whenever it is applied.
	Hits map[string]int
	// Applied counts, per table, the packets that were applied to it at
	// all (hit or miss).
	Applied map[string]int
	// ActionCounts counts executions per "table.action" (including
	// default actions and synthesized miss markers).
	ActionCounts map[string]int
	// Sets counts, per canonical execution set, the packets that executed
	// exactly that set of (table, action) pairs. Keys are
	// "table.action|table.action|..." sorted lexicographically.
	Sets map[string]int
	// Drops counts packets a drop primitive fired on.
	Drops int
	// ToCPU counts packets redirected to the controller.
	ToCPU int
	// Engine records how the replay that produced this profile executed
	// (engine choice, dedup, shards). It is ignored by Equal/Diff and not
	// propagated by MergeProfiles; RunWith sets it on the merged result.
	Engine *EngineReport
	// classes is Sets with every key parsed once, attached by RunWith and
	// SkipUnlessMissed; any other profile is parsed per query.
	classes []execClass
}

// execClass is one execution set with its key parsed. A key may span several
// classes whose counts add up (SkipUnlessMissed merges sets).
type execClass struct {
	key     string
	count   int
	entries []classEntry
	hitKey  string // the key of the hit entries alone
	hits    int
}

// classEntry is one member of a set key, spelled text (miss tag included).
type classEntry struct {
	table, action, text string
	miss                bool
}

// parseClasses parses every set key once; members are substrings of keys.
func parseClasses(sets map[string]int) []execClass {
	out := make([]execClass, 0, len(sets))
	for key, count := range sets {
		c := execClass{key: key, count: count, hitKey: key}
		c.entries = make([]classEntry, 0, strings.Count(key, "|")+1)
		for rest := key; rest != ""; {
			var text string
			text, rest, _ = strings.Cut(rest, "|")
			base, miss := strings.CutSuffix(text, missTag)
			table, action, _ := strings.Cut(base, ".")
			c.entries = append(c.entries, classEntry{table: table, action: action, text: text, miss: miss})
			if !miss {
				c.hits++
			}
		}
		if c.hits < len(c.entries) {
			c.hitKey = joinEntries(c.entries, true)
		}
		out = append(out, c)
	}
	return out
}

// joinEntries spells the set key of sorted entries, their hits alone if asked.
func joinEntries(entries []classEntry, hitsOnly bool) string {
	var b strings.Builder
	for _, e := range entries {
		if hitsOnly && e.miss {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteString(e.text)
	}
	return b.String()
}

// execClasses returns the parsed execution sets.
func (p *Profile) execClasses() []execClass {
	if p.classes == nil {
		return parseClasses(p.Sets)
	}
	return p.classes
}

// HitRate returns the fraction of packets that matched the table.
func (p *Profile) HitRate(table string) float64 {
	if p.TotalPackets == 0 {
		return 0
	}
	return float64(p.Hits[table]) / float64(p.TotalPackets)
}

// SetKey canonicalizes an execution set.
func SetKey(entries []string) string {
	sorted := append([]string(nil), entries...)
	sort.Strings(sorted)
	return strings.Join(sorted, "|")
}

// NonExclusiveSets returns the distinct observed sets of non-exclusive hit
// actions with at least minSize members, sorted by descending count — the
// paper's Table 1. Miss markers and default-on-miss executions are
// filtered: the table lists actions applied to packets, and a miss applies
// no rule action.
type SetCount struct {
	Members []string // "table.action", sorted
	Count   int
}

// NonExclusiveSets lists observed hit-action sets of at least minSize.
func (p *Profile) NonExclusiveSets(minSize int) []SetCount {
	agg := map[string]int{}
	for _, c := range p.execClasses() {
		if c.hits >= minSize {
			agg[c.hitKey] += c.count
		}
	}
	var out []SetCount
	for key, count := range agg {
		out = append(out, SetCount{Members: strings.Split(key, "|"), Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return SetKey(out[i].Members) < SetKey(out[j].Members)
	})
	return out
}

// missTag marks miss/default-action executions inside set keys; an
// untagged member is a rule hit.
const missTag = "!miss"

// CoOccurred reports whether any packet executed both (tableA, actionA) and
// (tableB, actionB). An empty actionB means "tableB was applied at all"
// (hit or miss). This is Phase 2's manifestation test for action-level
// conflicts and control dependencies.
func (p *Profile) CoOccurred(tableA, actionA, tableB, actionB string) bool {
	return p.coOccur(tableA, actionA, tableB, actionB, false)
}

// CoHit reports whether any packet executed (tableA, actionA) while tableB
// *matched* (hit a rule, or executed its always-on default for a read-less
// table). Read-after-write dependencies into a match key manifest only on
// hits: a lookup that misses shows no observable influence of the written
// value, which is precisely the observation Phase 2 reports to the
// programmer.
func (p *Profile) CoHit(tableA, actionA, tableB string) bool {
	return p.coOccur(tableA, actionA, tableB, "", true)
}

func (p *Profile) coOccur(tableA, actionA, tableB, actionB string, requireHit bool) bool {
	for _, c := range p.execClasses() {
		if c.count == 0 {
			continue
		}
		hasA, hasB := false, false
		for _, e := range c.entries {
			if e.table == tableA && e.action == actionA {
				hasA = true
			}
			if e.table == tableB && (actionB == "" && (!requireHit || !e.miss) || e.action == actionB) {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// SkipUnlessMissed derives, without a replay, the profile of Phase 2's
// rewrite "apply the moved tables (the moved one and the tables of its hit
// and miss arms) only if from misses". Where from did not miss (it hit, or
// was not applied) the skip is a no-op exactly when each moved table only
// ran its miss marker: those markers leave Sets, Applied and ActionCounts.
// It declines, saying why, on what the profile cannot prove: from's miss is
// a real default ("from-default": MissDefaults tags a rule installing it as
// a miss too), or a moved table ran its real default ("moved-default") or
// hit ("moved-hit") where from did not miss. Keyless tables, whose applies
// may leave no marker, are the caller's to rule out.
func (p *Profile) SkipUnlessMissed(from string, moved []string) (*Profile, string) {
	fromMarker := missActionPrefix + from
	classes := p.execClasses()
	out := &Profile{
		TotalPackets: p.TotalPackets,
		Hits:         p.Hits, // a skipped miss marker is not a hit
		Applied:      maps.Clone(p.Applied),
		ActionCounts: maps.Clone(p.ActionCounts),
		Sets:         make(map[string]int, len(classes)),
		Drops:        p.Drops,
		ToCPU:        p.ToCPU,
		classes:      make([]execClass, 0, len(classes)),
	}
	for _, c := range classes {
		missed, skipped := false, 0
		for _, e := range c.entries {
			switch {
			case e.table == from && e.miss:
				if e.action != fromMarker {
					return nil, "from-default"
				}
				missed = true
			case slices.Contains(moved, e.table):
				skipped++
			}
		}
		if !missed && skipped > 0 {
			kept := make([]classEntry, 0, len(c.entries)-skipped)
			for _, e := range c.entries {
				switch {
				case !slices.Contains(moved, e.table):
					kept = append(kept, e)
					continue
				case !e.miss:
					return nil, "moved-hit"
				case e.action != missActionPrefix+e.table:
					return nil, "moved-default"
				}
				decrement(out.Applied, e.table, c.count)
				decrement(out.ActionCounts, strings.TrimSuffix(e.text, missTag), c.count)
			}
			if len(kept) == 0 {
				continue // the collector records no empty set
			}
			// Only misses left the set, so its hit key and count stand.
			c.key, c.entries = joinEntries(kept, false), kept
		}
		out.Sets[c.key] += c.count
		out.classes = append(out.classes, c)
	}
	return out, ""
}

// decrement subtracts n from m[k], deleting it at zero as a replay would.
func decrement(m map[string]int, k string, n int) {
	if m[k] -= n; m[k] == 0 {
		delete(m, k)
	}
}

// Equal reports whether two profiles are identical: same totals, same hit
// and applied counts, same execution sets. Phase 3 uses this to verify that
// a memory reduction "does not change the program profile".
func (p *Profile) Equal(other *Profile) bool {
	return p.Diff(other) == ""
}

// Diff describes the first differences between two profiles, or "".
func (p *Profile) Diff(other *Profile) string {
	var out []string
	if p.TotalPackets != other.TotalPackets {
		out = append(out, fmt.Sprintf("total packets %d vs %d", p.TotalPackets, other.TotalPackets))
	}
	for _, t := range unionKeys(p.Hits, other.Hits) {
		if p.Hits[t] != other.Hits[t] {
			out = append(out, fmt.Sprintf("table %s: %d vs %d hits", t, p.Hits[t], other.Hits[t]))
		}
	}
	// Applied is a function of Sets, so it cannot differ on its own between
	// two sound profiles; it is compared because Phase 4 reads it, and a
	// replay path that miscounts it must not pass as Equal.
	for _, t := range unionKeys(p.Applied, other.Applied) {
		if p.Applied[t] != other.Applied[t] {
			out = append(out, fmt.Sprintf("table %s: applied %d vs %d times", t, p.Applied[t], other.Applied[t]))
		}
	}
	for _, k := range unionKeys(p.Sets, other.Sets) {
		if p.Sets[k] != other.Sets[k] {
			out = append(out, fmt.Sprintf("set {%s}: %d vs %d packets", k, p.Sets[k], other.Sets[k]))
		}
	}
	if p.Drops != other.Drops {
		out = append(out, fmt.Sprintf("drops %d vs %d", p.Drops, other.Drops))
	}
	return strings.Join(out, "; ")
}

// unionKeys lists the keys of either map, sorted.
func unionKeys(a, b map[string]int) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// BehaviorDiff describes how two profiles' observable behavior differs, or
// "": hit counts per table, per-packet hit-action sets and drop/redirect
// totals. Unlike Diff it ignores miss markers — Phase 2's rewrite skips
// applying a table whose outcome was a no-op miss, which changes which
// tables are applied but not what happens to any packet.
func (p *Profile) BehaviorDiff(other *Profile) string {
	var out []string
	if p.TotalPackets != other.TotalPackets {
		out = append(out, fmt.Sprintf("total packets %d vs %d", p.TotalPackets, other.TotalPackets))
	}
	for _, t := range unionKeys(p.Hits, other.Hits) {
		if p.Hits[t] != other.Hits[t] {
			out = append(out, fmt.Sprintf("table %s: %d vs %d hits", t, p.Hits[t], other.Hits[t]))
		}
	}
	a, b := p.hitSets(), other.hitSets()
	for _, k := range unionKeys(a, b) {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("hit set {%s}: %d vs %d packets", k, a[k], b[k]))
		}
	}
	if p.Drops != other.Drops {
		out = append(out, fmt.Sprintf("drops %d vs %d", p.Drops, other.Drops))
	}
	if p.ToCPU != other.ToCPU {
		out = append(out, fmt.Sprintf("to-cpu %d vs %d", p.ToCPU, other.ToCPU))
	}
	return strings.Join(out, "; ")
}

// hitSets aggregates the execution sets down to their hit entries.
func (p *Profile) hitSets() map[string]int {
	agg := map[string]int{}
	for _, c := range p.execClasses() {
		agg[c.hitKey] += c.count
	}
	return agg
}

// Render formats the profile like the paper's Ex. 1 annotation plus
// Table 1.
func (p *Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile over %d packets\n", p.TotalPackets)
	if p.Engine != nil {
		fmt.Fprintf(&b, "replay engine: %s\n", p.Engine)
	}
	var tables []string
	for t := range p.Applied {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	b.WriteString("hit rates:\n")
	for _, t := range tables {
		fmt.Fprintf(&b, "  %-12s %6.2f%%\n", t, 100*p.HitRate(t))
	}
	b.WriteString("non-exclusive action sets (>= 2 members):\n")
	for _, s := range p.NonExclusiveSets(2) {
		fmt.Fprintf(&b, "  {%s}  x%d\n", strings.Join(s.Members, ", "), s.Count)
	}
	return b.String()
}

// Profiler replays traces through an instrumented program. It is built by
// Prepared.Profiler and driven by RunWith.
type Profiler struct {
	Ins *Instrumented
	// prep is the shared immutable state this profiler was built from
	// (plans, stateful-table list, miss-default lookup).
	prep *Prepared
}

// collector accumulates one replay slice: each worker of a sharded replay
// owns one (with its own Switch), and the sequential path uses a single
// one. Per packet it only counts — the raw trailer
// byte pattern, drops, redirects — because a trace exercises few distinct
// execution sets; profile expands each distinct pattern into the Profile's
// string-keyed maps once, when the slice is done.
type collector struct {
	p  *Profiler
	sw *sim.Switch
	// patterns maps a trailer byte pattern to its index in counts. Probing
	// with string(trailer) allocates only when the pattern is new.
	patterns map[string]int
	counts   []int

	drops, toCPU int
	// ins/outs are per-batch scratch for the ProcessBatch path.
	ins  []sim.Input
	outs []sim.Output
}

func newCollector(p *Profiler, sw *sim.Switch) *collector {
	return &collector{p: p, sw: sw, patterns: map[string]int{}}
}

// observeBatch replays positions [lo, hi) of the work through the Switch in
// one ProcessBatch call and counts each result with its position's weight;
// errors name the original trace index.
func (c *collector) observeBatch(work replayWork, lo, hi int) error {
	if cap(c.ins) < hi-lo {
		c.ins = make([]sim.Input, 0, hi-lo)
		c.outs = make([]sim.Output, hi-lo)
	}
	ins := c.ins[:0]
	for i := lo; i < hi; i++ {
		pkt := &work.packets[work.index(i)]
		ins = append(ins, sim.Input{Port: pkt.Port, Data: pkt.Data})
	}
	outs := c.outs[:len(ins)]
	// The plan was lowered for this loop (sim.ObserveTrailer): executions are
	// read from the trailer, which is all Data holds and lives in the
	// Switch's arena until the next batch. The interpreter hands back whole
	// packets that end with the same bytes.
	k, err := c.sw.ProcessBatch(ins, outs, sim.BatchOpts{})
	if err != nil {
		return fmt.Errorf("profile: packet %d: %w", work.index(lo+k), err)
	}
	n := c.p.Ins.TrailerBytes()
	for j := range outs {
		out := &outs[j]
		w := 1
		if work.weights != nil {
			w = work.weights[lo+j]
		}
		if len(out.Data) < n {
			return fmt.Errorf("profile: packet %d: shorter (%d bytes) than trailer (%d)",
				work.index(lo+j), len(out.Data), n)
		}
		trailer := out.Data[len(out.Data)-n:]
		idx, ok := c.patterns[string(trailer)]
		if !ok {
			idx = len(c.counts)
			c.patterns[string(trailer)] = idx
			c.counts = append(c.counts, 0)
		}
		c.counts[idx] += w
		if out.WouldDrop {
			c.drops += w
		}
		if out.ToCPU {
			c.toCPU += w
		}
	}
	return nil
}

// profile expands the counted patterns into the slice's Profile: every
// packet that left with a given trailer executed the same (table, action)
// set, so each distinct pattern is folded once with its packet count.
func (c *collector) profile() *Profile {
	prof := &Profile{
		Hits:         map[string]int{},
		Applied:      map[string]int{},
		ActionCounts: map[string]int{},
		Sets:         map[string]int{},
		Drops:        c.drops,
		ToCPU:        c.toCPU,
	}
	seen := map[string]bool{}
	for pattern, idx := range c.patterns {
		weight := c.counts[idx]
		prof.TotalPackets += weight
		var entries []string
		clear(seen)
		for i, info := range c.p.Ins.Fields {
			if pattern[i] == 0 {
				continue
			}
			base := info.Table + "." + info.Action
			entry := base
			if info.Miss || c.p.prep.missDefault[base] {
				entry = base + missTag
			} else {
				prof.Hits[info.Table] += weight
			}
			if !seen[info.Table] {
				seen[info.Table] = true
				prof.Applied[info.Table] += weight
			}
			prof.ActionCounts[base] += weight
			entries = append(entries, entry)
		}
		if len(entries) > 0 {
			prof.Sets[SetKey(entries)] += weight
		}
	}
	return prof
}
