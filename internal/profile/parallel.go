// Parallel profiling engine: the trace is sharded across workers, each
// replaying its contiguous slice against an independent Switch into a
// per-worker Profile, and the shards are merged deterministically — every
// profile quantity is a commutative sum (hit counts, applied counts,
// action counts, execution-set counts, drop/redirect totals), so the
// merged profile is identical to a sequential replay regardless of worker
// scheduling. Programs with cross-packet state (registers that are both
// read and written, e.g. Count-Min sketches and Bloom filters) are
// detected statically from the IR and fall back to one Switch replaying in
// trace order (pipelined when there are workers to spare, see RunWith):
// their per-packet behavior depends on replay order, which sharding would
// change.
package profile

import (
	"sort"

	"p2go/internal/ir"
)

// MergeProfiles folds per-shard profiles into one. Every field is a
// commutative sum, so the result does not depend on shard order — but the
// shards are passed in trace order anyway, keeping the operation's
// determinism obvious.
func MergeProfiles(parts ...*Profile) *Profile {
	out := &Profile{
		Hits:         map[string]int{},
		Applied:      map[string]int{},
		ActionCounts: map[string]int{},
		Sets:         map[string]int{},
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.TotalPackets += p.TotalPackets
		out.Drops += p.Drops
		out.ToCPU += p.ToCPU
		for k, v := range p.Hits {
			out.Hits[k] += v
		}
		for k, v := range p.Applied {
			out.Applied[k] += v
		}
		for k, v := range p.ActionCounts {
			out.ActionCounts[k] += v
		}
		for k, v := range p.Sets {
			out.Sets[k] += v
		}
	}
	return out
}

// StatefulTables reports the tables whose replay behavior depends on
// cross-packet state, detected statically from the IR: a table is
// stateful when it owns a register that is both read and written by its
// actions (the IR already guarantees a register is local to one table).
// A write-only register never feeds back into packet processing, and a
// read-only register holds its reset value of zero for the whole replay,
// so neither blocks sharding; counters only count and are not observable
// by the program. The returned names are sorted.
func StatefulTables(prog *ir.Program) []string {
	var out []string
	for _, t := range prog.Ordered {
		reads := map[string]bool{}
		writes := map[string]bool{}
		for _, a := range t.Actions {
			for _, r := range a.RegReads {
				reads[r] = true
			}
			for _, r := range a.RegWrites {
				writes[r] = true
			}
		}
		for r := range reads {
			if writes[r] {
				out = append(out, t.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
