package sim

import (
	"context"
	"time"

	"p2go/internal/obs"
)

// ReplayBatchSize is the index-range granularity of ReplayBatch: large
// enough to amortize the per-call closure and accounting, small enough to
// keep cancellation checks responsive.
const ReplayBatchSize = 512

// ReplayBatch executes a packet-replay loop under a "sim.replay" span that
// records the packet count and the observed throughput (packets/sec). The
// profiler and the equivalence harnesses run their trace loops through this
// so every replay shows up in traces with its rate. step is invoked with
// half-open index ranges [lo, hi) covering [0, n) — typically one
// Switch.ProcessBatch call plus whatever the caller accumulates — and a step
// error aborts the replay. total is the packet count recorded on the span
// and used for the throughput attribute — under flow deduplication the
// caller replays n unique representatives that stand for total packets,
// and the reported rate is the effective one. attrs are appended to the
// "sim.replay" span after the packet count.
func ReplayBatch(ctx context.Context, total, n int, step func(lo, hi int) error, attrs ...obs.Attr) error {
	all := make([]obs.Attr, 0, len(attrs)+1)
	all = append(all, obs.Int("packets", total))
	all = append(all, attrs...)
	_, sp := obs.Start(ctx, "sim.replay", all...)
	defer sp.End()
	start := time.Now()
	for lo := 0; lo < n; lo += ReplayBatchSize {
		hi := lo + ReplayBatchSize
		if hi > n {
			hi = n
		}
		if err := step(lo, hi); err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
			return err
		}
	}
	if total > 0 {
		sp.SetAttr(obs.Float("packets_per_sec", Throughput(total, time.Since(start))))
	}
	return nil
}

// Throughput converts a packet count and elapsed time into packets/sec.
// Elapsed is clamped to a minimum of one nanosecond so a replay fast
// enough (or a clock coarse enough) to measure zero elapsed time still
// reports a rate instead of silently dropping the attribute.
func Throughput(packets int, elapsed time.Duration) float64 {
	if elapsed < time.Nanosecond {
		elapsed = time.Nanosecond
	}
	return float64(packets) / elapsed.Seconds()
}
