// Package pool is the repository's one bounded fan-out. It sits below
// every package that fans work out (the optimizer's phases, the fleet
// runner, the topology simulator and the trace replay) and imports only
// the standard library.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n <= 0 means one per CPU.
// It is the one place that default is decided.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachIndexed runs fn(0..n-1) on up to workers goroutines and waits for
// completion. Phase 3's halving probes, Phase 4's segment measurements, a
// fleet's injection generation and per-device runs, a topology's trace
// collection and a profile's replay shards all go through it. Callers
// pre-size a results slice and have fn store into results[i], so result
// order is the index order regardless of which worker finished first.
//
// Error handling is deterministic too: when several fn calls fail, the
// error with the lowest index wins — the same error a sequential loop
// would have stopped on. A failure (or ctx cancellation) stops workers
// from claiming further indices, but already-running calls finish.
// workers is resolved by Workers. workers == 1 (or n <= 1) runs inline on
// the calling goroutine with no goroutines at all, which keeps span
// creation order — and therefore the exporter's span trees — identical to
// the sequential code.
func ForEachIndexed(ctx context.Context, n, workers int, fn func(i int) error) error {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx int
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					record(int(next.Load()), err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
