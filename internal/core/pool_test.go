package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"p2go/internal/p4"
	"p2go/internal/workloads"
)

func TestForEachIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		const n = 100
		var hits [n]atomic.Int32
		err := ForEachIndexed(context.Background(), n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

// TestForEachIndexedLowestIndexErrorWins checks the determinism contract:
// whichever worker fails first in wall-clock time, the reported error is
// the one a sequential loop would have stopped on.
func TestForEachIndexedLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForEachIndexed(context.Background(), 50, workers, func(i int) error {
			if i == 3 || i == 40 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("workers=%d: err = %v, want fail at 3", workers, err)
		}
	}
}

func TestForEachIndexedStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEachIndexed(ctx, 1000, 4, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 1000 {
		t.Fatalf("all %d indices ran despite cancellation", got)
	}
}

func TestForEachIndexedZeroItems(t *testing.T) {
	if err := ForEachIndexed(context.Background(), 0, 8, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

// TestOptimizeParallelismInvariant is the end-to-end determinism check
// behind the golden span-tree tests pinning Parallelism to 1: the
// optimization outcome — rewritten program, observations, stage history —
// must be identical whatever the worker count, because probe results are
// collected by index and sharded profiles merge to the sequential profile.
func TestOptimizeParallelismInvariant(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := w.Trace(1)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			optimize := func(parallelism int) *Result {
				res, err := New(Options{Parallelism: parallelism}).Optimize(
					p4.MustParse(w.Source), w.Config(), trace)
				if err != nil {
					t.Fatalf("optimize (parallelism %d): %v", parallelism, err)
				}
				return res
			}
			seq := optimize(1)
			par := optimize(4)
			if a, b := p4.Print(seq.Optimized), p4.Print(par.Optimized); a != b {
				t.Errorf("optimized program differs:\n--- sequential ---\n%s--- parallel ---\n%s", a, b)
			}
			if !reflect.DeepEqual(seq.Observations, par.Observations) {
				t.Errorf("observations differ:\nsequential: %+v\nparallel: %+v", seq.Observations, par.Observations)
			}
			var sa, sb []int
			for _, h := range seq.History {
				sa = append(sa, h.Stages)
			}
			for _, h := range par.History {
				sb = append(sb, h.Stages)
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Errorf("stage history differs: %v vs %v", sa, sb)
			}
			if d := seq.FinalProfile.Diff(par.FinalProfile); d != "" {
				t.Errorf("final profiles differ: %s", d)
			}
		})
	}
}
