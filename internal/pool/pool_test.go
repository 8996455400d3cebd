package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
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
