// Register memory is recycled. One optimize job builds a Switch for every
// replay, every replay shard and every side of an equivalence check — over
// the same few programs — and a sketch program's registers are megabytes:
// allocating, zeroing and page-faulting them afresh each time cost more
// than a tenth of a job. Released slabs wait here for the next
// NewFromPlan instead.
package sim

import "sync"

// The free list outlives garbage collections (a sync.Pool would be emptied
// between the replays of one job), so what it may retain is bounded like
// every other long-lived structure in p2god: a handful of slabs, a total
// size, and no single slab larger than a program here plausibly needs
// (sourceguard, the largest, takes 4 MiB).
const (
	maxFreeSlabs     = 8
	maxFreeCells     = 16 << 20 / 8 // 16 MiB in all
	maxFreeSlabCells = 8 << 20 / 8  // 8 MiB each
)

type slabList struct {
	mu    sync.Mutex
	slabs [][]uint64
	cells int // sum of the slabs' capacities
}

var freeSlabs slabList

// takeSlab returns n zeroed cells: the smallest retained slab that fits,
// else a fresh allocation.
func takeSlab(n int) []uint64 {
	if n == 0 {
		return nil
	}
	f := &freeSlabs
	f.mu.Lock()
	best := -1
	for i, s := range f.slabs {
		if cap(s) >= n && (best < 0 || cap(s) < cap(f.slabs[best])) {
			best = i
		}
	}
	var slab []uint64
	if best >= 0 {
		slab = f.slabs[best]
		f.dropLocked(best)
	}
	f.mu.Unlock()
	if slab == nil {
		return make([]uint64, n)
	}
	slab = slab[:n]
	clear(slab)
	return slab
}

// putSlab retains a slab for reuse, then drops the smallest retained slabs
// until the list is within its bounds: the large ones are what costs to
// allocate and fault in again.
func putSlab(slab []uint64) {
	if cap(slab) == 0 || cap(slab) > maxFreeSlabCells {
		return
	}
	f := &freeSlabs
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slabs = append(f.slabs, slab)
	f.cells += cap(slab)
	for len(f.slabs) > maxFreeSlabs || f.cells > maxFreeCells {
		smallest := 0
		for i, s := range f.slabs {
			if cap(s) < cap(f.slabs[smallest]) {
				smallest = i
			}
		}
		f.dropLocked(smallest)
	}
}

func (f *slabList) dropLocked(i int) {
	last := len(f.slabs) - 1
	f.cells -= cap(f.slabs[i])
	f.slabs[i] = f.slabs[last]
	f.slabs[last] = nil
	f.slabs = f.slabs[:last]
}
