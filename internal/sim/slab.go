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

// A released slab is cleared off the releasing goroutine: one clearer,
// started with the package, zeroes it and only then marks it clean, so
// takeSlab hands out zeroed memory without clearing it on the replay's
// critical path. A taker that picks a slab still being cleared waits for
// it. Clears that find the clearer's queue full run on the releaser.
var clears = make(chan []uint64, maxFreeSlabs)

func init() {
	freeSlabs.ready.L = &freeSlabs.mu
	go clearSlabs()
}

func clearSlabs() {
	for slab := range clears {
		clear(slab)
		freeSlabs.markClean(slab)
	}
}

type freeSlab struct {
	cells []uint64 // full capacity
	clean bool     // zero over every cell
}

type slabList struct {
	mu    sync.Mutex
	ready sync.Cond // broadcast when a clear finishes
	slabs []freeSlab
	cells int // sum of the slabs' capacities
}

var freeSlabs slabList

// takeSlab returns n zeroed cells: the smallest retained slab that fits,
// once it is clean, else a fresh allocation.
func takeSlab(n int) []uint64 {
	if n == 0 {
		return nil
	}
	f := &freeSlabs
	f.mu.Lock()
	for {
		best := -1
		for i, s := range f.slabs {
			if cap(s.cells) >= n && (best < 0 || cap(s.cells) < cap(f.slabs[best].cells)) {
				best = i
			}
		}
		if best < 0 {
			f.mu.Unlock()
			return make([]uint64, n)
		}
		if s := f.slabs[best]; s.clean {
			f.dropLocked(best)
			f.mu.Unlock()
			return s.cells[:n]
		}
		f.ready.Wait() // the list may have changed meanwhile: pick again
	}
}

// putSlab retains a slab for reuse, then drops the smallest retained slabs
// until the list is within its bounds: the large ones are what costs to
// allocate and fault in again. A slab it keeps goes to the clearer.
func putSlab(slab []uint64) {
	if cap(slab) == 0 || cap(slab) > maxFreeSlabCells {
		return
	}
	slab = slab[:cap(slab)]
	f := &freeSlabs
	f.mu.Lock()
	f.slabs = append(f.slabs, freeSlab{cells: slab})
	f.cells += cap(slab)
	kept := true
	for len(f.slabs) > maxFreeSlabs || f.cells > maxFreeCells {
		smallest := 0
		for i, s := range f.slabs {
			if cap(s.cells) < cap(f.slabs[smallest].cells) {
				smallest = i
			}
		}
		kept = kept && &f.slabs[smallest].cells[0] != &slab[0]
		f.dropLocked(smallest)
	}
	f.mu.Unlock()
	if !kept {
		return
	}
	select {
	case clears <- slab:
	default:
		clear(slab)
		f.markClean(slab)
	}
}

// markClean marks slab clean if the list still holds it and wakes every
// taker waiting for a clear.
func (f *slabList) markClean(slab []uint64) {
	f.mu.Lock()
	for i := range f.slabs {
		if &f.slabs[i].cells[0] == &slab[0] {
			f.slabs[i].clean = true
		}
	}
	f.mu.Unlock()
	f.ready.Broadcast()
}

func (f *slabList) dropLocked(i int) {
	last := len(f.slabs) - 1
	f.cells -= cap(f.slabs[i].cells)
	f.slabs[i] = f.slabs[last]
	f.slabs[last] = freeSlab{}
	f.slabs = f.slabs[:last]
}
