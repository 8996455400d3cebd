package sim

// DropFreeSlabs empties the register free list, so the Switches built next
// get freshly allocated register memory.
func DropFreeSlabs() {
	freeSlabs.mu.Lock()
	defer freeSlabs.mu.Unlock()
	freeSlabs.slabs, freeSlabs.cells = nil, 0
}

// FreeSlabs reports how many slabs the free list retains and their cells.
func FreeSlabs() (slabs, cells int) {
	freeSlabs.mu.Lock()
	defer freeSlabs.mu.Unlock()
	for _, s := range freeSlabs.slabs {
		cells += cap(s)
	}
	if cells != freeSlabs.cells {
		panic("sim: the free list's cell count disagrees with its slabs")
	}
	return len(freeSlabs.slabs), cells
}
