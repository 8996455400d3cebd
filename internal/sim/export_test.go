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

// LoweredStores lists the destination fields of the field-storing ops the
// plan lowered for the named action, in body order, taking the first rule
// or default that invokes it ("" for an op that stores no field); ok is
// false when nothing installed invokes the action.
func (pl *Plan) LoweredStores(action string) (stores []string, ok bool) {
	c := pl.c
	name := make([]string, c.nSlots)
	for k, s := range c.lower.slotOf {
		name[s] = string(k)
	}
	list := func(b *cBody) []string {
		out := []string{}
		for _, op := range b.ops {
			switch op.kind {
			case oDrop, oRegWrite, oCount:
				out = append(out, "")
			default:
				out = append(out, name[op.dst])
			}
		}
		return out
	}
	for ti := range c.tables {
		t := &c.tables[ti]
		for ri := range t.rules {
			if t.rules[ri].body.actionName == action {
				return list(&t.rules[ri].body), true
			}
		}
		if t.hasDef && t.def.actionName == action {
			return list(&t.def), true
		}
	}
	return nil, false
}

// LoweredCalcs reports how many calculated-field updates the plan lowered.
func (pl *Plan) LoweredCalcs() int { return len(pl.c.calcs) }
