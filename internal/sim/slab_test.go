package sim

import (
	"fmt"
	"testing"
)

// registerSwitch builds a Switch whose one action writes cell 0 of a
// register of the given size and reads it back into the egress port.
func registerSwitch(t *testing.T, cells int, opts Options) *Switch {
	t.Helper()
	src := fmt.Sprintf(`
header_type m_t { fields { v : 32; } }
metadata m_t m;
register r { width : 32; instance_count : %d; }
register q { width : 32; instance_count : 3; }
action bump() {
    register_read(m.v, r, 0);
    add_to_field(m.v, 1);
    register_write(r, 0, m.v);
    register_write(q, 2, m.v);
    modify_field(standard_metadata.egress_spec, m.v);
}
table t { actions { bump; } default_action : bump; }
control ingress { apply(t); }
`, cells)
	sw := buildSwitch(t, src, "")
	if opts.Interpret {
		interp, err := New(sw.prog, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return interp
	}
	return sw
}

// TestRegisterFreeListBounded: whatever is released, the free list keeps at
// most maxFreeSlabs slabs of at most maxFreeCells cells in all, never one
// over maxFreeSlabCells, and makes room by dropping the smallest.
func TestRegisterFreeListBounded(t *testing.T) {
	DropFreeSlabs()
	defer DropFreeSlabs()
	sizes := []int{1, 16, 4096, 64000, 262080, 524160, maxFreeSlabCells - 3, maxFreeSlabCells + 1}
	// 64 switches, eight alive at a time (one of each size, so about 24 MB).
	for round := 0; round < 8; round++ {
		var switches []*Switch
		for _, cells := range sizes {
			switches = append(switches, registerSwitch(t, cells, Options{}))
		}
		for i, sw := range switches {
			sw.Release()
			slabs, cells := FreeSlabs()
			if slabs > maxFreeSlabs || cells > maxFreeCells {
				t.Fatalf("round %d, release %d: the free list holds %d slabs, %d cells; bounds are %d and %d",
					round, i, slabs, cells, maxFreeSlabs, maxFreeCells)
			}
		}
	}
	freeSlabs.mu.Lock()
	for _, s := range freeSlabs.slabs {
		if cap(s) > maxFreeSlabCells {
			t.Errorf("retained a slab of %d cells, over the per-slab limit %d", cap(s), maxFreeSlabCells)
		}
	}
	freeSlabs.mu.Unlock()

	// A full list makes room by dropping its smallest slab; the smallest
	// fitting slab is the one taken, and it leaves the list.
	DropFreeSlabs()
	for i := 1; i <= maxFreeSlabs; i++ {
		putSlab(make([]uint64, 100*i))
	}
	putSlab(make([]uint64, 5000))
	want := 5000 - 100
	for i := 1; i <= maxFreeSlabs; i++ {
		want += 100 * i
	}
	if slabs, cells := FreeSlabs(); slabs != maxFreeSlabs || cells != want {
		t.Errorf("free list holds %d slabs, %d cells; want %d and %d (the 100-cell slab dropped)", slabs, cells, maxFreeSlabs, want)
	}
	if got := takeSlab(250); cap(got) != 300 || len(got) != 250 {
		t.Errorf("takeSlab(250) returned len %d cap %d, want the 300-cell slab cut to 250", len(got), cap(got))
	}
	if got := takeSlab(6000); cap(got) != 6000 {
		t.Errorf("takeSlab(6000) returned cap %d, want a fresh 6000-cell slab", cap(got))
	}
	if slabs, cells := FreeSlabs(); slabs != maxFreeSlabs-1 || cells != want-300 {
		t.Errorf("free list holds %d slabs, %d cells; want %d and %d", slabs, cells, maxFreeSlabs-1, want-300)
	}
}

// TestTakeSlabZeroes: a recycled slab comes back zeroed over the cells
// asked for, whatever the last owner left in it.
func TestTakeSlabZeroes(t *testing.T) {
	DropFreeSlabs()
	defer DropFreeSlabs()
	dirty := make([]uint64, 1000)
	for i := range dirty {
		dirty[i] = ^uint64(0)
	}
	putSlab(dirty[:10]) // a short length does not hide the capacity
	got := takeSlab(1000)
	if &got[0] != &dirty[0] {
		t.Fatal("the retained slab was not reused")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("cell %d of a recycled slab is %#x", i, v)
		}
	}
}

// TestReleaseIsIdempotentAndFinal: Release twice retains the slab once, and
// a released Switch fails on its next register access instead of writing
// into memory another Switch may own by then — in both engines.
func TestReleaseIsIdempotentAndFinal(t *testing.T) {
	for _, opts := range []Options{{}, {Interpret: true}} {
		DropFreeSlabs()
		sw := registerSwitch(t, 512, opts)
		in := Input{Port: 1, Data: []byte{0}}
		if out, err := sw.Process(in); err != nil || out.Port != 1 {
			t.Fatalf("interpret=%v: before release: port %d, err %v", opts.Interpret, out.Port, err)
		}
		sw.Reset()
		if out, err := sw.Process(in); err != nil || out.Port != 1 {
			t.Fatalf("interpret=%v: after Reset: port %d, err %v (want the count to restart at 1)", opts.Interpret, out.Port, err)
		}
		if got := sw.Register("q"); len(got) != 3 || got[2] != 1 {
			t.Fatalf("interpret=%v: register q = %v, want [0 0 1]", opts.Interpret, got)
		}
		sw.Release()
		sw.Release()
		if slabs, cells := FreeSlabs(); slabs != 1 || cells != 515 {
			t.Errorf("interpret=%v: two Releases left %d slabs, %d cells; want 1 and 515", opts.Interpret, slabs, cells)
		}
		next := registerSwitch(t, 512, opts)
		if _, err := sw.Process(in); err == nil {
			t.Errorf("interpret=%v: a released Switch still processes register accesses", opts.Interpret)
		}
		sw.Reset() // harmless on a released Switch
		if got := next.Register("r"); got[0] != 0 {
			t.Errorf("interpret=%v: the released Switch wrote into its successor's registers: r[0] = %d", opts.Interpret, got[0])
		}
		if got := sw.Register("r"); len(got) != 0 {
			t.Errorf("interpret=%v: a released Switch still reports %d register cells", opts.Interpret, len(got))
		}
		next.Release()
	}
	DropFreeSlabs()
}
