package sim

import (
	"slices"

	"p2go/internal/p4"
)

// Mark is one execution-mark slot: a (table, action) pair a packet may
// execute, or, with Miss set and no Action, the miss of a keyed table that
// has no default action to run.
type Mark struct {
	Table, Action string
	Miss          bool
}

// Marks lists a program's execution-mark slots in order: for each table in
// declaration order, one slot per distinct action of its actions list, then
// a miss slot if it has a match key and no default action. This is the one
// definition of the order: a fate-level plan returns a packet's marks in it
// (Output.Data, one byte per slot, 1 where the packet executed the pair),
// and profile.Instrument declares its profiling header's marker fields in
// it, so those marks are the header's bytes.
func Marks(ast *p4.Program) []Mark {
	var out []Mark
	for _, t := range ast.Tables {
		for i, an := range t.ActionNames {
			if !slices.Contains(t.ActionNames[:i], an) {
				out = append(out, Mark{Table: t.Name, Action: an})
			}
		}
		if len(t.Reads) > 0 && t.DefaultAction == "" {
			out = append(out, Mark{Table: t.Name, Miss: true})
		}
	}
	return out
}

// takeMarks appends one packet's execution marks, zeroed, to the arena and
// returns them: the Data of a fate plan's Output, valid until the arena is
// reset by the next Process or ProcessBatch call.
func (pl *Plan) takeMarks(arena *[]byte) []byte {
	start := len(*arena)
	*arena = append(*arena, make([]byte, len(pl.markOf))...)
	return (*arena)[start:len(*arena):len(*arena)]
}
