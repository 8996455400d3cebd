package sim

import (
	"encoding/binary"
	"fmt"

	"p2go/internal/hashes"
	"p2go/internal/p4"
)

// This file is the compiled engine's runtime: the flat dispatch loop over
// a Plan's bytecode. It mirrors the tree-walking interpreter in eval.go
// operation for operation — same masking, same rule selection, same
// error strings — and the differential tests assert Output equality
// between the two on every workload.

// cstate is the per-Switch mutable execution state of the compiled
// engine: dense arrays indexed by the plan's slot/instance ids, plus the
// scratch buffers that keep the hot path allocation-free.
type cstate struct {
	fields []uint64
	valid  []bool
	extent []int32
	key    []uint64

	hashVals []uint64
	hashBuf  []byte

	exec        []Executed
	skipExec    bool
	wouldDrop   bool
	forwardPort uint64
	hit         bool

	// arena backs Output.Data for ProcessBatch with ReuseData, and for every
	// call on a fate plan: one growing buffer per batch instead of one
	// allocation per packet.
	arena []byte
	// marks is the current packet's execution marks, in the arena (fate
	// plans only).
	marks []byte
	// pre holds the current packet's hashes computed at parse time, by
	// chash.pre, when a pipelined replay computed them; nil otherwise.
	pre []uint64
}

func (st *cstate) init(c *compiled) {
	st.fields = make([]uint64, c.nSlots)
	st.valid = make([]bool, c.nInsts)
	st.extent = make([]int32, c.nInsts)
	st.key = make([]uint64, c.maxKeys)
}

// record sets one table application's execution mark (fate plans) or
// appends it to the packet's execution trace. The trace escapes into
// Output.Exec, so it is allocated per packet — once, on the first
// application, with room for every table of the plan (each is applied at
// most once).
func (s *Switch) record(r *cRecord) {
	st := &s.cst
	if r.mark >= 0 {
		st.marks[r.mark] = 1
	}
	if st.skipExec {
		return
	}
	if st.exec == nil {
		st.exec = make([]Executed, 0, len(s.plan.c.tables))
	}
	st.exec = append(st.exec, r.exec)
}

// useCompiled reports whether this Switch runs the compiled engine.
func (s *Switch) useCompiled() bool { return s.plan.c != nil }

// Engine reports the execution engine of this Switch: ("compiled", ""),
// or ("interpreter", "forced") under Options.Interpret.
func (s *Switch) Engine() (engine, reason string) { return s.plan.Engine() }

// BatchOpts tunes ProcessBatch. A Switch whose plan was built with
// ObserveFate behaves as if both fields were set on every call, Process
// included.
type BatchOpts struct {
	// SkipExec leaves Output.Exec nil, avoiding the one per-packet
	// allocation the execution trace costs. The profiler reads executions
	// from a fate plan's marks, not Output.Exec.
	SkipExec bool
	// ReuseData serializes outgoing packets into a per-Switch arena:
	// Output.Data slices remain valid only until the next ProcessBatch
	// call on this Switch.
	ReuseData bool
}

// ProcessBatch runs each input through the pipeline, filling outs[i] for
// every processed packet; outs must be at least as long as ins. On error
// it returns the index of the failing packet. Like Process it is not
// safe for concurrent use on one Switch.
func (s *Switch) ProcessBatch(ins []Input, outs []Output, opts BatchOpts) (int, error) {
	if !s.useCompiled() {
		s.scratch.arena = s.scratch.arena[:0]
		for i := range ins {
			out, err := s.processInterp(ins[i])
			if err != nil {
				return i, err
			}
			outs[i] = out
		}
		return len(ins), nil
	}
	s.cst.arena = s.cst.arena[:0]
	for i := range ins {
		if err := s.processCompiled(&ins[i], &outs[i], opts.SkipExec, opts.ReuseData); err != nil {
			return i, err
		}
	}
	return len(ins), nil
}

// processCompiled is the compiled Process: parse, then exec, on the
// Switch's own state. It fills out only when the packet ran to the end.
func (s *Switch) processCompiled(in *Input, out *Output, skipExec, reuseData bool) error {
	if err := s.cst.parse(s.plan.c, in); err != nil {
		return err
	}
	return s.exec(in, out, skipExec, reuseData)
}

// parse readies st for the next packet and runs the lowered parser over it:
// the first half of a compiled Process. It reads the packet and the plan
// and writes st alone (no register, counter or rule), so a pipelined replay
// runs it ahead of the Switch on a state of its own. Only the live slots
// need zeroing: nothing lowered reads any other before storing to it, and
// the parser stores only to live slots.
func (st *cstate) parse(c *compiled, in *Input) error {
	clear(st.fields[:c.nLive])
	clear(st.valid)
	st.forwardPort = 0
	// Intrinsic inputs are stored raw (unmasked), as the interpreter does.
	st.fields[c.slotIngressPort] = in.Port
	st.fields[c.slotPacketLen] = uint64(len(in.Data))
	if c.hasParser {
		return st.runParser(c, in.Data)
	}
	return nil
}

// exec is the second half of a compiled Process: ingress, optional egress
// and serialization over the parsed state in s.cst. It fills out only when
// the packet ran to the end.
func (s *Switch) exec(in *Input, out *Output, skipExec, reuseData bool) error {
	c := s.plan.c
	st := &s.cst
	fate := c.observe == ObserveFate
	if fate {
		// The marks are the packet's Data: zeroed in the arena up front, set
		// by record.
		skipExec = true
		st.marks = s.plan.takeMarks(&st.arena)
	}
	st.exec = nil
	st.skipExec = skipExec
	st.wouldDrop = false
	st.hit = false
	if err := s.runCode(c.ingress); err != nil {
		return err
	}
	if c.hasEgr {
		spec := st.fields[c.slotEgressSpec]
		skip := spec == CPUPort || (spec == DropPort && !c.neutralizeDrops)
		if !skip {
			s.cstore(c.slotEgressPort, spec)
			if err := s.runCode(c.egress); err != nil {
				return err
			}
		}
	}

	port := st.fields[c.slotEgressSpec]
	out.Port = port
	out.Dropped = port == DropPort && !c.neutralizeDrops
	out.WouldDrop = st.wouldDrop
	out.ToCPU = port == CPUPort
	out.ForwardPort = st.forwardPort
	out.Exec = st.exec
	switch {
	case fate:
		out.Data = st.marks
	case reuseData:
		start := len(st.arena)
		st.arena = s.serializeC(in.Data, st.arena)
		out.Data = st.arena[start:len(st.arena):len(st.arena)]
	default:
		out.Data = s.serializeC(in.Data, nil)
	}
	return nil
}

// cstore stores a field value masked to its declared width, tracking the
// forwarding decision exactly like the interpreter's setField.
func (s *Switch) cstore(slot int32, v uint64) { s.cst.store(s.plan.c, slot, v) }

// store is cstore on any state, the parser's included.
func (st *cstate) store(c *compiled, slot int32, v uint64) {
	v &= c.mask[slot]
	st.fields[slot] = v
	if slot == c.slotEgressSpec && v != CPUPort {
		st.forwardPort = v
	}
}

// runCode executes one lowered control block.
func (s *Switch) runCode(code []cInstr) error {
	st := &s.cst
	for pc := 0; pc < len(code); {
		in := &code[pc]
		switch in.op {
		case ciApply:
			if err := s.applyCompiled(in.tbl); err != nil {
				return err
			}
			pc++
		case ciBrMiss:
			if st.hit {
				pc++
			} else {
				pc = int(in.tgt)
			}
		case ciBrFalse:
			if s.evalBoolC(in.cond) {
				pc++
			} else {
				pc = int(in.tgt)
			}
		default: // ciJump
			pc = int(in.tgt)
		}
	}
	return nil
}

// evalBoolC evaluates a lowered condition with the interpreter's
// short-circuit semantics.
func (s *Switch) evalBoolC(e *cBool) bool {
	st := &s.cst
	switch e.kind {
	case bValid:
		return st.valid[e.inst]
	case bCmp:
		l, r := e.l.eval(st), e.r.eval(st)
		switch e.op {
		case cmpEq:
			return l == r
		case cmpNe:
			return l != r
		case cmpLt:
			return l < r
		case cmpLe:
			return l <= r
		case cmpGt:
			return l > r
		default:
			return l >= r
		}
	case bAnd:
		return s.evalBoolC(e.a) && s.evalBoolC(e.b)
	case bOr:
		return s.evalBoolC(e.a) || s.evalBoolC(e.b)
	default: // bNot
		return !s.evalBoolC(e.a)
	}
}

// applyCompiled is the lowered applyTable: key assembly from pre-resolved
// slots, a linear scan over pre-lowered rules with the interpreter's
// priority/prefix tie-break, and the precomputed Executed records.
func (s *Switch) applyCompiled(ti int32) error {
	c := s.plan.c
	t := &c.tables[ti]
	st := &s.cst
	if t.keys == nil {
		// A read-less table "hits" whenever applied; its default action is
		// its behavior.
		if t.hasDef {
			if err := s.execBody(&t.def); err != nil {
				return err
			}
		}
		s.record(&t.defRec)
		st.hit = true
		return nil
	}
	key := st.key[:len(t.keys)]
	for i := range t.keys {
		k := &t.keys[i]
		if k.valid {
			var v uint64
			if st.valid[k.inst] {
				v = 1
			}
			key[i] = v
		} else {
			key[i] = st.fields[k.slot]
		}
	}
	rules := s.crules[ti]
	best := -1
	bestPrefix := -1
	bestPriority := 0
	for idx := range rules {
		r := &rules[idx]
		if !r.match(key) {
			continue
		}
		better := false
		switch {
		case best == -1:
			better = true
		case r.priority != bestPriority:
			better = r.priority > bestPriority
		case r.prefix != bestPrefix:
			better = r.prefix > bestPrefix
		}
		if better {
			best, bestPrefix, bestPriority = idx, r.prefix, r.priority
		}
	}
	if best >= 0 {
		r := &rules[best]
		if err := s.execBody(&r.body); err != nil {
			return err
		}
		s.record(&r.rec)
		st.hit = true
		return nil
	}
	if t.hasDef {
		if err := s.execBody(&t.def); err != nil {
			return err
		}
	}
	s.record(&t.missRec)
	st.hit = false
	return nil
}

// match tests the rule against an assembled key.
func (r *cRule) match(key []uint64) bool {
	for i := range r.matches {
		m := &r.matches[i]
		v := key[i]
		switch m.kind {
		case mExact:
			if v != m.value {
				return false
			}
		case mAny:
		case mLPM:
			if v>>m.shift != m.value {
				return false
			}
		case mTernary:
			if v&m.mask != m.value {
				return false
			}
		default: // mRange
			if v < m.value || v > m.hi {
				return false
			}
		}
	}
	return true
}

// execBody runs one lowered action body. Error strings reproduce the
// interpreter's exactly ("sim: action X: register_read: ...").
func (s *Switch) execBody(b *cBody) error {
	c := s.plan.c
	st := &s.cst
	for i := range b.ops {
		op := &b.ops[i]
		switch op.kind {
		case oSet:
			s.cstore(op.dst, op.a.eval(st))
		case oAdd:
			s.cstore(op.dst, st.fields[op.dst]+op.a.eval(st))
		case oSub:
			s.cstore(op.dst, st.fields[op.dst]-op.a.eval(st))
		case oAnd:
			s.cstore(op.dst, op.a.eval(st)&op.b.eval(st))
		case oOr:
			s.cstore(op.dst, op.a.eval(st)|op.b.eval(st))
		case oXor:
			s.cstore(op.dst, op.a.eval(st)^op.b.eval(st))
		case oMin:
			a, bv := op.a.eval(st), op.b.eval(st)
			if bv < a {
				a = bv
			}
			s.cstore(op.dst, a)
		case oMax:
			a, bv := op.a.eval(st), op.b.eval(st)
			if bv > a {
				a = bv
			}
			s.cstore(op.dst, a)
		case oDrop:
			st.wouldDrop = true
			if !c.neutralizeDrops {
				s.cstore(c.slotEgressSpec, DropPort)
			}
		case oBind:
			st.fields[op.dst] = op.a.eval(st)
		case oRegRead:
			reg := s.regArr[op.res]
			idx := op.a.eval(st)
			if idx >= uint64(len(reg)) {
				return fmt.Errorf("sim: action %s: register_read: index %d out of range for %s[%d]",
					b.actionName, idx, c.regs[op.res].name, len(reg))
			}
			s.cstore(op.dst, reg[idx])
		case oRegWrite:
			reg := s.regArr[op.res]
			idx := op.a.eval(st)
			if idx >= uint64(len(reg)) {
				return fmt.Errorf("sim: action %s: register_write: index %d out of range for %s[%d]",
					b.actionName, idx, c.regs[op.res].name, len(reg))
			}
			reg[idx] = op.b.eval(st) & op.mask
		case oCount:
			ctr := s.ctrArr[op.res]
			idx := op.a.eval(st)
			if idx >= uint64(len(ctr)) {
				return fmt.Errorf("sim: action %s: count: index %d out of range for %s[%d]",
					b.actionName, idx, c.ctrs[op.res].name, len(ctr))
			}
			ctr[idx].Packets++
			ctr[idx].Bytes += st.fields[c.slotPacketLen]
		default: // oHash
			size := op.b.eval(st)
			if size == 0 {
				return fmt.Errorf("sim: action %s: %s: zero size", b.actionName, p4.PrimHashOffset)
			}
			h := s.computeHashC(op.res)
			s.cstore(op.dst, op.a.eval(st)+h%size)
		}
	}
	return nil
}

// computeHashC is the calculation's digest: computed at parse time, when a
// pipelined replay loaded it with the packet, else computed now.
func (s *Switch) computeHashC(hi int32) uint64 {
	c := s.plan.c
	st := &s.cst
	if p := c.hashes[hi].pre; p >= 0 && st.pre != nil {
		return st.pre[p]
	}
	return st.hash(c, hi)
}

// hash packs the calculation's field values into the reusable hash buffer
// and computes the digest — PackBits + Compute without the per-call
// allocations.
func (st *cstate) hash(c *compiled, hi int32) uint64 {
	h := &c.hashes[hi]
	vals := st.hashVals[:0]
	for _, f := range h.fields {
		vals = append(vals, st.fields[f.slot])
	}
	st.hashVals = vals
	buf := hashes.AppendPackBits(st.hashBuf[:0], vals, h.widths)
	st.hashBuf = buf
	return hashes.Compute(h.alg, buf, h.outWidth)
}

// runParser executes the lowered parser graph. Truncated packets end
// parsing early with headers parsed so far left valid, exactly like the
// interpreter.
func (st *cstate) runParser(c *compiled, data []byte) error {
	stateIdx := c.start
	bitPos := 0
	totalBits := len(data) * 8
	for steps := 0; ; steps++ {
		if steps > maxParserStates {
			return fmt.Errorf("sim: parser exceeded %d states (cycle?)", maxParserStates)
		}
		ps := &c.parser[stateIdx]
		truncated := false
		for i := range ps.ops {
			op := &ps.ops[i]
			if op.extract {
				if bitPos+op.bits > totalBits {
					truncated = true
					break
				}
				st.extent[op.inst] = int32(bitPos)
				for _, f := range op.fields {
					st.fields[f.slot] = readBitsFast(data, bitPos+f.off, f.width)
				}
				bitPos += op.bits
				st.valid[op.inst] = true
			} else {
				st.store(c, op.dst, op.val.eval(st))
			}
		}
		if truncated {
			return nil
		}
		next := ps.next
		if ps.isSelect {
			var key uint64
			for _, f := range ps.selOn {
				key = key<<uint(f.width) | st.fields[f.slot]
			}
			next = ps.selDefault
			for i := range ps.selCases {
				sc := &ps.selCases[i]
				if sc.hasMask {
					if key&sc.mask == sc.value&sc.mask {
						next = sc.next
						break
					}
				} else if key == sc.value {
					next = sc.next
					break
				}
			}
			if next == nextStop {
				// No default and no match: parsing stops, pipeline runs.
				return nil
			}
		}
		if next == nextIngress {
			return nil
		}
		stateIdx = next
	}
}

// serializeC is the compiled serialize of a plan that observes the packet:
// calculated-field updates, write-back of the fields the program may have
// changed into a copy of the packet appended to dst, and the trailer.
// Passing dst nil yields a fresh allocation per packet (Process); the batch
// path passes the arena.
func (s *Switch) serializeC(original, dst []byte) []byte {
	c := s.plan.c
	st := &s.cst
	for i := range c.calcs {
		cf := &c.calcs[i]
		if !st.valid[cf.inst] {
			continue
		}
		s.cstore(cf.dst, s.computeHashC(cf.hash))
	}
	base := len(dst)
	dst = append(dst, original...)
	data := dst[base:]
	for i := range c.emits {
		e := &c.emits[i]
		if !st.valid[e.inst] {
			continue
		}
		bit := int(st.extent[e.inst])
		for _, f := range e.fields {
			writeBitsFast(data, bit+f.off, f.width, st.fields[f.slot])
		}
	}
	if c.trailer != nil {
		bit := (len(dst) - base) * 8
		dst = append(dst, c.trailerZero...)
		data = dst[base:]
		for _, f := range c.trailer.fields {
			writeBitsFast(data, bit+f.off, f.width, st.fields[f.slot])
		}
	}
	return dst
}

// readBitsFast is readBits with word-sized loads: an 8-byte window when
// the packet has the room, a spanned-byte accumulate near the packet
// tail, and the per-bit reference loop for >8-byte spans.
func readBitsFast(data []byte, bitOffset, width int) uint64 {
	byteIdx := bitOffset >> 3
	bitInByte := bitOffset & 7
	if bitInByte+width <= 64 {
		if byteIdx+8 <= len(data) {
			acc := binary.BigEndian.Uint64(data[byteIdx:])
			return acc << uint(bitInByte) >> uint(64-width)
		}
		span := (bitInByte + width + 7) >> 3
		if byteIdx+span <= len(data) {
			var acc uint64
			for _, b := range data[byteIdx : byteIdx+span] {
				acc = acc<<8 | uint64(b)
			}
			acc >>= uint(span*8 - bitInByte - width)
			if width < 64 {
				acc &= 1<<uint(width) - 1
			}
			return acc
		}
	}
	return readBits(data, bitOffset, width)
}

// writeBitsFast is writeBits as a word-sized read-modify-write over the
// spanned bytes, falling back to the per-bit reference loop for spans
// wider than 8 bytes or writes past the buffer.
func writeBitsFast(data []byte, bitOffset, width int, v uint64) {
	byteIdx := bitOffset >> 3
	bitInByte := bitOffset & 7
	if bitInByte+width <= 64 {
		span := (bitInByte + width + 7) >> 3
		if byteIdx+span <= len(data) {
			var acc uint64
			for _, b := range data[byteIdx : byteIdx+span] {
				acc = acc<<8 | uint64(b)
			}
			shift := uint(span*8 - bitInByte - width)
			mask := ^uint64(0) >> uint(64-width) << shift
			acc = acc&^mask | v<<shift&mask
			for i := span - 1; i >= 0; i-- {
				data[byteIdx+i] = byte(acc)
				acc >>= 8
			}
			return
		}
	}
	writeBits(data, bitOffset, width, v)
}
