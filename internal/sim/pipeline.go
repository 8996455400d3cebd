// Pipelined replay. A stateful program replays on one Switch, in trace
// order, so sharding cannot spread it over cores; but only its execution
// touches the Switch. Parsing reads the packet and the plan alone, and what
// a replay does with an output happens after it. ProcessPipelined runs
// those two on a second goroutine: while the caller's goroutine executes
// batch k, the other parses batch k+1 into a record and folds batch k-1's
// outputs. Parse and exec are the two halves of the compiled Process
// (exec.go), so the pipelined and the sequential replay run one parser and
// one executor. The two goroutines balance the work: when parsed batches
// queue up, the parser also computes the packets' hashes whose inputs
// nothing stores to after parsing; when the executor waits for the parser,
// it folds.
package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// ReplayBatchSize is the batch a replay loop hands the Switch at a time:
// large enough to amortize the per-call accounting, small enough to keep
// cancellation checks responsive.
const ReplayBatchSize = 512

// Throughput converts a packet count and elapsed time into packets/sec.
// Elapsed is clamped to a minimum of one nanosecond so a replay fast
// enough (or a clock coarse enough) to measure zero elapsed time still
// reports a rate instead of silently dropping the attribute.
func Throughput(packets int, elapsed time.Duration) float64 {
	if elapsed < time.Nanosecond {
		elapsed = time.Nanosecond
	}
	return float64(packets) / elapsed.Seconds()
}

// pipeDepth is the number of batch records one pipelined replay cycles
// through: one being executed, one being folded, and up to two parsed
// ahead of the executor.
const pipeDepth = 4

// pollRounds bounds how long a stage polls for the other before it blocks.
const pollRounds = 4096

// batchRecord is one batch of a pipelined replay: its inputs, each packet's
// parsed state (field slots, header validity and extents, and the
// forwarding port the parser stored), and once executed its outputs. Each
// record has its own marks arena, so the batch being folded never shares
// memory with the batch being executed.
type batchRecord struct {
	lo     int
	ins    []Input
	outs   []Output
	arena  []byte
	fields []uint64 // nLive per packet
	valid  []bool   // nInsts per packet
	extent []int32  // nInsts per packet
	fwd    []uint64
	// pre holds, when hashed is set, each packet's parse-time hashes
	// (compiled.nPre per packet).
	pre    []uint64
	hashed bool
	// parsed counts the inputs that parsed; when err is set, it is the
	// error of input parsed, and the batch ends there.
	parsed int
	err    error
}

// pipeBuffers is everything one pipelined replay works in: the records and
// the parse stage's state. Replays recycle them (see takePipe).
type pipeBuffers struct {
	recs [pipeDepth]batchRecord
	st   cstate
}

// pipeRun is one pipelined replay in flight. A record goes from free to
// parsed (the parser's goroutine), to executed (the Switch's), to free again
// once folded. Each of those three queues holds pipeDepth records, all
// there are, so no send on them blocks.
type pipeRun struct {
	*pipeBuffers
	c        *compiled
	input    func(int, []Input)
	fold     func(int, []Output)
	free     chan *batchRecord
	parsed   chan *batchRecord
	executed chan *batchRecord
	// ready wakes the parser's goroutine when a batch was executed: one
	// token per batch it has not seen yet, up to pipeDepth (a further token
	// would wake it for nothing new).
	ready chan struct{}
	// folding is held across taking the oldest executed record and folding
	// it, so folds run one at a time and in position order, on whichever
	// goroutine has nothing better to do. fold must not call back into the
	// replay (ProcessPipelined says so), so holding the lock across it
	// cannot deadlock.
	folding sync.Mutex
	stop    chan struct{}
}

// ProcessPipelined runs positions [lo, hi) through the Switch in order, in
// batches of ReplayBatchSize, as consecutive ProcessBatch calls with
// BatchOpts{SkipExec: true, ReuseData: true} would, on two goroutines: the
// caller's executes batch k on the Switch while a second one parses batch
// k+1 and folds batch k-1. input fills ins with the inputs of positions
// from, from+1, ...; it runs on the second goroutine, once per batch, in
// position order. fold receives the outputs of the batch starting at from,
// whose Data stays valid until fold returns; it runs once per batch, in
// position order and one call at a time, on whichever goroutine is idle.
// Neither may call into the Switch.
//
// It returns hi and nil, or the position of the first packet that failed and
// its error, exactly as the sequential loop would report it: a packet that
// fails to execute wins over a later one that fails to parse, even when
// the parser reached that one first. ctx is checked before every batch; once
// it is done the replay stops and returns ctx's error. No goroutine outlives
// the call. The Switch must run a compiled plan.
func (s *Switch) ProcessPipelined(ctx context.Context, lo, hi int, input func(from int, ins []Input), fold func(from int, outs []Output)) (int, error) {
	c := s.plan.c
	if c == nil {
		return 0, errors.New("sim: a pipelined replay needs a compiled plan")
	}
	if lo >= hi {
		return hi, nil
	}
	r := &pipeRun{
		pipeBuffers: takePipe(c),
		c:           c,
		input:       input,
		fold:        fold,
		free:        make(chan *batchRecord, pipeDepth),
		parsed:      make(chan *batchRecord, pipeDepth),
		executed:    make(chan *batchRecord, pipeDepth),
		ready:       make(chan struct{}, pipeDepth),
		stop:        make(chan struct{}),
	}
	defer putPipe(r.pipeBuffers)
	for i := range r.recs {
		r.free <- &r.recs[i]
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.parseAndFold(ctx, lo, hi)
	}()
	own := s.cst.arena
	k, err := s.execRecords(ctx, r, lo, hi)
	s.cst.arena, s.cst.pre = own, nil
	close(r.stop)
	<-done
	if err != nil {
		return k, err
	}
	// The parser's goroutine may have stopped before the last folds.
	for r.tryFold() {
	}
	return hi, nil
}

// execRecords is the executing stage: each parsed record, in order, loaded
// packet by packet into the Switch's state and executed into the record's
// outputs and arena, then queued for folding. While the next record is not
// parsed yet, it folds executed ones itself.
func (s *Switch) execRecords(ctx context.Context, r *pipeRun, lo, hi int) (int, error) {
	c, st := r.c, &s.cst
	for from := lo; from < hi; from += ReplayBatchSize {
		if err := ctx.Err(); err != nil {
			return from, err
		}
		for len(r.parsed) == 0 && r.tryFold() {
		}
		rec, _ := poll(r.parsed, nil, ctx.Done())
		if rec == nil {
			return from, ctx.Err()
		}
		st.arena = rec.arena[:0]
		for j := 0; j < rec.parsed; j++ {
			rec.load(c, st, j)
			if err := s.exec(&rec.ins[j], &rec.outs[j], true, true); err != nil {
				return rec.lo + j, err
			}
		}
		rec.arena = st.arena
		if rec.err != nil {
			return rec.lo + rec.parsed, rec.err
		}
		r.executed <- rec
		select {
		case r.ready <- struct{}{}:
		default: // the parser has wake-ups pending already
		}
	}
	return hi, nil
}

// tryFold folds the oldest executed batch and frees its record, unless
// none is waiting or another fold is running; it reports whether it folded.
func (r *pipeRun) tryFold() bool {
	if !r.folding.TryLock() {
		return false
	}
	defer r.folding.Unlock()
	return r.foldOne()
}

// foldOne is tryFold for a caller that holds folding.
func (r *pipeRun) foldOne() bool {
	select {
	case rec := <-r.executed:
		r.fold(rec.lo, rec.outs[:len(rec.ins)])
		r.free <- rec
		return true
	default:
		return false
	}
}

// parseAndFold is the other goroutine: it parses the next batch whenever a
// record is free and otherwise folds the executed ones, until the executor
// stops. It stops parsing at the first batch with a parse error (the
// executor stops there) and once ctx is done (the executor sees that too).
func (r *pipeRun) parseAndFold(ctx context.Context, lo, hi int) {
	next, parsing := lo, true
	for {
		var free <-chan *batchRecord
		if parsing && next < hi && ctx.Err() == nil {
			free = r.free
		}
		rec, woke := poll(free, r.ready, r.stop)
		if woke {
			r.folding.Lock()
			for r.foldOne() {
			}
			r.folding.Unlock()
			continue
		}
		if rec == nil {
			return
		}
		end := min(next+ReplayBatchSize, hi)
		rec.parse(r.c, &r.st, next, end, r.input, hashAhead(len(r.parsed)))
		r.parsed <- rec
		parsing = rec.err == nil
		next = end
	}
}

// poll returns a record from recs, or a nil record and woke once wake
// fires, or a nil record once quit is closed; a nil channel never fires. It
// polls before it blocks, yielding the processor between polls: a stage
// waits for the other for less than a batch, and waking a parked goroutine
// (a futex wake of an idle processor) costs more than that wait.
func poll(recs <-chan *batchRecord, wake <-chan struct{}, quit <-chan struct{}) (rec *batchRecord, woke bool) {
	for range pollRounds {
		select {
		case rec := <-recs:
			return rec, false
		case <-wake:
			return nil, true
		case <-quit:
			return nil, false
		default:
			runtime.Gosched()
		}
	}
	select {
	case rec := <-recs:
		return rec, false
	case <-wake:
		return nil, true
	case <-quit:
		return nil, false
	}
}

// hashAhead says whether the parse stage computes a batch's parse-time
// hashes, given how many parsed batches wait for the executor: when one
// does, the executor is the slower stage and the hashes come off it. The
// outputs are the same either way; tests pin each choice.
var hashAhead = func(waiting int) bool { return waiting > 0 }

// parse fills the record with positions [lo, hi): their inputs, then each
// one parsed on st and saved, with its parse-time hashes when hash is set,
// up to the first parse error.
func (rec *batchRecord) parse(c *compiled, st *cstate, lo, hi int, input func(int, []Input), hash bool) {
	rec.lo, rec.parsed, rec.err = lo, 0, nil
	rec.hashed = hash && c.nPre > 0
	rec.ins = rec.ins[:hi-lo]
	input(lo, rec.ins)
	for j := range rec.ins {
		if err := st.parse(c, &rec.ins[j]); err != nil {
			rec.err = err
			return
		}
		rec.save(c, st, j)
		if rec.hashed {
			pre := rec.pre[j*c.nPre : (j+1)*c.nPre]
			for hi := range c.hashes {
				if p := c.hashes[hi].pre; p >= 0 {
					pre[p] = st.hash(c, int32(hi))
				}
			}
		}
		rec.parsed++
	}
}

// save stores packet j's state as parsed on st: the live slots (the only
// ones a packet can read before it writes them), header validity, the
// extents (read only by a plan that observes the packet) and the
// forwarding port.
func (rec *batchRecord) save(c *compiled, st *cstate, j int) {
	copy(rec.fields[j*c.nLive:(j+1)*c.nLive], st.fields)
	copy(rec.valid[j*c.nInsts:(j+1)*c.nInsts], st.valid)
	if c.observe == ObservePacket {
		copy(rec.extent[j*c.nInsts:(j+1)*c.nInsts], st.extent)
	}
	rec.fwd[j] = st.forwardPort
}

// load is save's inverse: it leaves st as if st had parsed packet j.
func (rec *batchRecord) load(c *compiled, st *cstate, j int) {
	copy(st.fields[:c.nLive], rec.fields[j*c.nLive:])
	copy(st.valid, rec.valid[j*c.nInsts:])
	if c.observe == ObservePacket {
		copy(st.extent, rec.extent[j*c.nInsts:])
	}
	st.forwardPort = rec.fwd[j]
	st.pre = nil
	if rec.hashed {
		st.pre = rec.pre[j*c.nPre : (j+1)*c.nPre]
	}
}

// Pipelined replays recycle their buffers, like Switches their register
// slabs: a bounded free list that outlives garbage collections, so the
// replays of one job allocate their records once.
const (
	maxFreePipes     = 4
	maxFreePipeBytes = 4 << 20 // per pipeBuffers
)

var freePipes struct {
	mu    sync.Mutex
	pipes []*pipeBuffers
}

// takePipe returns buffers sized for the plan: recycled ones when there are
// any.
func takePipe(c *compiled) *pipeBuffers {
	f := &freePipes
	f.mu.Lock()
	var p *pipeBuffers
	if k := len(f.pipes); k > 0 {
		p, f.pipes[k-1] = f.pipes[k-1], nil
		f.pipes = f.pipes[:k-1]
	}
	f.mu.Unlock()
	if p == nil {
		p = &pipeBuffers{}
	}
	p.st.fields = fit(p.st.fields, c.nSlots)
	p.st.valid = fit(p.st.valid, c.nInsts)
	p.st.extent = fit(p.st.extent, c.nInsts)
	for i := range p.recs {
		rec := &p.recs[i]
		rec.ins = fit(rec.ins, ReplayBatchSize)
		rec.outs = fit(rec.outs, ReplayBatchSize)
		rec.fields = fit(rec.fields, ReplayBatchSize*c.nLive)
		rec.valid = fit(rec.valid, ReplayBatchSize*c.nInsts)
		rec.extent = fit(rec.extent, ReplayBatchSize*c.nInsts)
		rec.fwd = fit(rec.fwd, ReplayBatchSize)
		rec.pre = fit(rec.pre, ReplayBatchSize*c.nPre)
	}
	return p
}

// putPipe keeps the buffers for the next pipelined replay, unless the list
// is full or they grew past the bound. The inputs and outputs are cleared
// first, so a kept record holds on to no trace and no arena.
func putPipe(p *pipeBuffers) {
	size := 0
	for i := range p.recs {
		rec := &p.recs[i]
		clear(rec.ins[:cap(rec.ins)])
		clear(rec.outs[:cap(rec.outs)])
		rec.err = nil
		size += cap(rec.arena) + 8*cap(rec.fields) + cap(rec.valid) + 4*cap(rec.extent) + 8*cap(rec.fwd) + 8*cap(rec.pre)
	}
	if size > maxFreePipeBytes {
		return
	}
	f := &freePipes
	f.mu.Lock()
	if len(f.pipes) < maxFreePipes {
		f.pipes = append(f.pipes, p)
	}
	f.mu.Unlock()
}

// fit returns s with length n, reusing its memory when it has the room.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
