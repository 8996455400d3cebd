// Package prof is p2god's continuous-profiling layer: per-job resource
// attribution (CPU time, allocations, GC cycles, peak heap and goroutine
// counts measured around a unit of work) and a crash-safe on-disk store
// of periodic pprof snapshots the daemon takes of itself. Together they
// close the P2GO feedback loop on the optimizer's own process: the same
// daemon that profiles P4 programs records where its own cycles go. The
// stored captures are for reading (GET /debug/profiles); nothing builds
// from them. The committed default.pgo comes from cmd/experiments -pgo,
// which profiles the bundled workloads in its own process.
package prof

import (
	"runtime/metrics"
	"sync"
	"time"
)

// metric names sampled per measurement; all are cheap runtime/metrics
// reads (no stop-the-world, unlike runtime.ReadMemStats).
const (
	metricAllocBytes   = "/gc/heap/allocs:bytes"
	metricAllocObjects = "/gc/heap/allocs:objects"
	metricGCCycles     = "/gc/cycles/total:gc-cycles"
	metricHeapInUse    = "/memory/classes/heap/objects:bytes"
	metricGoroutines   = "/sched/goroutines:goroutines"
)

// Usage is the resource delta one measured unit of work consumed. CPU
// time is the process-wide rusage delta (user+system): with concurrent
// jobs it over-attributes — each job sees every core the process burned
// while it ran — so treat it as an upper bound, exact when jobs run
// alone. Everything else comes from runtime/metrics deltas, which are
// process-wide too but dominated by the measured work on a busy worker.
type Usage struct {
	// WallSeconds is the elapsed wall-clock time.
	WallSeconds float64
	// CPUSeconds is the process CPU time (user+system) consumed while
	// the meter ran.
	CPUSeconds float64
	// AllocBytes / AllocObjects are the heap allocation deltas.
	AllocBytes   int64
	AllocObjects int64
	// GCCycles counts garbage-collection cycles completed.
	GCCycles int64
	// HeapPeakBytes is the highest in-use heap the sampler observed
	// (sampled, so short spikes between ticks can be missed).
	HeapPeakBytes int64
	// GoroutinePeak is the highest live-goroutine count observed.
	GoroutinePeak int
}

// reading is one point-in-time sample of the tracked runtime metrics.
type reading struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	heapInUse    uint64
	goroutines   uint64
}

func read() reading {
	samples := []metrics.Sample{
		{Name: metricAllocBytes},
		{Name: metricAllocObjects},
		{Name: metricGCCycles},
		{Name: metricHeapInUse},
		{Name: metricGoroutines},
	}
	metrics.Read(samples)
	get := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	return reading{
		allocBytes:   get(0),
		allocObjects: get(1),
		gcCycles:     get(2),
		heapInUse:    get(3),
		goroutines:   get(4),
	}
}

// DefaultSampleEvery is the peak-sampler tick. 10ms resolves the peaks
// of second-scale optimize jobs while costing a handful of metric reads
// per job.
const DefaultSampleEvery = 10 * time.Millisecond

// Meter measures the resource consumption of one unit of work. Begin
// snapshots the runtime counters and starts a background sampler that
// tracks peak heap and goroutine counts; Sample reads the delta so far;
// End stops the sampler and returns the final delta. A Meter is safe
// for concurrent Sample calls.
type Meter struct {
	mu        sync.Mutex
	start     time.Time
	cpu0      float64
	base      reading
	peakHeap  uint64
	peakGoros uint64
	stopped   bool
	stop      chan struct{}
	done      chan struct{}
}

// Begin starts a measurement. sampleEvery is the peak-sampler period;
// <=0 uses DefaultSampleEvery.
func Begin(sampleEvery time.Duration) *Meter {
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	base := read()
	m := &Meter{
		start:     time.Now(),
		cpu0:      processCPUSeconds(),
		base:      base,
		peakHeap:  base.heapInUse,
		peakGoros: base.goroutines,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go m.sampler(sampleEvery)
	return m
}

func (m *Meter) sampler(every time.Duration) {
	defer close(m.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.observe(read())
		}
	}
}

// observe folds one reading into the tracked peaks.
func (m *Meter) observe(r reading) {
	m.mu.Lock()
	if r.heapInUse > m.peakHeap {
		m.peakHeap = r.heapInUse
	}
	if r.goroutines > m.peakGoros {
		m.peakGoros = r.goroutines
	}
	m.mu.Unlock()
}

// usageLocked computes the delta against a fresh reading; m.mu held.
func (m *Meter) usageLocked(now reading) Usage {
	delta := func(a, b uint64) int64 {
		if a < b {
			return 0 // counter reset (cannot happen for runtime metrics, but stay safe)
		}
		return int64(a - b)
	}
	cpu := processCPUSeconds() - m.cpu0
	if cpu < 0 {
		cpu = 0
	}
	return Usage{
		WallSeconds:   time.Since(m.start).Seconds(),
		CPUSeconds:    cpu,
		AllocBytes:    delta(now.allocBytes, m.base.allocBytes),
		AllocObjects:  delta(now.allocObjects, m.base.allocObjects),
		GCCycles:      delta(now.gcCycles, m.base.gcCycles),
		HeapPeakBytes: int64(m.peakHeap),
		GoroutinePeak: int(m.peakGoros),
	}
}

// Sample returns the resource delta so far without stopping the meter.
func (m *Meter) Sample() Usage {
	now := read()
	m.mu.Lock()
	defer m.mu.Unlock()
	if now.heapInUse > m.peakHeap {
		m.peakHeap = now.heapInUse
	}
	if now.goroutines > m.peakGoros {
		m.peakGoros = now.goroutines
	}
	return m.usageLocked(now)
}

// End stops the sampler and returns the final delta. End is idempotent;
// calls after the first return the delta at the time of the first End.
func (m *Meter) End() Usage {
	m.mu.Lock()
	if !m.stopped {
		m.stopped = true
		close(m.stop)
	}
	m.mu.Unlock()
	<-m.done
	return m.Sample()
}
