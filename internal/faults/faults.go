// Package faults is a deterministic, seedable fault-injection framework
// for chaos-testing the composed P2GO system: the optimized data plane,
// the redirect link, the controller replicas, the p2god workers, and the
// artifact cache. Each fault point is driven by its own seeded PRNG and
// an optional event-index window, so a given Spec produces the identical
// firing pattern on every run — injector determinism is itself testable
// (`go test -count=2` must see the same faults twice).
//
// Injection sites pull decisions from a Set; a nil *Set never fires, so
// production code threads faults through unconditionally and pays nothing
// when chaos is off.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Well-known fault points threaded through the layers. Points are plain
// strings so packages can add their own without importing a registry.
const (
	// ControllerDown makes a controller replica refuse a redirected
	// packet (the replica is unreachable for that delivery attempt).
	ControllerDown = "controller.down"
	// RedirectLoss drops the redirect delivery on the data-plane →
	// controller link before it reaches any replica.
	RedirectLoss = "redirect.loss"
	// RedirectDelay delays a redirect delivery (the attempt succeeds but
	// pays the configured latency).
	RedirectDelay = "redirect.delay"
	// SimStep makes one behavioral-simulator step error out.
	SimStep = "sim.step"
	// CacheCorrupt corrupts the bytes of an artifact-cache read.
	CacheCorrupt = "cache.corrupt"
	// WorkerPanic crashes a p2god worker mid-job.
	WorkerPanic = "worker.panic"
	// LeaseLost makes a replica-group lease acquisition or renewal attempt
	// fail (the replica believes it lost contact with the lease store for
	// that attempt; its lease keeps aging toward expiry).
	LeaseLost = "cluster.lease-lost"
	// Partition cuts a replica off from the shared coordination/spill
	// directory: lease reads and writes error out while it fires.
	Partition = "cluster.partition"
	// SlowDisk delays a spill-layer disk operation (artifact spill reads
	// and writes, lease-file writes), modeling a degraded shared disk.
	SlowDisk = "disk.slow"
)

// Spec describes one fault stream at one point.
type Spec struct {
	// Point names the injection site (e.g. ControllerDown).
	Point string
	// Probability is the chance each event at the point fires, in [0,1].
	// Zero with a window set means "always fire inside the window".
	Probability float64
	// From/To bound firing to the event-index window [From, To) at the
	// point (the first event is index 0). To == 0 means open-ended.
	From, To int
	// Seed drives the stream's PRNG; streams with the same seed and
	// probability fire identically.
	Seed int64
}

// windowed reports whether the spec restricts firing to a window.
func (s Spec) windowed() bool { return s.From > 0 || s.To > 0 }

// String renders the spec in the same form Parse accepts.
func (s Spec) String() string {
	parts := []string{s.Point}
	var opts []string
	if s.Probability > 0 {
		opts = append(opts, "p="+strconv.FormatFloat(s.Probability, 'g', -1, 64))
	}
	if s.From > 0 {
		opts = append(opts, "from="+strconv.Itoa(s.From))
	}
	if s.To > 0 {
		opts = append(opts, "to="+strconv.Itoa(s.To))
	}
	if s.Seed != 0 {
		opts = append(opts, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	if len(opts) > 0 {
		parts = append(parts, strings.Join(opts, ","))
	}
	return strings.Join(parts, ":")
}

// InjectedError is the typed error an injected fault surfaces as, so
// layers can tell injected failures from organic ones (and classify them
// as transient).
type InjectedError struct {
	// Point is the fault point that fired.
	Point string
	// Event is the event index at the point when it fired.
	Event int
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s failure (event %d)", e.Point, e.Event)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*InjectedError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// injector is one fault stream's live state.
type injector struct {
	spec   Spec
	rng    *rand.Rand
	events int
	fired  int
}

// fire advances the event counter and decides whether this event faults.
// The PRNG is consumed on every in-window event so the firing pattern
// depends only on the spec, not on how often out-of-window events occur.
func (i *injector) fire() bool {
	n := i.events
	i.events++
	if i.spec.windowed() {
		if n < i.spec.From {
			return false
		}
		if i.spec.To > 0 && n >= i.spec.To {
			return false
		}
	}
	if i.spec.Probability > 0 {
		if i.rng.Float64() >= i.spec.Probability {
			return false
		}
	} else if !i.spec.windowed() {
		return false // zero-probability, unwindowed spec never fires
	}
	i.fired++
	return true
}

// Set is a thread-safe collection of fault streams, keyed by point. The
// zero value and a nil *Set are both inert: every Fire returns false.
type Set struct {
	mu sync.Mutex
	by map[string]*injector
}

// NewSet builds a set from specs. Multiple specs for the same point are
// rejected — one stream per point keeps the event numbering unambiguous.
func NewSet(specs ...Spec) (*Set, error) {
	s := &Set{by: map[string]*injector{}}
	for _, sp := range specs {
		if sp.Point == "" {
			return nil, fmt.Errorf("faults: spec with empty point")
		}
		if sp.Probability < 0 || sp.Probability > 1 {
			return nil, fmt.Errorf("faults: %s: probability %g outside [0,1]", sp.Point, sp.Probability)
		}
		if sp.To > 0 && sp.To <= sp.From {
			return nil, fmt.Errorf("faults: %s: empty window [%d,%d)", sp.Point, sp.From, sp.To)
		}
		if _, dup := s.by[sp.Point]; dup {
			return nil, fmt.Errorf("faults: duplicate spec for point %s", sp.Point)
		}
		s.by[sp.Point] = &injector{spec: sp, rng: rand.New(rand.NewSource(sp.Seed))}
	}
	return s, nil
}

// MustSet is NewSet for tests and fixed literals; it panics on error.
func MustSet(specs ...Spec) *Set {
	s, err := NewSet(specs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Fire records one event at point and reports whether it faults. Safe on
// a nil Set (never fires).
func (s *Set) Fire(point string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.by[point]
	if !ok {
		return false
	}
	return i.fire()
}

// Err is Fire returning a typed *InjectedError when the event faults and
// nil otherwise.
func (s *Set) Err(point string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.by[point]
	if !ok {
		return nil
	}
	n := i.events
	if !i.fire() {
		return nil
	}
	return &InjectedError{Point: point, Event: n}
}

// Fired returns how many events at point have faulted so far.
func (s *Set) Fired(point string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.by[point]
	if !ok {
		return 0
	}
	return i.fired
}

// Events returns how many events have been recorded at point.
func (s *Set) Events(point string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.by[point]
	if !ok {
		return 0
	}
	return i.events
}

// Counts snapshots fired counts for every configured point.
func (s *Set) Counts() map[string]int {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.by))
	for p, i := range s.by {
		out[p] = i.fired
	}
	return out
}

// String lists the configured specs, sorted by point.
func (s *Set) String() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var specs []string
	for _, i := range s.by {
		specs = append(specs, i.spec.String())
	}
	sort.Strings(specs)
	return strings.Join(specs, ";")
}

// Parse reads a fault-plan string of the form
//
//	point[:k=v,...][;point[:k=v,...]]...
//
// with keys p (probability), from, to, and seed — e.g.
//
//	controller.down:from=100,to=200;redirect.loss:p=0.05,seed=7
//
// This is the CLI surface for -faults flags.
func Parse(plan string) ([]Spec, error) {
	var specs []Spec
	for _, part := range strings.Split(plan, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, opts, _ := strings.Cut(part, ":")
		point = strings.TrimSpace(point)
		if point == "" {
			return nil, fmt.Errorf("faults: empty point in %q", part)
		}
		sp := Spec{Point: point}
		if opts != "" {
			for _, kv := range strings.Split(opts, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("faults: %s: bad option %q (want k=v)", point, kv)
				}
				var err error
				switch k {
				case "p":
					sp.Probability, err = strconv.ParseFloat(v, 64)
				case "from":
					sp.From, err = strconv.Atoi(v)
				case "to":
					sp.To, err = strconv.Atoi(v)
				case "seed":
					sp.Seed, err = strconv.ParseInt(v, 10, 64)
				default:
					err = fmt.Errorf("unknown key %q", k)
				}
				if err != nil {
					return nil, fmt.Errorf("faults: %s: option %q: %v", point, kv, err)
				}
			}
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// ParseSet is Parse followed by NewSet.
func ParseSet(plan string) (*Set, error) {
	specs, err := Parse(plan)
	if err != nil {
		return nil, err
	}
	return NewSet(specs...)
}
