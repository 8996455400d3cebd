package prof

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"p2go/internal/cache"
)

// Capture kinds stored by the Store.
const (
	KindCPU  = "cpu"
	KindHeap = "heap"
)

// stampLayout orders capture IDs lexically == chronologically.
const stampLayout = "20060102T150405.000000000"

// DefaultCPUDuration is how long each periodic CPU capture samples for.
// Two seconds is long enough for the sampler (100Hz) to see a few
// hundred stacks of a busy daemon without holding the profiler — and
// therefore blocking /debug/pprof/profile — for long.
const DefaultCPUDuration = 2 * time.Second

// DefaultKeep bounds retention per capture kind.
const DefaultKeep = 32

// Info describes one stored capture.
type Info struct {
	// ID is the capture's filename, e.g.
	// "20260808T120000.000000000-cpu.pprof"; IDs sort chronologically.
	ID string `json:"id"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// Bytes is the raw pprof size on disk.
	Bytes int64 `json:"bytes"`
	// CapturedAt is the capture time, RFC 3339 UTC.
	CapturedAt string `json:"captured_at"`
}

// Store is a bounded, crash-safe archive of the daemon's own pprof
// snapshots. Captures are written with the same temp+fsync+rename
// discipline as the artifact cache's spill files, so kill -9 never
// leaves a torn capture; retention keeps the newest Keep files per
// kind. One Store must own its directory.
type Store struct {
	dir string
	// keep is max files retained per kind.
	keep int
	// cpuDur is how long each CPU capture samples.
	cpuDur time.Duration
	// onCapture, when set, observes every capture attempt per kind
	// (err == nil means stored). Wired to the daemon's metrics.
	onCapture func(kind string, err error)

	// mu serializes captures: runtime/pprof allows only one active CPU
	// profile per process.
	mu sync.Mutex
}

// StoreConfig configures NewStore; zero values take the defaults above.
type StoreConfig struct {
	Dir         string
	Keep        int
	CPUDuration time.Duration
}

// NewStore opens (creating if needed) a profile store rooted at
// cfg.Dir.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profile store: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile store: %w", err)
	}
	s := &Store{dir: cfg.Dir, keep: cfg.Keep, cpuDur: cfg.CPUDuration}
	if s.keep <= 0 {
		s.keep = DefaultKeep
	}
	if s.cpuDur <= 0 {
		s.cpuDur = DefaultCPUDuration
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetOnCapture installs the capture observer after construction — the
// daemon builds the store before the manager that owns the metrics it
// reports into. Call before captures start; the observer is read under
// the capture lock.
func (s *Store) SetOnCapture(f func(kind string, err error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCapture = f
}

// Capture takes one CPU capture (sampling for the configured duration,
// honoring ctx cancellation) and one heap capture, stores both, and
// applies retention. It returns the stored captures' Info. A CPU
// capture fails — without affecting the heap capture — when another
// CPU profile is already running (e.g. a live /debug/pprof/profile
// request); the first error is returned after both kinds were
// attempted.
func (s *Store) Capture(ctx context.Context) ([]Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	now := time.Now().UTC()
	var infos []Info
	var firstErr error
	store := func(kind string, data []byte, err error) {
		if err == nil {
			var info Info
			if info, err = s.write(kind, now, data); err == nil {
				infos = append(infos, info)
			}
		}
		s.observe(kind, err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	cpu, err := s.captureCPU(ctx)
	store(KindCPU, cpu, err)

	var heap bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&heap, 0); err != nil {
		store(KindHeap, nil, fmt.Errorf("heap capture: %w", err))
	} else {
		store(KindHeap, heap.Bytes(), nil)
	}

	s.retainLocked()
	return infos, firstErr
}

// captureCPU samples the process's CPU profile for s.cpuDur.
func (s *Store) captureCPU(ctx context.Context) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another CPU profile is active (live /debug/pprof/profile or a
		// concurrent store capture).
		return nil, fmt.Errorf("cpu capture: %w", err)
	}
	select {
	case <-time.After(s.cpuDur):
	case <-ctx.Done():
	}
	pprof.StopCPUProfile()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cpu capture: %w", err)
	}
	return buf.Bytes(), nil
}

// write persists one capture crash-atomically (cache.WriteAtomic with a
// rename, the artifact cache's spill discipline).
func (s *Store) write(kind string, at time.Time, data []byte) (Info, error) {
	id := fmt.Sprintf("%s-%s.pprof", at.Format(stampLayout), kind)
	if err := cache.WriteAtomic(filepath.Join(s.dir, id), data, os.Rename); err != nil {
		return Info{}, fmt.Errorf("%s capture: %w", kind, err)
	}
	return Info{ID: id, Kind: kind, Bytes: int64(len(data)), CapturedAt: at.Format(time.RFC3339Nano)}, nil
}

// retainLocked deletes all but the newest keep captures of each kind;
// s.mu held. Deletion failures are ignored — retention is advisory and
// retried on the next capture.
func (s *Store) retainLocked() {
	infos, err := s.List()
	if err != nil {
		return
	}
	perKind := map[string]int{}
	// List is newest-first, so everything past the quota is older.
	for _, info := range infos {
		perKind[info.Kind]++
		if perKind[info.Kind] > s.keep {
			_ = os.Remove(filepath.Join(s.dir, info.ID))
		}
	}
}

// List returns the stored captures, newest first. Files that are not
// well-formed capture names (temp files, strays) are skipped.
func (s *Store) List() ([]Info, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("profile store: %w", err)
	}
	infos := make([]Info, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, ok := parseID(e.Name())
		if !ok {
			continue
		}
		if fi, err := e.Info(); err == nil {
			info.Bytes = fi.Size()
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID > infos[j].ID })
	return infos, nil
}

// Open returns a stored capture's raw pprof bytes by ID. IDs are
// validated against the capture-name grammar before touching the
// filesystem, so request paths cannot escape the store directory.
func (s *Store) Open(id string) ([]byte, error) {
	if _, ok := parseID(id); !ok {
		return nil, fmt.Errorf("profile store: invalid capture id %q", id)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, id))
	if err != nil {
		return nil, fmt.Errorf("profile store: %w", err)
	}
	return data, nil
}

// parseID decodes "<stamp>-<kind>.pprof" names; ok is false for
// anything else (including path-traversal attempts — the stamp parse
// rejects separators).
func parseID(name string) (Info, bool) {
	base, ok := strings.CutSuffix(name, ".pprof")
	if !ok {
		return Info{}, false
	}
	stamp, kind, ok := strings.Cut(base, "-")
	if !ok || (kind != KindCPU && kind != KindHeap) {
		return Info{}, false
	}
	at, err := time.Parse(stampLayout, stamp)
	if err != nil {
		return Info{}, false
	}
	return Info{ID: name, Kind: kind, CapturedAt: at.UTC().Format(time.RFC3339Nano)}, true
}

// Run captures on a fixed cadence until ctx is canceled. The first
// capture happens one period in, not at startup — the daemon's first
// seconds profile its own initialization, which is rarely the workload
// anyone wants to feed back into PGO. Errors are reported through
// the SetOnCapture observer and do not stop the loop.
func (s *Store) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = s.Capture(ctx)
		}
	}
}

func (s *Store) observe(kind string, err error) {
	if s.onCapture != nil {
		s.onCapture(kind, err)
	}
}
