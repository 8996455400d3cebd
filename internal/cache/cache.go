package cache

import (
	"container/list"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"p2go/internal/faults"
)

// Cache is the content-addressed artifact cache: a bounded in-memory LRU
// with single-flight fills and an optional on-disk spill for byte-valued
// artifacts. Keys are "<kind>:<digest>" strings; values are treated as
// immutable once stored (compile results, profiles, and serialized job
// results are never modified after creation).
//
// Single-flight: concurrent Do calls for the same key run the fill once;
// the others block and receive the filled value as a hit. If the fill
// fails (including per-job cancellation), nothing is stored and each
// waiter retries the fill itself, so one canceled job cannot poison an
// identical job that is still live.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recent
	inflight map[string]*flight
	max      int
	dir      string

	// faults injects disk degradation (faults.SlowDisk) into spill reads
	// and writes; nil is inert. Set via SetFaults.
	faults *faults.Set

	hits, misses int64
}

type cacheEntry struct {
	key string
	val any
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache creates a cache bounded to maxEntries (<=0 means a default of
// 512). dir, when non-empty, enables the on-disk spill for byte-valued
// artifacts: they are written through on fill and survive both eviction
// and process restarts.
func NewCache(maxEntries int, dir string) *Cache {
	if maxEntries <= 0 {
		maxEntries = 512
	}
	if dir != "" {
		_ = os.MkdirAll(dir, 0o755)
	}
	return &Cache{
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*flight{},
		max:      maxEntries,
		dir:      dir,
	}
}

// SetFaults wires a fault-injection set into the spill layer: SlowDisk
// events delay spill reads and writes, modeling a degraded shared disk.
// Call before the cache sees traffic.
func (c *Cache) SetFaults(fs *faults.Set) { c.faults = fs }

// slowDisk pays the injected latency of one degraded disk operation.
func (c *Cache) slowDisk() {
	if c.faults.Fire(faults.SlowDisk) {
		time.Sleep(2 * time.Millisecond)
	}
}

// Do returns the cached value for key, or runs fill once (single-flight)
// and stores the result. The second return reports whether the value was
// served without running this caller's fill.
func (c *Cache) Do(key string, fill func() (any, error)) (any, bool, error) {
	return c.do(key, fill, false)
}

// DoBytes is Do for byte-valued artifacts, which additionally spill to
// disk when the cache has a directory.
func (c *Cache) DoBytes(key string, fill func() ([]byte, error)) ([]byte, bool, error) {
	v, hit, err := c.do(key, func() (any, error) { return fill() }, true)
	if err != nil {
		return nil, hit, err
	}
	return v.([]byte), hit, nil
}

func (c *Cache) do(key string, fill func() (any, error), spill bool) (any, bool, error) {
	spill = spill && c.dir != ""
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e)
			c.hits++
			v := e.Value.(*cacheEntry).val
			c.mu.Unlock()
			return v, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				continue // leader failed; retry as the new leader
			}
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return f.val, true, nil
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		// The leader works outside the mutex — spill probe, fill, spill
		// write. Every analysis of every job shares this cache: a slow
		// disk or the fsync of the crash-atomic spill write must stall the
		// callers waiting on this key, not every other lookup.
		var (
			v       any
			err     error
			spilled bool
		)
		if spill {
			v, spilled = c.readSpill(key)
		}
		if !spilled {
			v, err = fill()
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if spilled {
			c.hits++
		} else {
			c.misses++
		}
		if err == nil {
			c.storeLocked(key, v)
		}
		c.mu.Unlock()
		if err == nil && spill && !spilled {
			c.writeSpill(key, v.([]byte))
		}
		f.val, f.err = v, err
		close(f.done)
		if err != nil {
			return nil, false, err
		}
		return v, spilled, nil
	}
}

// readSpill reads key's spilled artifact, paying any injected disk latency.
// Call it without holding c.mu.
func (c *Cache) readSpill(key string) ([]byte, bool) {
	c.slowDisk()
	data, err := os.ReadFile(c.spillPath(key))
	return data, err == nil
}

func (c *Cache) storeLocked(key string, v any) {
	if e, ok := c.entries[key]; ok {
		e.Value.(*cacheEntry).val = v
		c.lru.MoveToFront(e)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: v})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// writeSpill persists a byte artifact crash-atomically: a uniquely named
// temp file is written and fsynced, then renamed over the target, and
// the directory is fsynced so the rename itself is durable. kill -9 at
// any point leaves either no entry or the complete entry — never a torn
// file (the read-side detect-and-purge stays as a second line of defense
// for media corruption). The unique temp name also makes concurrent
// writers safe — including two replica processes spilling the same
// content-addressed key into a shared directory; whichever rename lands
// last wins with identical bytes. Failures are deliberately ignored: the
// spill is an optimization, not a durability guarantee.
func (c *Cache) writeSpill(key string, data []byte) {
	c.slowDisk()
	path := c.spillPath(key)
	tmp, err := os.CreateTemp(c.dir, ".spill-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	defer os.Remove(name) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	if err := os.Rename(name, path); err != nil {
		return
	}
	if d, err := os.Open(c.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.dir, strings.ReplaceAll(key, ":", "_"))
}

// GetBytes returns a byte artifact when present, checking the in-memory
// LRU first and the on-disk spill second (a spill hit is promoted back
// into memory). Unlike Do it never fills: a miss just reports false.
// This is the lookup path for artifacts whose fill is owned elsewhere,
// like fleet device rows computed inside a running fleet job.
func (c *Cache) GetBytes(key string) ([]byte, bool) {
	return c.getBytes(key, true)
}

// ProbeBytes is GetBytes for a caller that follows a miss with a Do on
// the same key (p2god's admission probe, then the worker's DoBytes): a
// hit counts as one, a miss counts nothing, so the one lookup the request
// amounts to is counted once, by whichever call answered it.
func (c *Cache) ProbeBytes(key string) ([]byte, bool) {
	return c.getBytes(key, false)
}

func (c *Cache) getBytes(key string, countMiss bool) ([]byte, bool) {
	c.mu.Lock()
	if data, ok := c.bytesLocked(key); ok {
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	var (
		data    []byte
		spilled bool
	)
	if c.dir != "" {
		data, spilled = c.readSpill(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !spilled {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	// A PutBytes may have landed while the disk was read; the entry in
	// memory is the one later hits will see, so serve it.
	if stored, ok := c.bytesLocked(key); ok {
		return stored, true
	}
	c.hits++
	c.storeLocked(key, data)
	return data, true
}

// bytesLocked is the in-memory half of GetBytes: a hit on a byte-valued
// entry, counted and moved to the LRU's front.
func (c *Cache) bytesLocked(key string) ([]byte, bool) {
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	data, isBytes := e.Value.(*cacheEntry).val.([]byte)
	if !isBytes {
		return nil, false
	}
	c.lru.MoveToFront(e)
	c.hits++
	return data, true
}

// PutBytes stores a byte artifact, writing through to the spill when one
// is configured — the companion to GetBytes for externally-filled
// artifacts.
func (c *Cache) PutBytes(key string, data []byte) {
	c.mu.Lock()
	c.storeLocked(key, data)
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		c.writeSpill(key, data)
	}
}

// Delete purges an entry from both the in-memory LRU and the on-disk
// spill. Used when a cached artifact is detected to be corrupted so the
// next lookup recomputes it.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.Remove(e)
		delete(c.entries, key)
	}
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		_ = os.Remove(c.spillPath(key))
	}
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Hits, Misses int64
	Entries      int
}

// Stats returns the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
}
