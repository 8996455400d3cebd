package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2go/internal/faults"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4, "")
	fills := 0
	fill := func() (any, error) { fills++; return 42, nil }

	v, hit, err := c.Do("k", fill)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first Do = %v hit=%v err=%v, want fill", v, hit, err)
	}
	v, hit, err = c.Do("k", fill)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second Do = %v hit=%v err=%v, want hit", v, hit, err)
	}
	if fills != 1 {
		t.Fatalf("fills = %d, want 1", fills)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestProbeBytesCountsOnlyHits: a probe followed by a Do on the same key
// is one lookup — the probe's miss is not counted, the Do's is — and a
// probe that answers counts as the hit it is, from memory or from the spill
// (which it promotes, like GetBytes).
func TestProbeBytesCountsOnlyHits(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, dir)
	if _, ok := c.ProbeBytes("job:k"); ok {
		t.Fatal("probe of an empty cache hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after a missed probe = %+v, want nothing counted", st)
	}
	if _, hit, err := c.DoBytes("job:k", func() ([]byte, error) { return []byte("v"), nil }); err != nil || hit {
		t.Fatalf("DoBytes after the probe: hit=%v err=%v, want a fill", hit, err)
	}
	if v, ok := c.ProbeBytes("job:k"); !ok || string(v) != "v" {
		t.Fatalf("probe after the fill = %q, %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// A second cache over the same directory starts cold in memory: the
	// probe answers from the spill and promotes the entry.
	c2 := NewCache(4, dir)
	if v, ok := c2.ProbeBytes("job:k"); !ok || string(v) != "v" {
		t.Fatalf("probe of the spill = %q, %v", v, ok)
	}
	if st := c2.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats after a spill probe = %+v, want 1 hit and the entry promoted", st)
	}
	// GetBytes still counts its misses.
	if _, ok := c2.GetBytes("job:other"); ok {
		t.Fatal("GetBytes of an absent key hit")
	}
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("stats after a missed GetBytes = %+v, want the miss counted", st)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(4, "")
	var fills atomic.Int64
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	hits := make([]bool, n)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do("shared", func() (any, error) {
				fills.Add(1)
				<-release
				return "artifact", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			hits[i], vals[i] = hit, v
		}(i)
	}
	close(release)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fills = %d, want 1 (single-flight)", got)
	}
	misses := 0
	for i := 0; i < n; i++ {
		if vals[i] != "artifact" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers filled, want exactly 1", misses)
	}
	st := c.Stats()
	if st.Hits != n-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d hits / 1 miss", st, n-1)
	}
}

func TestCacheFillErrorNotStoredAndWaitersRetry(t *testing.T) {
	c := NewCache(4, "")
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call fills again.
	v, hit, err := c.Do("k", func() (any, error) { return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry = %v hit=%v err=%v, want fresh fill", v, hit, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, "")
	fill := func(v int) func() (any, error) { return func() (any, error) { return v, nil } }
	c.Do("a", fill(1))
	c.Do("b", fill(2))
	c.Do("a", fill(1)) // refresh a; b is now oldest
	c.Do("c", fill(3)) // evicts b
	if _, hit, _ := c.Do("a", fill(1)); !hit {
		t.Error("a should have survived eviction")
	}
	if _, hit, _ := c.Do("b", fill(2)); hit {
		t.Error("b should have been evicted")
	}
	if st := c.Stats(); st.Entries > 2 {
		t.Errorf("entries = %d, want <= 2", st.Entries)
	}
}

func TestCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, dir)
	c.DoBytes("job:aa", func() ([]byte, error) { return []byte("first"), nil })
	c.DoBytes("job:bb", func() ([]byte, error) { return []byte("second"), nil }) // evicts job:aa from memory

	// The evicted artifact must come back from disk, without refilling.
	v, hit, err := c.DoBytes("job:aa", func() ([]byte, error) {
		return nil, errors.New("must not refill")
	})
	if err != nil || !hit || string(v) != "first" {
		t.Fatalf("spill read = %q hit=%v err=%v", v, hit, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job_bb")); err != nil {
		t.Errorf("spill file for job:bb missing: %v", err)
	}

	// A fresh cache over the same directory sees artifacts from the
	// previous process lifetime.
	c2 := NewCache(4, dir)
	v, hit, err = c2.DoBytes("job:bb", func() ([]byte, error) { return nil, errors.New("must not refill") })
	if err != nil || !hit || string(v) != "second" {
		t.Fatalf("restart read = %q hit=%v err=%v", v, hit, err)
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(64, "")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			for j := 0; j < 20; j++ {
				if _, _, err := c.Do(key, func() (any, error) { return i % 8, nil }); err != nil {
					t.Errorf("Do: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
}

// A spill probe sleeps on a degraded disk (faults.SlowDisk, 2 ms a read).
// It must do so outside the cache mutex: every compile, profile and plan
// lookup of every job shares this cache, so a probe that holds the lock
// makes a memory hit on an unrelated key wait out the disk read. One
// goroutine misses key after key against the slow spill; each time a read
// has just begun, the test clocks one memory hit on key B. With the lock
// held across the read the median hit takes the rest of the read, about
// 2 ms; without it, microseconds.
func TestSlowSpillProbeDoesNotStallMemoryHits(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probe func(c *Cache, key string)
	}{
		{"GetBytes", func(c *Cache, key string) { c.GetBytes(key) }},
		{"DoBytes", func(c *Cache, key string) {
			c.DoBytes(key, func() ([]byte, error) { return nil, errors.New("not computed here") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(16, t.TempDir())
			c.PutBytes("row:b", []byte("resident"))
			slow := faults.MustSet(faults.Spec{Point: faults.SlowDisk, Probability: 1})
			c.SetFaults(slow)

			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						tc.probe(c, fmt.Sprintf("row:a%d", i))
					}
				}
			}()
			lat := make([]time.Duration, 21)
			for i := range lat {
				reads := slow.Fired(faults.SlowDisk)
				for slow.Fired(faults.SlowDisk) == reads {
					runtime.Gosched()
				}
				start := time.Now()
				v, ok := c.GetBytes("row:b")
				lat[i] = time.Since(start)
				if !ok || string(v) != "resident" {
					t.Errorf("memory hit %d = %q, %v", i, v, ok)
				}
			}
			close(stop)
			<-done
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if median := lat[len(lat)/2]; median > time.Millisecond {
				t.Errorf("median memory hit on another key took %v while the spill was being read: the probe holds the cache lock", median)
			}
		})
	}
}

// A GetBytes that finds its key on disk while a PutBytes for it lands serves
// one value and leaves it resident; single-flight still holds on the spill
// path (one fill for concurrent DoBytes of a key absent from disk).
func TestSpillProbeOutsideLockKeepsSingleFlight(t *testing.T) {
	dir := t.TempDir()
	NewCache(4, dir).PutBytes("row:x", []byte("spilled"))

	c := NewCache(4, dir)
	c.SetFaults(faults.MustSet(faults.Spec{Point: faults.SlowDisk, Probability: 1}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, ok := c.GetBytes("row:x"); !ok || string(v) != "spilled" {
				t.Errorf("GetBytes = %q, %v", v, ok)
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits != 8 || st.Misses != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 8 hits, 0 misses, 1 entry", st)
	}

	var fills atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.DoBytes("row:y", func() ([]byte, error) {
				fills.Add(1)
				return []byte("filled"), nil
			})
			if err != nil || string(v) != "filled" {
				t.Errorf("DoBytes = %q, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if fills.Load() != 1 {
		t.Errorf("fills = %d, want 1", fills.Load())
	}
}

// TestWriteAtomicPublish: a rename replaces the target, a link to an
// existing target fails with os.ErrExist and leaves it untouched, and no
// temp file survives either path.
func TestWriteAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec")
	for _, data := range []string{"one", "two"} {
		if err := WriteAtomic(path, []byte(data), os.Rename); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Fatalf("after rename: %q, want %q", got, data)
		}
	}
	if err := WriteAtomic(path, []byte("three"), os.Link); !errors.Is(err, os.ErrExist) {
		t.Fatalf("link over an existing file: %v, want os.ErrExist", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Errorf("lost link race changed the target to %q", got)
	}
	if err := WriteAtomic(filepath.Join(dir, "fresh"), []byte("four"), os.Link); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only rec and fresh", names)
	}
}
