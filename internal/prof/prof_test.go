package prof

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestMeterMeasuresWork(t *testing.T) {
	m := Begin(time.Millisecond)
	// Allocate enough that the allocation delta is unambiguous.
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	time.Sleep(5 * time.Millisecond)
	mid := m.Sample()
	u := m.End()
	_ = keep

	if u.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %v, want > 0", u.WallSeconds)
	}
	if u.AllocBytes < 64*(64<<10) {
		t.Errorf("AllocBytes = %d, want >= %d", u.AllocBytes, 64*(64<<10))
	}
	if u.AllocObjects <= 0 {
		t.Errorf("AllocObjects = %d, want > 0", u.AllocObjects)
	}
	if u.HeapPeakBytes <= 0 {
		t.Errorf("HeapPeakBytes = %d, want > 0", u.HeapPeakBytes)
	}
	if u.GoroutinePeak <= 0 {
		t.Errorf("GoroutinePeak = %d, want > 0", u.GoroutinePeak)
	}
	if u.CPUSeconds < 0 {
		t.Errorf("CPUSeconds = %v, want >= 0", u.CPUSeconds)
	}
	if mid.WallSeconds > u.WallSeconds {
		t.Errorf("mid-flight sample wall %v exceeds final %v", mid.WallSeconds, u.WallSeconds)
	}
	// End is idempotent and must not hang or panic on repeat.
	if again := m.End(); again.WallSeconds <= 0 {
		t.Errorf("second End() = %+v, want a usable usage", again)
	}
}

func TestStoreCaptureListOpen(t *testing.T) {
	dir := t.TempDir()
	var observed []string
	s, err := NewStore(StoreConfig{Dir: dir, CPUDuration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.SetOnCapture(func(kind string, err error) {
		if err == nil {
			observed = append(observed, kind)
		} else {
			observed = append(observed, kind+":err")
		}
	})
	infos, err := s.Capture(context.Background())
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if len(infos) != 2 {
		t.Fatalf("Capture returned %d infos, want 2 (cpu+heap): %+v", len(infos), infos)
	}
	if len(observed) != 2 || observed[0] != KindCPU || observed[1] != KindHeap {
		t.Errorf("observer saw %v, want [cpu heap]", observed)
	}

	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 {
		t.Fatalf("List returned %d captures, want 2: %+v", len(listed), listed)
	}
	for _, info := range listed {
		data, err := s.Open(info.ID)
		if err != nil {
			t.Fatalf("Open(%s): %v", info.ID, err)
		}
		if len(data) == 0 {
			t.Errorf("capture %s is empty", info.ID)
		}
		// pprof output is gzip-compressed protobuf.
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("capture %s does not look like gzipped pprof (prefix % x)", info.ID, data[:min(4, len(data))])
		}
	}
}

func TestStoreOpenRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Dir: dir, CPUDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a file outside the store that a naive join would reach.
	outside := filepath.Join(filepath.Dir(dir), "secret")
	if err := os.WriteFile(outside, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../secret", "..%2fsecret", "secret", "", ".", "20060102T150405.000000000-cpu.pprof/../../secret"} {
		if _, err := s.Open(id); err == nil {
			t.Errorf("Open(%q) succeeded, want error", id)
		}
	}
}

func TestStoreRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Dir: dir, Keep: 2, CPUDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Capture(context.Background()); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		// Distinct wall-clock stamps keep IDs unique across iterations.
		time.Sleep(2 * time.Millisecond)
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	perKind := map[string]int{}
	for _, info := range listed {
		perKind[info.Kind]++
	}
	if perKind[KindCPU] != 2 || perKind[KindHeap] != 2 {
		t.Fatalf("retention kept %v, want 2 of each kind", perKind)
	}
	// Survivors must be the newest: IDs sort chronologically and List is
	// newest-first.
	for i := 1; i < len(listed); i++ {
		if listed[i-1].ID < listed[i].ID {
			t.Fatalf("List not newest-first: %s before %s", listed[i-1].ID, listed[i].ID)
		}
	}
}

func TestStoreSkipsStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Dir: dir, CPUDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".capture-123", "notes.txt", "20060102T150405.000000000-weird.pprof"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 0 {
		t.Fatalf("List picked up stray files: %+v", listed)
	}
}
