package cache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecords holds the record codec every file p2god reads back is written
// in to its contract:
//
//   - round trip: a stream of AppendRecord records reads back as exactly
//     those records, filling the whole stream;
//   - every single-byte flip of such a stream reads back as a strict prefix
//     of its records — the records before the damaged one — never as a
//     changed record (CRC-32C catches every burst of up to 32 bits; a
//     flipped length moves the extent the sum is checked over, and then a
//     match is a 2^-32 accident);
//   - every cut of the stream short of its end reads back as the records it
//     still holds whole, and what follows them is a torn tail, unless the
//     reader's bound on a record is shorter than the cut one declares (then
//     only zeros are torn);
//   - arbitrary bytes never panic the reader, and every record it accepts
//     is one the writer would have written there.
func FuzzRecords(f *testing.F) {
	f.Add("j-000001", []byte(`{"op":"accepted","id":"j-000001"}`), "job:5f0b", []byte(`{"who":"r2"}`), "", []byte{}, byte(0x40))
	f.Add("", []byte{0, 0, 0, 0, 0, 0, 0, 0}, "k", []byte{0xff}, "fleetdev:x", []byte("row"), byte(0xff))
	f.Fuzz(func(t *testing.T, k1 string, v1 []byte, k2 string, v2 []byte, k3 string, v3 []byte, mask byte) {
		want := []Record{{k1, v1}, {k2, v2}, {k3, v3}}
		var stream []byte
		for _, r := range want {
			stream = AppendRecord(stream, r.Key, r.Val)
		}
		if len(stream) > 1<<12 {
			return // the flip and cut loops are quadratic
		}
		got, end := ReadRecords(stream)
		if end != len(stream) || !sameRecords(got, want) {
			t.Fatalf("round trip: %d records in %d of %d bytes", len(got), end, len(stream))
		}

		if mask == 0 {
			mask = 1
		}
		for off := range stream {
			b := bytes.Clone(stream)
			b[off] ^= mask
			got, _ := ReadRecords(b)
			if len(got) >= len(want) || !sameRecords(got, want[:len(got)]) {
				t.Fatalf("byte %d ^ %#x: read %d records, want a strict prefix of the %d written", off, mask, len(got), len(want))
			}
		}

		for cut := range stream {
			got, end := ReadRecords(stream[:cut])
			if !sameRecords(got, want[:len(got)]) {
				t.Fatalf("cut at %d: read records that were not written", cut)
			}
			if end < cut && !TornTail(stream[end:cut], len(stream)) {
				t.Fatalf("cut at %d: the %d bytes after the valid prefix are not a torn tail", cut, cut-end)
			}
			next := want[len(got)]
			rest := stream[end:cut]
			if cut-end >= 8 && bytes.Count(rest, []byte{0}) < len(rest) && TornTail(rest, 11+len(next.Key)+len(next.Val)) {
				t.Fatalf("cut at %d: a record longer than the bound is a torn tail", cut)
			}
		}

		// Arbitrary bytes: what the reader accepts re-encodes to the prefix.
		for _, raw := range [][]byte{v1, v2, v3} {
			got, end := ReadRecords(raw)
			var again []byte
			for _, r := range got {
				again = AppendRecord(again, r.Key, r.Val)
			}
			if !bytes.Equal(again, raw[:end]) {
				t.Fatalf("read %d records from %q that do not re-encode to its %d-byte prefix", len(got), raw, end)
			}
			TornTail(raw[end:], len(raw))
		}
	})
}

// sameRecords compares records, a nil value equal to an empty one.
func sameRecords(got, want []Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Val, want[i].Val) {
			return false
		}
	}
	return true
}

// TestSpillServedOnlyUnderItsKey: spillPath maps ':' to '_', so two keys can
// share a path, and a file copied or renamed onto another key's path sits
// where that key looks. A spill file holds its key in its record: under any
// other key it is a miss that is recomputed, reported once, and replaced.
func TestSpillServedOnlyUnderItsKey(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, dir)
	corrupt := 0
	c.SetOnCorrupt(func() { corrupt++ })
	if _, _, err := c.DoBytes("job:aa", func() ([]byte, error) { return []byte("aa's report"), nil }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "job_aa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job_bb"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{"job:bb", "job_aa"} { // a copied file; a key that shares the path
		fresh := NewCache(4, dir)
		fresh.SetOnCorrupt(func() { corrupt++ })
		v, hit, err := fresh.DoBytes(key, func() ([]byte, error) { return []byte(key + "'s report"), nil })
		if err != nil || hit || string(v) != key+"'s report" {
			t.Fatalf("%s over another key's record: %q hit=%v err=%v, want a recompute", key, v, hit, err)
		}
		if corrupt != 1 {
			t.Fatalf("%s: %d corruptions reported, want 1", key, corrupt)
		}
		corrupt = 0
		// The fill replaced the file with the key's own record.
		again := NewCache(4, dir)
		if v, hit, err := again.DoBytes(key, func() ([]byte, error) { return nil, errors.New("must not refill") }); err != nil || !hit || string(v) != key+"'s report" {
			t.Fatalf("%s after the recompute: %q hit=%v err=%v", key, v, hit, err)
		}
	}

	// The probe that precedes a Do leaves the report to the Do.
	probe := NewCache(4, dir)
	probe.SetOnCorrupt(func() { corrupt++ })
	if _, ok := probe.ProbeBytes("job:aa"); ok {
		t.Fatal("job:aa's path now holds job_aa's record, and the probe served it")
	}
	if corrupt != 0 {
		t.Fatalf("a probe reported %d corruptions, want the Do that follows it to", corrupt)
	}
}
