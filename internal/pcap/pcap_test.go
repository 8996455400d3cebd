package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	recs := []Record{
		{TimestampSec: 1, TimestampFrac: 500, Data: []byte{1, 2, 3}},
		{TimestampSec: 2, TimestampFrac: 600, Data: []byte{}},
		{TimestampSec: 3, TimestampFrac: 700, Data: bytes.Repeat([]byte{0xAB}, 1500)},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("records = %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].TimestampSec != recs[i].TimestampSec ||
			got[i].TimestampFrac != recs[i].TimestampFrac ||
			!bytes.Equal(got[i].Data, recs[i].Data) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Header.VersionMajor != 2 || rd.Header.VersionMinor != 4 {
		t.Errorf("version = %d.%d, want 2.4", rd.Header.VersionMajor, rd.Header.VersionMinor)
	}
	if rd.Header.SnapLen != 65535 || rd.Header.LinkType != LinkTypeEthernet {
		t.Errorf("header = %+v", rd.Header)
	}
	if rd.Header.Nanosecond {
		t.Error("default magic is microseconds")
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("empty file Next = %v, want EOF", err)
	}
}

func TestBigEndianAndNanosecondFiles(t *testing.T) {
	// Construct a big-endian nanosecond file by hand.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], MagicNanoseconds)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 10)
	binary.BigEndian.PutUint32(rec[4:8], 999)
	binary.BigEndian.PutUint32(rec[8:12], 4)
	binary.BigEndian.PutUint32(rec[12:16], 4)
	buf.Write(rec)
	buf.Write([]byte{9, 8, 7, 6})

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TimestampSec != 10 || got[0].TimestampFrac != 999 {
		t.Fatalf("records = %+v", got)
	}
	rd, _ := NewReader(bytes.NewReader(buf.Bytes()))
	if !rd.Header.Nanosecond {
		t.Error("nanosecond flag not detected")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("zero magic should fail")
	}
	if _, err := ReadAll(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("short header should fail")
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Data: bytes.Repeat([]byte{1}, 100)}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Data) != 10 {
		t.Errorf("captured length = %d, want 10", len(got[0].Data))
	}
}

func TestImplausibleCaptureLength(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.Write(Record{Data: []byte{1}})
	raw := buf.Bytes()
	// Corrupt the capture length of the first record.
	binary.LittleEndian.PutUint32(raw[24+8:24+12], 1<<30)
	if _, err := ReadAll(bytes.NewReader(raw)); err == nil {
		t.Error("implausible capture length should fail")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		recs := make([]Record, len(payloads))
		for i, p := range payloads {
			recs[i] = Record{TimestampSec: uint32(i), Data: p}
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			return false
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			want := recs[i].Data
			if len(want) > 65535 {
				want = want[:65535]
			}
			if !bytes.Equal(got[i].Data, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClaimedLengthAllocatesAsBytesArrive: a record header may claim up to
// 256 MiB; a file that then ends after a few bytes fails having allocated
// for about what it held, not for the claim.
func TestClaimedLengthAllocatesAsBytesArrive(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.Write(Record{Data: bytes.Repeat([]byte{7}, 100)})
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[24+8:24+12], 200<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadAll(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated record: err = %v, want an unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("reading a 100-byte record claimed at 200 MiB allocated %d bytes", got)
	}
}

// FuzzPcapReader: whatever bytes a capture file holds, ReadAll never
// panics, and what it accepts writes back out (WriteAll) to a file that
// reads to the same records, each cut to the writer's snap length. The
// committed corpus (testdata/fuzz/FuzzPcapReader: files in both byte
// orders and resolutions, an empty one, truncated and over-claimed records)
// also runs as plain subtests in every `go test`.
func FuzzPcapReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written file does not read back: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("%d records read back, want %d", len(again), len(recs))
		}
		for i, rec := range recs {
			want := rec.Data[:min(len(rec.Data), 65535)]
			if again[i].TimestampSec != rec.TimestampSec || again[i].TimestampFrac != rec.TimestampFrac ||
				!bytes.Equal(again[i].Data, want) {
				t.Fatalf("record %d did not round-trip", i)
			}
		}
	})
}
