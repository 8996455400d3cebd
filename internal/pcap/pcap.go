// Package pcap reads and writes classic libpcap capture files (magic
// 0xa1b2c3d4, microsecond resolution, and the 0xa1b23c4d nanosecond
// variant), in both byte orders — enough to persist and replay the traffic
// traces P2GO profiles with, without any external dependency.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Magic numbers.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkTypeEthernet is the only link type the tools emit.
const LinkTypeEthernet = 1

// Record is one captured packet.
type Record struct {
	TimestampSec  uint32
	TimestampFrac uint32 // micro- or nanoseconds depending on file magic
	Data          []byte
}

// Header is the global pcap file header.
type Header struct {
	Nanosecond   bool
	VersionMajor uint16
	VersionMinor uint16
	SnapLen      uint32
	LinkType     uint32
}

// Writer writes a pcap file.
type Writer struct {
	w       io.Writer
	snapLen uint32
}

// NewWriter writes the global header and returns a Writer. SnapLen 0 means
// 65535.
func NewWriter(w io.Writer, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = 65535
	}
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcap: write header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// Write appends one packet record.
func (w *Writer) Write(rec Record) error {
	capLen := uint32(len(rec.Data))
	if capLen > w.snapLen {
		capLen = w.snapLen
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:4], rec.TimestampSec)
	binary.LittleEndian.PutUint32(hdr[4:8], rec.TimestampFrac)
	binary.LittleEndian.PutUint32(hdr[8:12], capLen)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(rec.Data)))
	if _, err := w.w.Write(hdr); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(rec.Data[:capLen]); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	return nil
}

// Reader reads a pcap file.
type Reader struct {
	r         io.Reader
	byteOrder binary.ByteOrder
	Header    Header
}

// NewReader parses the global header.
func NewReader(r io.Reader) (*Reader, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pcap: read header: %w", err)
	}
	rd := &Reader{r: r}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicroseconds:
		rd.byteOrder = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		rd.byteOrder = binary.LittleEndian
		rd.Header.Nanosecond = true
	case magicBE == MagicMicroseconds:
		rd.byteOrder = binary.BigEndian
	case magicBE == MagicNanoseconds:
		rd.byteOrder = binary.BigEndian
		rd.Header.Nanosecond = true
	default:
		return nil, fmt.Errorf("pcap: bad magic 0x%08x", magicLE)
	}
	bo := rd.byteOrder
	rd.Header.VersionMajor = bo.Uint16(hdr[4:6])
	rd.Header.VersionMinor = bo.Uint16(hdr[6:8])
	rd.Header.SnapLen = bo.Uint32(hdr[16:20])
	rd.Header.LinkType = bo.Uint32(hdr[20:24])
	return rd, nil
}

// Next returns the next record, or io.EOF at end of file.
func (r *Reader) Next() (Record, error) {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	bo := r.byteOrder
	rec := Record{
		TimestampSec:  bo.Uint32(hdr[0:4]),
		TimestampFrac: bo.Uint32(hdr[4:8]),
	}
	capLen := int(bo.Uint32(hdr[8:12]))
	if capLen > 256*1024*1024 {
		return Record{}, fmt.Errorf("pcap: implausible capture length %d", capLen)
	}
	// The length is the file's claim: the record grows a chunk at a time as
	// its bytes arrive, so a corrupt header costs what the file holds.
	rec.Data = make([]byte, 0, min(capLen, readChunk))
	for have := 0; have < capLen; have = len(rec.Data) {
		n := min(capLen-have, readChunk)
		rec.Data = slices.Grow(rec.Data, n)[:have+n]
		if _, err := io.ReadFull(r.r, rec.Data[have:]); err != nil {
			return Record{}, fmt.Errorf("pcap: read record data: %w", err)
		}
	}
	return rec, nil
}

// readChunk bounds what Next allocates ahead of the bytes it has read.
const readChunk = 64 << 10

// ReadAll reads every record.
func ReadAll(r io.Reader) ([]Record, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// WriteAll writes all records with the default snap length.
func WriteAll(w io.Writer, recs []Record) error {
	pw, err := NewWriter(w, 0)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := pw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
