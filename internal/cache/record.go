package cache

import (
	"encoding/binary"
	"hash/crc32"
)

// Record is one framed record, the unit of every file p2god reads back (the
// job journal, spill files, fleet checkpoints): two big-endian uint32
// lengths, of Key and of Val, then Key, Val, and the CRC-32C of everything
// before it. A reader trusts nothing from the first record that is short or
// fails its sum: a torn tail, a writer's append in flight, or damage.
type Record struct {
	Key string
	Val []byte
}

// castagnoli is the CRC-32C table records are summed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the record of key and val to dst.
func AppendRecord(dst []byte, key string, val []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(val)))
	dst = append(dst, key...)
	dst = append(dst, val...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// ReadRecords returns data's valid records in order and the length of the
// prefix they fill. Values alias data, capped so an append to one cannot
// write into the next.
func ReadRecords(data []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for {
		rec := data[off:]
		extent, ok := recordExtent(rec)
		if !ok || extent > uint64(len(rec)) {
			return recs, off
		}
		body := int(extent) - 4
		if crc32.Checksum(rec[:body], castagnoli) != binary.BigEndian.Uint32(rec[body:]) {
			return recs, off
		}
		keyEnd := 8 + int(binary.BigEndian.Uint32(rec))
		recs = append(recs, Record{Key: string(rec[8:keyEnd]), Val: rec[keyEnd:body:body]})
		off += int(extent)
	}
}

// TornTail reports whether rest, what ReadRecords left after the valid
// prefix, is what an interrupted append leaves: a record cut short (its
// header, or the extent of at most maxLen bytes that declares, runs to the
// end of the data), or zeros, which a power loss can leave where unsynced
// appends were. No crash writes anything else: bytes after a bad record, or
// an extent longer than the writer's largest record, which is a damaged
// length that would otherwise swallow every record after it.
func TornTail(rest []byte, maxLen int) bool {
	if extent, ok := recordExtent(rest); !ok || extent >= uint64(len(rest)) && extent <= uint64(maxLen) {
		return true
	}
	for _, b := range rest {
		if b != 0 {
			return false
		}
	}
	return true
}

// recordExtent is the length the record at the start of rec declares, from
// its header through its sum; ok is false when rec is shorter than a header.
func recordExtent(rec []byte) (uint64, bool) {
	if len(rec) < 8 {
		return 0, false
	}
	return 8 + uint64(binary.BigEndian.Uint32(rec)) + uint64(binary.BigEndian.Uint32(rec[4:])) + 4, true
}
