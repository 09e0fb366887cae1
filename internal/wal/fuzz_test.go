package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frameLog frames records exactly as Append writes them.
func frameLog(recs ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(r))
		out = append(out, r...)
	}
	return out
}

// FuzzScan throws arbitrary bytes at the log scanner recovery runs. It
// must never panic; every record it returns must re-validate as a frame;
// the resume offset must lie within the data, just past the last
// record's frame (0 when there is none); and a re-scan of the
// prefix it keeps (data[:off], what Open truncates the log to) must
// return the same records at the same offset, having lost exactly the
// torn tail — so a log whose only damage was its tail re-scans clean.
// (Damage mid-log stays in the kept prefix and is skipped again.) Seed
// corpus, in testdata/fuzz/FuzzScan: a valid log, a torn tail, a
// flipped CRC, a corrupted length header, garbage before a valid log.
func FuzzScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records, off, skipped, skippedBytes := scan(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside [0, %d]", off, len(data))
		}
		for i, r := range records {
			if n, ok := validFrameAt(frameLog(r), 0); !ok || n != len(r) {
				t.Fatalf("record %d (%d bytes) does not re-validate as a frame", i, len(r))
			}
		}
		// Appends resume right after the last record's frame, or at 0
		// when there is none.
		var last []byte
		if n := len(records); n > 0 {
			last = frameLog(records[n-1])
		}
		if (last == nil && off != 0) || off < int64(len(last)) || !bytes.Equal(data[off-int64(len(last)):off], last) {
			t.Fatalf("offset %d is not the end of the last record", off)
		}
		tail := int64(len(data)) - off
		if (skipped == 0) != (skippedBytes == 0) || skippedBytes < tail {
			t.Fatalf("%d skipped regions of %d bytes, torn tail %d bytes", skipped, skippedBytes, tail)
		}
		again, off2, skipped2, skippedBytes2 := scan(data[:off])
		if !sameRecords(again, records) || off2 != off {
			t.Fatalf("re-scan of data[:%d]: %d records at offset %d, want %d at %d", off, len(again), off2, len(records), off)
		}
		if skippedBytes2 != skippedBytes-tail || (skipped2 == 0) != (skippedBytes2 == 0) {
			t.Fatalf("re-scan skipped %d regions of %d bytes, want %d bytes (first scan: %d of %d, tail %d)",
				skipped2, skippedBytes2, skippedBytes-tail, skipped, skippedBytes, tail)
		}
	})
}
