package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The record codec. A record is one key/value pair in its framed,
// checksummed form:
//
//	length  u32  payload byte count
//	crc     u32  CRC-32 (IEEE) of payload
//	payload [length]byte = keyLen u16 | key | value
//
// All integers are big-endian. The CRC covers only the payload; the
// length field is implicitly verified because a corrupted length
// either overruns the input (a torn record) or frames a payload whose
// CRC cannot match. Segment files are a header followed by records,
// and the shard wire carries a result's visits as the same records,
// so one visit has one encoding on disk and on the wire.
const (
	recHeaderSize = 8 // length + crc
	// RecordOverhead is what framing adds to a record's key and value:
	// length, CRC and keyLen.
	RecordOverhead = recHeaderSize + 2
	maxRecordSize  = 1 << 30 // sanity bound: a corrupt length field must not allocate 4 GiB
	// MaxKeySize is the longest key a record can frame (keyLen is a u16).
	MaxKeySize = 1<<16 - 1
)

// ErrBadRecord: a record is torn (shorter than its length field
// claims), has an impossible length, fails its CRC, or holds a key
// that overruns its payload.
var ErrBadRecord = errors.New("store: bad record")

// AppendRecord appends key and value to dst as one framed record and
// returns the extended slice. The caller keeps key within MaxKeySize.
func AppendRecord(dst []byte, key string, value []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(2+len(key)+len(value)))
	dst = binary.BigEndian.AppendUint32(dst, 0) // CRC, filled in below
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+recHeaderSize:]))
	return dst
}

// recordSize returns the framed size a record header announces.
func recordSize(hdr []byte) (int, error) {
	if len(hdr) < recHeaderSize {
		return 0, fmt.Errorf("store: record header torn at %d bytes: %w", len(hdr), ErrBadRecord)
	}
	length := binary.BigEndian.Uint32(hdr)
	if length < 2 || length > maxRecordSize {
		return 0, fmt.Errorf("store: record length %d out of range: %w", length, ErrBadRecord)
	}
	return recHeaderSize + int(length), nil
}

// ParseRecord verifies and splits the record at the start of b, which
// may hold more bytes after it. It returns the key and value as
// sub-slices of b (nothing is copied) and the record's framed size.
func ParseRecord(b []byte) (key, value []byte, n int, err error) {
	n, err = recordSize(b)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(b) < n {
		return nil, nil, 0, fmt.Errorf("store: record torn: %d of %d bytes: %w", len(b), n, ErrBadRecord)
	}
	payload := b[recHeaderSize:n]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[4:8]); got != want {
		return nil, nil, 0, fmt.Errorf("store: record CRC %08x, want %08x: %w", got, want, ErrBadRecord)
	}
	keyLen := int(binary.BigEndian.Uint16(payload))
	if 2+keyLen > len(payload) {
		return nil, nil, 0, fmt.Errorf("store: record key of %d bytes overruns its %d-byte payload: %w",
			keyLen, len(payload), ErrBadRecord)
	}
	return payload[2 : 2+keyLen], payload[2+keyLen:], n, nil
}
