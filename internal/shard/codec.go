package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"pornweb/internal/store"
)

// The wire protocol. Every message opens with one frame —
//
//	magic(4) "PWS2" | type(1) | length(4, BE) | payload | crc32(4, BE)
//
// with the CRC (IEEE) computed over type+length+payload so a bit flip
// anywhere in the frame is caught, and the payload a JSON rendering of
// a header struct. An assignment is exactly one frame. A result is a
// frame holding its header (stage, shard, worker, digest, telemetry
// and the entry count) followed by that many entries in the durable
// store's record framing (store.AppendRecord):
//
//	length(4) | crc32(4) | keyLen(2) | site | raw
//
// so a visit crosses the wire as the very record the coordinator's
// store persists, with no JSON or base64 step and its own CRC. Messages
// travel as HTTP bodies with a Content-Length between coordinator and
// workers; the CRCs are defense in depth for torn writes and proxy
// truncation that HTTP content lengths miss, and they give the fuzz
// target a hard contract: torn, truncated, or corrupt messages must
// error (ErrBadFrame), never panic, and never decode to phantom data.
// The magic is the wire version: a peer speaking another version is
// refused at its first message.

const (
	frameMagic = "PWS2"
	// frameOverhead is every byte of a frame that is not payload.
	frameOverhead = 4 + 1 + 4 + 4
	// maxFramePayload caps a frame's payload, and maxMessage a whole
	// message, at 256 MiB, so a corrupt length field can never become
	// an allocation bomb.
	maxFramePayload = 256 << 20
	maxMessage      = maxFramePayload + frameOverhead

	typeAssignment byte = 1
	typeResult     byte = 2
)

// resultHeader is the JSON payload of a result's header frame: the
// Result minus its entries, which follow the frame as records.
type resultHeader struct {
	Stage     string     `json:"stage"`
	Shard     int        `json:"shard"`
	Worker    string     `json:"worker,omitempty"`
	Entries   int        `json:"entries"`
	Digest    string     `json:"digest"`
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// appendFrame appends a frame of the given type around payload to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:]))
}

// marshalPayload renders v as a frame payload, within the cap.
func marshalPayload(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("shard: encode frame: %w", err)
	}
	if len(payload) > maxFramePayload {
		return nil, fmt.Errorf("shard: encode frame: payload %d bytes exceeds cap", len(payload))
	}
	return payload, nil
}

// splitFrame verifies the frame at the start of b and returns its
// payload and the bytes after it.
func splitFrame(b []byte, typ byte) (payload, rest []byte, err error) {
	if len(b) < frameOverhead {
		return nil, nil, fmt.Errorf("shard: frame truncated at %d bytes: %w", len(b), ErrBadFrame)
	}
	if string(b[:4]) != frameMagic {
		return nil, nil, fmt.Errorf("shard: bad frame magic %q, want %q: %w", b[:4], frameMagic, ErrBadFrame)
	}
	if b[4] != typ {
		return nil, nil, fmt.Errorf("shard: frame type %d, want %d: %w", b[4], typ, ErrBadFrame)
	}
	n := binary.BigEndian.Uint32(b[5:9])
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("shard: frame claims %d payload bytes, cap %d: %w", n, maxFramePayload, ErrBadFrame)
	}
	end := frameOverhead + int(n)
	if len(b) < end {
		return nil, nil, fmt.Errorf("shard: frame holds %d bytes, header claims %d: %w", len(b), end, ErrBadFrame)
	}
	want := binary.BigEndian.Uint32(b[9+n:])
	if got := crc32.ChecksumIEEE(b[4 : 9+n]); got != want {
		return nil, nil, fmt.Errorf("shard: frame CRC %08x, want %08x: %w", got, want, ErrBadFrame)
	}
	return b[9 : 9+n], b[end:], nil
}

// EncodeAssignment renders an assignment as one wire frame.
func EncodeAssignment(a *Assignment) ([]byte, error) {
	payload, err := marshalPayload(a)
	if err != nil {
		return nil, err
	}
	return appendFrame(make([]byte, 0, frameOverhead+len(payload)), typeAssignment, payload), nil
}

// DecodeAssignment parses a wire frame back into an assignment. Torn,
// truncated, or corrupt frames error with ErrBadFrame; they never
// panic and never yield a partial assignment.
func DecodeAssignment(b []byte) (*Assignment, error) {
	payload, rest, err := splitFrame(b, typeAssignment)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("shard: %d bytes after the assignment frame: %w", len(rest), ErrBadFrame)
	}
	var a Assignment
	if err := json.Unmarshal(payload, &a); err != nil {
		return nil, fmt.Errorf("shard: assignment payload: %v: %w", err, ErrBadFrame)
	}
	return &a, nil
}

// EncodeResult renders a result as its header frame followed by one
// record per entry, in a single buffer sized up front. Entries are
// sorted first so equal results encode to equal bytes.
func EncodeResult(r *Result) ([]byte, error) {
	r.SortEntries()
	payload, err := marshalPayload(resultHeader{
		Stage: r.Stage, Shard: r.Shard, Worker: r.Worker,
		Entries: len(r.Entries), Digest: r.Digest, Telemetry: r.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	size := frameOverhead + len(payload)
	for _, e := range r.Entries {
		if len(e.Site) > store.MaxKeySize {
			return nil, fmt.Errorf("shard: encode result: site of %d bytes exceeds a record key", len(e.Site))
		}
		size += store.RecordOverhead + len(e.Site) + len(e.Raw)
	}
	if size > maxMessage {
		return nil, fmt.Errorf("shard: encode result: %d bytes exceeds the %d-byte cap", size, maxMessage)
	}
	buf := appendFrame(make([]byte, 0, size), typeResult, payload)
	for _, e := range r.Entries {
		buf = store.AppendRecord(buf, e.Site, e.Raw)
	}
	return buf, nil
}

// DecodeResult parses a result message under the same contract as
// DecodeAssignment. Every record must verify and the header's entry
// count must match the records exactly, with nothing after the last.
// Each Entry.Raw is a sub-slice of b, not a copy: b must stay
// unmodified while the result is in use.
func DecodeResult(b []byte) (*Result, error) {
	payload, rest, err := splitFrame(b, typeResult)
	if err != nil {
		return nil, err
	}
	var h resultHeader
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("shard: result header: %v: %w", err, ErrBadFrame)
	}
	if h.Entries < 0 || h.Entries > len(rest)/store.RecordOverhead {
		return nil, fmt.Errorf("shard: result header claims %d entries in %d bytes: %w", h.Entries, len(rest), ErrBadFrame)
	}
	r := &Result{Stage: h.Stage, Shard: h.Shard, Worker: h.Worker, Digest: h.Digest, Telemetry: h.Telemetry}
	if h.Entries > 0 {
		r.Entries = make([]Entry, 0, h.Entries)
	}
	for i := 0; i < h.Entries; i++ {
		site, raw, n, err := store.ParseRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("shard: result entry %d of %d: %v: %w", i, h.Entries, err, ErrBadFrame)
		}
		r.Entries = append(r.Entries, Entry{Site: string(site), Raw: raw[:len(raw):len(raw)]})
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("shard: %d bytes after the result's %d entries: %w", len(rest), h.Entries, ErrBadFrame)
	}
	return r, nil
}

// readMessage reads one message body into a buffer of exactly its
// declared length, refusing a length above the message cap before
// allocating. A body of unknown length (n < 0) is read up to the cap.
func readMessage(r io.Reader, n int64) ([]byte, error) {
	if n > maxMessage {
		return nil, fmt.Errorf("shard: body of %d bytes exceeds the %d-byte cap: %w", n, maxMessage, ErrBadFrame)
	}
	var buf []byte
	var err error
	if n < 0 {
		buf, err = io.ReadAll(io.LimitReader(r, maxMessage))
	} else {
		buf = make([]byte, n)
		_, err = io.ReadFull(r, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: read body: %w", err)
	}
	return buf, nil
}
