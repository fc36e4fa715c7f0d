package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"pornweb/internal/obs"
)

func testAssignment() *Assignment {
	return &Assignment{
		Stage: "crawl/porn-ES", Corpus: "porn", Vantage: "ES",
		Shard: 2, Shards: 4, Fingerprint: "0011223344556677", Seed: 42,
		Hosts:   []string{"a.example.com", "b.example.org"},
		TraceID: "run-0011223344556677-42", ParentSpan: 7, Telemetry: true,
	}
}

func testResult() *Result {
	r := &Result{
		Stage: "crawl/porn-ES", Shard: 2, Worker: "w1",
		Entries: []Entry{
			{Site: "b.example.org", Raw: []byte("raw\x00bytes")},
			{Site: "a.example.com", Raw: []byte(`{"page":{}}`)},
		},
		Telemetry: &Telemetry{
			Worker:      "w1",
			MetricsAddr: "127.0.0.1:9999",
			TraceID:     "run-0011223344556677-42",
			Metrics: &obs.Snapshot{Points: []obs.SnapshotPoint{
				{Name: "visits_total", Kind: "counter", Count: 2},
			}},
			Spans: []obs.SpanRecord{
				{Name: "shard/run", TraceID: "run-0011223344556677-42"},
			},
			Flight: []obs.VisitEvent{
				{Site: "a.example.com", Worker: "w1", Shard: 2},
			},
		},
	}
	r.SortEntries()
	r.Digest = r.ComputeDigest()
	return r
}

func TestCodecRoundTrip(t *testing.T) {
	a := testAssignment()
	frame, err := EncodeAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAssignment(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Errorf("assignment round-trip: got %+v, want %+v", back, a)
	}

	r := testResult()
	frame, err = EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	rback, err := DecodeResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, rback) {
		t.Errorf("result round-trip: got %+v, want %+v", rback, r)
	}
	// Equal results encode to equal bytes: the wire form is canonical.
	again, err := EncodeResult(testResult())
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != string(again) {
		t.Error("equal results encoded to different bytes")
	}
}

func TestCodecRejectsDamage(t *testing.T) {
	frame, err := EncodeResult(testResult())
	if err != nil {
		t.Fatal(err)
	}

	cases := []damaged{
		{"empty", nil},
		{"torn header", frame[:6]},
		{"torn payload", frame[:len(frame)/2]},
		{"truncated tail", frame[:len(frame)-1]},
		{"trailing garbage", append(append([]byte(nil), frame...), 0xff)},
		{"bad magic", mutate(frame, 0)},
		{"wrong type", mutate(frame, 4)},
		{"corrupt length", mutate(frame, 5)},
		{"flipped payload bit", mutate(frame, 15)},
		{"corrupt crc", mutate(frame, len(frame)-1)},
	}
	cases = append(cases, recordDamage(t)...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeResult(c.b); !errors.Is(err, ErrBadFrame) {
				t.Errorf("DecodeResult(%s) = %v, want ErrBadFrame", c.name, err)
			}
		})
	}

	// A result frame is not an assignment frame.
	if _, err := DecodeAssignment(frame); !errors.Is(err, ErrBadFrame) {
		t.Errorf("DecodeAssignment(result frame) = %v, want ErrBadFrame", err)
	}

	// A frame whose length field claims more than the cap is rejected
	// before any allocation.
	huge := append([]byte(nil), frame...)
	huge[5], huge[6], huge[7], huge[8] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeResult(huge); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized length claim: %v, want ErrBadFrame", err)
	}

	// Valid framing around an unparsable payload still errors: CRC
	// protects transport, JSON protects structure.
	bad := appendFrame(nil, typeResult, []byte(`"not a result object"`))
	if _, err := DecodeResult(bad); !errors.Is(err, ErrBadFrame) {
		t.Errorf("non-object payload: %v, want ErrBadFrame", err)
	}
}

// TestCodecBackwardCompatible proves the telemetry fields are a
// compatible extension of the wire format: frames from a peer that
// predates them (no trace context, no telemetry sidecar) still decode,
// and frames that omit telemetry round-trip without growing phantom
// fields. This is the versioning seam — all new fields are omitempty.
func TestCodecBackwardCompatible(t *testing.T) {
	a := testAssignment()
	a.TraceID, a.ParentSpan, a.Telemetry = "", 0, false
	frame, err := EncodeAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAssignment(frame)
	if err != nil {
		t.Fatalf("v0-style assignment frame rejected: %v", err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Errorf("v0 assignment round-trip: got %+v, want %+v", back, a)
	}

	r := testResult()
	r.Telemetry = nil
	rframe, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	rback, err := DecodeResult(rframe)
	if err != nil {
		t.Fatalf("v0-style result frame rejected: %v", err)
	}
	if rback.Telemetry != nil {
		t.Errorf("telemetry-free frame decoded with telemetry: %+v", rback.Telemetry)
	}
}

// TestDigestIgnoresTelemetry pins the sidecar invariant at the wire
// layer: the result digest covers data entries only, so shipping (or
// losing) telemetry can never change what the coordinator verifies.
func TestDigestIgnoresTelemetry(t *testing.T) {
	with := testResult()
	without := testResult()
	without.Telemetry = nil
	if with.ComputeDigest() != without.ComputeDigest() {
		t.Error("digest changed when telemetry sidecar was dropped")
	}
}

// damaged is one broken message and what broke it.
type damaged struct {
	name string
	b    []byte
}

// recordDamage breaks testResult's message after its intact header
// frame, in the records and in how they match the header's count.
// Every one must fail with ErrBadFrame.
func recordDamage(t testing.TB) []damaged {
	t.Helper()
	r := testResult()
	frame, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd := frameOverhead + int(binary.BigEndian.Uint32(frame[5:9]))
	records := frame[hdrEnd:]
	// withCount re-frames the header claiming n entries, then appends
	// the original records.
	withCount := func(n int) []byte {
		payload, err := json.Marshal(resultHeader{Stage: r.Stage, Shard: r.Shard, Worker: r.Worker,
			Entries: n, Digest: r.Digest, Telemetry: r.Telemetry})
		if err != nil {
			t.Fatal(err)
		}
		return append(appendFrame(nil, typeResult, payload), records...)
	}
	// A record with a valid CRC whose keyLen (0xffff) overruns its
	// four-byte payload.
	payload := []byte{0xff, 0xff, 'a', 'b'}
	overrun := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	overrun = binary.BigEndian.AppendUint32(overrun, crc32.ChecksumIEEE(payload))
	overrun = append(overrun, payload...)
	return []damaged{
		{"torn record", frame[:len(frame)-3]},
		{"record header only", frame[:hdrEnd+6]},
		{"record CRC flip", mutate(frame, hdrEnd+4)},
		{"record payload flip", mutate(frame, hdrEnd+12)},
		{"count above records", withCount(len(r.Entries) + 1)},
		{"count below records", withCount(len(r.Entries) - 1)},
		{"negative count", withCount(-1)},
		{"bytes after last record", append(bytes.Clone(frame), 0, 0, 0, 2, 0)},
		{"key overruns record", append(withCount(len(r.Entries)+1), overrun...)},
	}
}

// mutate flips one bit of b at index i, copying first.
func mutate(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}
