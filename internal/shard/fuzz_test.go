package shard

import (
	"reflect"
	"testing"
)

// FuzzShardCodec hammers the wire-protocol decoders with arbitrary
// bytes. The decoders sit on every coordinator/worker hop, fed by a
// network; the contract is that torn, truncated, or corrupt frames
// error (ErrBadFrame) and never panic, and that any frame a decoder
// does accept round-trips: re-encoding the decoded message and
// decoding again yields the same message, so nothing decodes to
// phantom data the encoder could not have produced.
func FuzzShardCodec(f *testing.F) {
	if frame, err := EncodeAssignment(testAssignment()); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(mutate(frame, len(frame)/2))
	}
	if frame, err := EncodeResult(testResult()); err == nil {
		f.Add(frame)
		f.Add(frame[:frameOverhead])
		f.Add(mutate(frame, 0))
		f.Add(mutate(frame, 4))
		f.Add(mutate(frame, len(frame)-1))
	}
	// Telemetry-free peers are still on the wire; seed their shapes too.
	bare := testAssignment()
	bare.TraceID, bare.ParentSpan, bare.Telemetry = "", 0, false
	if frame, err := EncodeAssignment(bare); err == nil {
		f.Add(frame)
	}
	bareRes := testResult()
	bareRes.Telemetry = nil
	if frame, err := EncodeResult(bareRes); err == nil {
		f.Add(frame)
		f.Add(mutate(frame, len(frame)/3))
	}
	// Damage past an intact header frame: torn and corrupt records, and
	// records that do not match the header's entry count.
	for _, d := range recordDamage(f) {
		f.Add(d.b)
	}
	f.Add([]byte{})
	f.Add([]byte(frameMagic))
	f.Add([]byte("PWS2\x01\xff\xff\xff\xff"))
	// The previous wire version's shape, which must be refused.
	f.Add([]byte("PWS1\x01\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := DecodeAssignment(data); err == nil {
			frame, err := EncodeAssignment(a)
			if err != nil {
				t.Fatalf("re-encode accepted assignment: %v", err)
			}
			back, err := DecodeAssignment(frame)
			if err != nil {
				t.Fatalf("re-decode assignment: %v", err)
			}
			if !reflect.DeepEqual(a, back) {
				t.Errorf("assignment round-trip drift: %+v vs %+v", a, back)
			}
		}
		if r, err := DecodeResult(data); err == nil {
			// EncodeResult canonicalizes entry order; sort the accepted
			// message the same way before comparing.
			r.SortEntries()
			frame, err := EncodeResult(r)
			if err != nil {
				t.Fatalf("re-encode accepted result: %v", err)
			}
			back, err := DecodeResult(frame)
			if err != nil {
				t.Fatalf("re-decode result: %v", err)
			}
			if !reflect.DeepEqual(r, back) {
				t.Errorf("result round-trip drift: %+v vs %+v", r, back)
			}
		}
	})
}
