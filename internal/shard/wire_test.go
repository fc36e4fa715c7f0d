package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"pornweb/internal/obs"
	"pornweb/internal/resilience"
)

// bulkyResult is testResult with entries big enough, and hostile
// enough to JSON (quotes, NULs, high bytes), that any re-encoding of
// Raw shows in the frame size.
func bulkyResult() *Result {
	r := testResult()
	for i := range r.Entries {
		r.Entries[i].Raw = bytes.Repeat([]byte{0xa5, '"', 0}, 400)
	}
	r.Digest = r.ComputeDigest()
	return r
}

// TestResultFrameCarriesRawBytes pins the size of a result frame: the
// header frame plus each entry's site and raw bytes with ten bytes of
// record framing, nothing more. A base64 or JSON-escaped Raw cannot
// fit.
func TestResultFrameCarriesRawBytes(t *testing.T) {
	r := bulkyResult()
	frame, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	bare := *r
	bare.Entries = nil
	header, err := EncodeResult(&bare)
	if err != nil {
		t.Fatal(err)
	}
	limit := len(header)
	for _, e := range r.Entries {
		limit += len(e.Site) + len(e.Raw) + 10
	}
	if len(frame) > limit {
		t.Errorf("result frame is %d bytes, want at most %d (header %d + entries with 10 bytes of framing each)",
			len(frame), limit, len(header))
	}
}

// TestDecodeResultAliasesFrame pins that decoding copies no entry
// bytes: every Raw points into the frame it was decoded from, capped so
// that an append cannot run into the next record.
func TestDecodeResultAliasesFrame(t *testing.T) {
	frame, err := EncodeResult(bulkyResult())
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	hi := lo + uintptr(len(frame))
	for _, e := range r.Entries {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(e.Raw)))
		if p < lo || p+uintptr(len(e.Raw)) > hi {
			t.Errorf("entry %s: Raw is a copy, not a sub-slice of the frame", e.Site)
		}
		if cap(e.Raw) != len(e.Raw) {
			t.Errorf("entry %s: Raw has capacity %d past its %d bytes; an append would overwrite the next record",
				e.Site, cap(e.Raw), len(e.Raw))
		}
	}
}

// TestHandleRunSetsContentLength pins that a worker answers /run with
// a Content-Length equal to the result frame, so the coordinator reads
// the body into one buffer of exactly that size. The frame is far
// larger than net/http's pre-chunking buffer, which would otherwise
// add the header by itself.
func TestHandleRunSetsContentLength(t *testing.T) {
	bulky := &tamperRunner{tamper: func(r *Result) {
		for i := range r.Entries {
			r.Entries[i].Raw = bytes.Repeat([]byte("entry "), 1000)
		}
		r.Digest = r.ComputeDigest()
	}}
	srv := &Server{Label: "w", Runner: bulky, Fingerprint: "fp", Seed: 1}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()
	a := testAssignments(testHosts(12), 1)[0]
	frame, err := EncodeAssignment(&a)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post("http://"+srv.Addr()+"/run", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run answered %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("/run Content-Length %d, transfer encoding %v; want %d, identity",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if _, err := DecodeResult(body); err != nil {
		t.Errorf("/run body: %v", err)
	}
}

// asVersion1 rewrites a frame's magic to the previous wire version's.
func asVersion1(frame []byte) []byte {
	out := bytes.Clone(frame)
	copy(out, "PWS1")
	return out
}

// TestWireVersionMismatch pins how a mixed-version fleet fails: a
// previous-version frame is a bad frame on either side, a current
// worker answers a previous-version assignment with HTTP 400, and the
// coordinator retires a previous-version worker under bad_frame at its
// first assignment and reassigns the shard to a current worker.
func TestWireVersionMismatch(t *testing.T) {
	frame, err := EncodeResult(testResult())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(asVersion1(frame)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("PWS1 result frame: %v, want ErrBadFrame", err)
	}

	run := &fakeRunner{}
	current := &Server{Label: "current", Runner: run, Fingerprint: "fp", Seed: 1}
	if err := current.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := current.Close(); err != nil {
			t.Error(err)
		}
	}()
	client := &http.Client{Timeout: 10 * time.Second}
	assignments := testAssignments(testHosts(20), 2)
	afr, err := EncodeAssignment(&assignments[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://"+current.Addr()+"/run", "application/octet-stream", bytes.NewReader(asVersion1(afr)))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("current worker answered a PWS1 assignment with %d, want 400", resp.StatusCode)
	}

	// A previous-version worker rejects every current frame the way its
	// decoder did: HTTP 400 naming the magic.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	old := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `shard: bad frame magic "PWS2": shard: bad frame`, http.StatusBadRequest)
	}), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = old.Serve(ln) }()
	defer func() {
		if err := old.Close(); err != nil {
			t.Error(err)
		}
	}()

	ctrl := resilience.NewController(resilience.Policy{MaxAttempts: 3, Seed: 1,
		BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	want, _, err := dispatch(t, assignments, &LocalWorker{Label: "local", Runner: run})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(obs.NewRegistry())
	c.AddWorker(&RemoteWorker{Label: "old", Addr: ln.Addr().String(), Client: client, Ctrl: ctrl})
	c.AddWorker(&RemoteWorker{Label: "current", Addr: current.Addr(), Client: client, Ctrl: ctrl})
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := c.Dispatch(ctx, assignments)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest || !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Errorf("mixed-version dispatch merged digest %s, want %s", got.Digest, want.Digest)
	}
	rep := c.FleetReport()
	if rep.Retired != 1 || rep.Failures["bad_frame"] != 1 {
		t.Errorf("fleet: %d retired, failures %v; want the old worker retired as bad_frame", rep.Retired, rep.Failures)
	}
	for _, w := range rep.Workers {
		if w.Name == "old" && w.Live {
			t.Error("the previous-version worker is still live")
		}
	}
}
