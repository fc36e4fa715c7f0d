package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pornweb/internal/domain"
	"pornweb/internal/obs"
	"pornweb/internal/resilience"
)

// fakeRunner is a deterministic Runner: every host maps to the same
// entry bytes on every call, so reassigned shards reproduce their
// results exactly as a real study worker would.
type fakeRunner struct {
	mu     sync.Mutex
	visits int
}

func (f *fakeRunner) RunShard(ctx context.Context, a Assignment, kill *KillSwitch) (*Result, error) {
	r := &Result{Stage: a.Stage, Shard: a.Shard}
	for _, h := range a.Hosts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := kill.Visit(); err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.visits++
		f.mu.Unlock()
		r.Entries = append(r.Entries, Entry{Site: h, Raw: []byte("entry\x00for:" + h)})
	}
	r.SortEntries()
	r.Digest = r.ComputeDigest()
	return r, nil
}

func testHosts(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("site%03d.example%d.com", i, i%7)
	}
	return hosts
}

func testAssignments(hosts []string, shards int) []Assignment {
	parts := Partition(hosts, shards)
	out := make([]Assignment, len(parts))
	for i, p := range parts {
		out[i] = Assignment{
			Stage: "crawl/test", Corpus: "porn", Vantage: "ES",
			Shard: i, Shards: shards, Fingerprint: "fp", Seed: 1, Hosts: p,
		}
	}
	return out
}

func TestPartition(t *testing.T) {
	hosts := testHosts(100)

	parts := Partition(hosts, 4)
	if len(parts) != 4 {
		t.Fatalf("Partition returned %d shards, want 4", len(parts))
	}
	again := Partition(hosts, 4)
	if !reflect.DeepEqual(parts, again) {
		t.Error("Partition is not deterministic across calls")
	}

	// Every host lands in exactly one shard, order preserved within it.
	seen := map[string]int{}
	for i, p := range parts {
		prev := -1
		for _, h := range p {
			seen[h]++
			idx := -1
			for j, orig := range hosts {
				if orig == h {
					idx = j
					break
				}
			}
			if idx < prev {
				t.Errorf("shard %d does not preserve caller host order", i)
			}
			prev = idx
		}
	}
	for _, h := range hosts {
		if seen[h] != 1 {
			t.Errorf("host %s appears in %d shards, want 1", h, seen[h])
		}
	}

	// Hosts sharing a registrable domain co-locate: a site's subresource
	// hosts ride with it.
	withSubs := []string{"www.alpha.com", "cdn.alpha.com", "tracker.alpha.com", "beta.org"}
	parts = Partition(withSubs, 8)
	var alphaShard = -1
	for i, p := range parts {
		for _, h := range p {
			if domain.Base(h) == "alpha.com" {
				if alphaShard == -1 {
					alphaShard = i
				} else if alphaShard != i {
					t.Errorf("alpha.com hosts split across shards %d and %d", alphaShard, i)
				}
			}
		}
	}

	// Degenerate shard counts collapse to one shard.
	if got := Partition(hosts, 0); len(got) != 1 || len(got[0]) != len(hosts) {
		t.Errorf("Partition(_, 0) = %d shards, want everything in 1", len(got))
	}
}

func TestKillSwitch(t *testing.T) {
	var nilSwitch *KillSwitch
	if err := nilSwitch.Visit(); err != nil {
		t.Errorf("nil KillSwitch.Visit() = %v, want nil", err)
	}
	if nilSwitch.Dead() {
		t.Error("nil KillSwitch reports dead")
	}

	k := &KillSwitch{After: 3}
	for i := 1; i <= 2; i++ {
		if err := k.Visit(); err != nil {
			t.Fatalf("visit %d: %v, want nil", i, err)
		}
	}
	if k.Dead() {
		t.Error("switch dead before the seeded visit")
	}
	if err := k.Visit(); !errors.Is(err, ErrWorkerKilled) {
		t.Fatalf("visit 3: %v, want ErrWorkerKilled", err)
	}
	if !k.Dead() {
		t.Error("switch not dead after firing")
	}
	// Dead stays dead: the worker never recovers.
	if err := k.Visit(); !errors.Is(err, ErrWorkerKilled) {
		t.Errorf("visit after death: %v, want ErrWorkerKilled", err)
	}

	exited := 0
	ke := &KillSwitch{After: 1, Exit: func(code int) {
		exited = code
	}}
	if err := ke.Visit(); !errors.Is(err, ErrWorkerKilled) {
		t.Fatalf("Visit with Exit: %v, want ErrWorkerKilled", err)
	}
	if exited != 137 {
		t.Errorf("Exit called with %d, want 137", exited)
	}
}

// dispatch runs assignments through a fresh coordinator over the given
// workers and closes it.
func dispatch(t *testing.T, assignments []Assignment, workers ...Worker) (*Merged, *Coordinator, error) {
	t.Helper()
	c := NewCoordinator(obs.NewRegistry())
	for _, w := range workers {
		c.AddWorker(w)
	}
	merged, err := c.Dispatch(context.Background(), assignments)
	if cerr := c.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return merged, c, err
}

func TestDispatchOrderIndependent(t *testing.T) {
	hosts := testHosts(60)
	run := &fakeRunner{}
	assignments := testAssignments(hosts, 4)
	reversed := slices.Clone(assignments)
	slices.Reverse(reversed)

	// One worker folds the shards one wave at a time in dispatch order;
	// four run them in a single wave.
	one := []Worker{&LocalWorker{Label: "w0", Runner: run}}
	four := []Worker{&LocalWorker{Label: "w0", Runner: run}, &LocalWorker{Label: "w1", Runner: run},
		&LocalWorker{Label: "w2", Runner: run}, &LocalWorker{Label: "w3", Runner: run}}
	fwd, _, err := dispatch(t, assignments, one...)
	if err != nil {
		t.Fatal(err)
	}
	for name, order := range map[string][]Assignment{"reversed": reversed, "forward": assignments} {
		for _, fleet := range [][]Worker{one, four} {
			got, _, err := dispatch(t, order, fleet...)
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest != fwd.Digest {
				t.Errorf("%s, %d workers: merge digest %s, want %s", name, len(fleet), got.Digest, fwd.Digest)
			}
			if !reflect.DeepEqual(got.Entries, fwd.Entries) {
				t.Errorf("%s, %d workers: merged entries depend on arrival order", name, len(fleet))
			}
			if !reflect.DeepEqual(got.Shards, fwd.Shards) {
				t.Errorf("%s, %d workers: shard manifest rows depend on arrival order", name, len(fleet))
			}
		}
	}
	if fwd.Count != len(hosts) {
		t.Errorf("merged %d entries, want %d", fwd.Count, len(hosts))
	}
}

// tamperRunner answers like fakeRunner, then corrupts each result.
type tamperRunner struct {
	fakeRunner
	tamper func(*Result)
}

func (r *tamperRunner) RunShard(ctx context.Context, a Assignment, kill *KillSwitch) (*Result, error) {
	res, err := r.fakeRunner.RunShard(ctx, a, kill)
	if err == nil {
		r.tamper(res)
	}
	return res, err
}

// TestDispatchRejects pins every way a worker's result can fail
// validation: each is refused with its typed error, the worker is
// retired under that failure class, and its shard is reassigned so the
// merge still holds every visit exactly once.
func TestDispatchRejects(t *testing.T) {
	hosts := testHosts(20)
	assignments := testAssignments(hosts, 2)
	if len(assignments[0].Hosts) < 2 {
		t.Fatal("shard 0 has fewer than two hosts; enlarge the host list")
	}
	want, _, err := dispatch(t, assignments, &LocalWorker{Label: "honest", Runner: &fakeRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	redigest := func(r *Result) { r.Digest = r.ComputeDigest() }
	cases := []struct {
		name   string
		tamper func(*Result)
		want   error
		class  string
	}{
		// A tampered entry must fail the digest re-derivation.
		{"tampered", func(r *Result) { r.Entries[0].Raw = []byte("tampered") }, ErrDigestMismatch, "digest_mismatch"},
		{"wrong-shard", func(r *Result) { r.Shard = 9 }, ErrBadFrame, "bad_frame"},
		// The rest are rejected even with an internally consistent digest.
		{"stray-site", func(r *Result) {
			r.Entries = append(r.Entries, Entry{Site: "not-assigned.example.com", Raw: []byte("x")})
			redigest(r)
		}, ErrBadFrame, "bad_frame"},
		{"short", func(r *Result) { r.Entries = r.Entries[1:]; redigest(r) }, ErrBadFrame, "bad_frame"},
		{"duplicate-site", func(r *Result) {
			r.Entries[1] = r.Entries[0]
			redigest(r)
		}, ErrBadFrame, "bad_frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := (&tamperRunner{tamper: tc.tamper}).RunShard(context.Background(), assignments[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.validate(assignments[0]); !errors.Is(err, tc.want) {
				t.Fatalf("validate: %v, want %v", err, tc.want)
			}
			got, c, err := dispatch(t, assignments,
				&LocalWorker{Label: "liar", Runner: &tamperRunner{tamper: tc.tamper}},
				&LocalWorker{Label: "honest", Runner: &fakeRunner{}})
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest != want.Digest || got.Count != len(hosts) || !reflect.DeepEqual(got.Entries, want.Entries) {
				t.Errorf("merge after rejection: %d entries digest %s, want %d digest %s",
					got.Count, got.Digest, len(hosts), want.Digest)
			}
			rep := c.FleetReport()
			if rep.Retired != 1 || rep.Failures[tc.class] != 1 {
				t.Errorf("fleet after rejection: %d retired, failures %v; want the liar retired as %s",
					rep.Retired, rep.Failures, tc.class)
			}
		})
	}

	// Two results for one shard index are an accounting bug, never
	// folded twice.
	dup := append(slices.Clone(assignments), assignments[0])
	if _, _, err := dispatch(t, dup, &LocalWorker{Label: "w0", Runner: &fakeRunner{}},
		&LocalWorker{Label: "w1", Runner: &fakeRunner{}}, &LocalWorker{Label: "w2", Runner: &fakeRunner{}}); !errors.Is(err, ErrDuplicateShard) {
		t.Errorf("duplicate shard: %v, want ErrDuplicateShard", err)
	}
}

func TestCoordinatorDispatch(t *testing.T) {
	hosts := testHosts(40)
	run := &fakeRunner{}
	assignments := testAssignments(hosts, 4)

	c := NewCoordinator(obs.NewRegistry())
	for i := 0; i < 3; i++ {
		c.AddWorker(&LocalWorker{Label: fmt.Sprintf("w%d", i), Runner: run})
	}
	merged, err := c.Dispatch(context.Background(), assignments)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != len(hosts) {
		t.Fatalf("dispatch merged %d entries, want %d", merged.Count, len(hosts))
	}
	if len(merged.Shards) != 4 {
		t.Fatalf("dispatch produced %d shard rows, want 4", len(merged.Shards))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dispatch(context.Background(), assignments); !errors.Is(err, ErrClosed) {
		t.Errorf("Dispatch after Close: %v, want ErrClosed", err)
	}
}

func TestCoordinatorReassignment(t *testing.T) {
	hosts := testHosts(40)
	run := &fakeRunner{}
	assignments := testAssignments(hosts, 3)

	// Baseline: an all-healthy fleet.
	healthy := NewCoordinator(obs.NewRegistry())
	for i := 0; i < 3; i++ {
		healthy.AddWorker(&LocalWorker{Label: fmt.Sprintf("w%d", i), Runner: run})
	}
	want, err := healthy.Dispatch(context.Background(), assignments)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}

	// Same fleet, but worker 0 dies mid-shard.
	reg := obs.NewRegistry()
	faulty := NewCoordinator(reg)
	faulty.AddWorker(&LocalWorker{Label: "w0", Runner: run, Kill: &KillSwitch{After: 2}})
	faulty.AddWorker(&LocalWorker{Label: "w1", Runner: run})
	faulty.AddWorker(&LocalWorker{Label: "w2", Runner: run})
	got, err := faulty.Dispatch(context.Background(), assignments)
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.Close(); err != nil {
		t.Fatal(err)
	}

	if got.Digest != want.Digest {
		t.Errorf("recovered dispatch digest %s, healthy %s", got.Digest, want.Digest)
	}
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Error("recovered dispatch entries differ from healthy run")
	}
	if live, retired := faulty.Workers(); retired != 1 || live != 2 {
		t.Errorf("fleet after recovery: %d live, %d retired; want 2 live, 1 retired", live, retired)
	}
	if n := reg.Counter(metricReassigned).Value(); n == 0 {
		t.Error("no shards counted as reassigned")
	}
	if n := reg.Counter(metricRetired).Value(); n != 1 {
		t.Errorf("%d workers counted retired, want 1", n)
	}

	// A fleet that dies entirely surfaces ErrNoWorkers, not a hang.
	doomed := NewCoordinator(obs.NewRegistry())
	doomed.AddWorker(&LocalWorker{Label: "d0", Runner: run, Kill: &KillSwitch{After: 1}})
	if _, err := doomed.Dispatch(context.Background(), assignments); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("exhausted fleet: %v, want ErrNoWorkers", err)
	}
	if err := doomed.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteLoopback(t *testing.T) {
	hosts := testHosts(30)
	run := &fakeRunner{}
	assignments := testAssignments(hosts, 2)

	// In-process truth to compare the remote dispatch against.
	want, _, err := dispatch(t, assignments, &LocalWorker{Label: "local", Runner: run})
	if err != nil {
		t.Fatal(err)
	}

	ctrl := resilience.NewController(resilience.Policy{MaxAttempts: 5, Seed: 1,
		BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
	client := &http.Client{Timeout: 10 * time.Second}

	coord := NewCoordinator(obs.NewRegistry())
	coord.Client = client
	coord.Ctrl = ctrl
	if err := coord.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := coord.Close(); err != nil {
			t.Error(err)
		}
	}()

	var servers []*Server
	for i := 0; i < 2; i++ {
		srv := &Server{Label: fmt.Sprintf("remote%d", i), Runner: run, Fingerprint: "fp", Seed: 1}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer func(s *Server) {
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}(srv)
		servers = append(servers, srv)
		if err := Register(context.Background(), client, ctrl, coord.Addr(),
			Registration{Name: srv.Label, Addr: srv.Addr()}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	got, err := coord.Dispatch(ctx, assignments)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest {
		t.Errorf("remote dispatch digest %s, in-process %s", got.Digest, want.Digest)
	}
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Error("remote dispatch entries differ from in-process merge")
	}

	// A worker built for a different study refuses foreign work with a
	// fingerprint conflict, never a silent wrong answer.
	foreign := assignments[0]
	foreign.Fingerprint = "other-config"
	w := &RemoteWorker{Label: "remote0", Addr: servers[0].Addr(), Client: client, Ctrl: ctrl}
	if _, err := w.Run(ctx, foreign); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("foreign assignment: %v, want ErrFingerprintMismatch", err)
	}

	// Shutdown flips the server's Done channel for the worker main loop.
	if err := w.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-servers[0].Done():
	case <-ctx.Done():
		t.Error("Done() not closed after Shutdown")
	}
}
