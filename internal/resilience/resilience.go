// Package resilience is the failure-handling machinery of the crawl
// path: bounded retries with exponential backoff and full jitter
// (honoring Retry-After), a per-host circuit breaker with
// closed/open/half-open states, and the failure taxonomy that turns raw
// transport errors into the classes the study aggregates. Large-scale
// crawl measurements live or die on disciplined failure handling — the
// paper loses ~7% of porn sites and ~12% of regular sites to flaky
// hosts (Section 3); this layer makes that loss a measured,
// policy-driven quantity instead of an artifact of luck.
//
// Everything here is deterministic given Policy.Seed, so a fixed-seed
// study produces the same retry schedule on every run.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// Class is one bucket of the failure taxonomy. A failed page visit or
// request maps to exactly one class.
type Class string

// The failure taxonomy. The first eight are the study's reported
// classes; canceled and other absorb caller-induced aborts and anything
// unrecognized.
const (
	ClassTimeout      Class = "timeout"       // request or page deadline expired
	ClassRefused      Class = "refused"       // connection refused / dead host
	ClassReset        Class = "reset"         // mid-stream TCP reset
	ClassTruncated    Class = "truncated"     // body shorter than Content-Length
	Class5xx          Class = "5xx-exhausted" // server errors survived every retry
	ClassRedirectLoop Class = "redirect-loop" // redirect cycle or hop-limit hit
	ClassBreakerOpen  Class = "breaker-open"  // circuit breaker rejected the request
	ClassGeoBlocked   Class = "geo-blocked"   // HTTP 451 from this vantage
	ClassStoreWrite   Class = "store-write"   // durable visit-store append/sync failed
	ClassCanceled     Class = "canceled"      // the crawl itself was canceled
	ClassOther        Class = "other"
)

// Classes lists the taxonomy in report order.
func Classes() []Class {
	return []Class{ClassTimeout, ClassRefused, ClassReset, ClassTruncated,
		Class5xx, ClassRedirectLoop, ClassBreakerOpen, ClassGeoBlocked,
		ClassStoreWrite, ClassCanceled, ClassOther}
}

// Sentinel errors the crawl layer wraps into its failures so Classify
// can recognize them structurally.
var (
	// ErrBreakerOpen is returned when a host's circuit breaker rejects a
	// request without attempting it.
	ErrBreakerOpen = errors.New("circuit breaker open")
	// ErrRedirectLoop marks a redirect chain that revisited a URL or
	// exceeded the hop limit.
	ErrRedirectLoop = errors.New("redirect loop")
	// ErrTruncated marks a response body cut short of its declared length.
	ErrTruncated = errors.New("truncated response body")
)

// Classify maps an error from the crawl path to its taxonomy class.
// Sentinels are matched structurally; transport errors, which surface
// from net/http as strings, fall back to message matching.
func Classify(err error) Class {
	if err == nil {
		return ""
	}
	switch {
	case errors.Is(err, ErrBreakerOpen):
		return ClassBreakerOpen
	case errors.Is(err, ErrRedirectLoop):
		return ClassRedirectLoop
	case errors.Is(err, ErrTruncated):
		return ClassTruncated
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "context canceled"):
		return ClassCanceled
	case strings.Contains(msg, "Client.Timeout"), strings.Contains(msg, "deadline exceeded"),
		strings.Contains(msg, "timeout"):
		return ClassTimeout
	case strings.Contains(msg, "connection reset"), strings.Contains(msg, "broken pipe"):
		return ClassReset
	case strings.Contains(msg, "unexpected EOF"), strings.Contains(msg, "truncated"):
		return ClassTruncated
	case strings.Contains(msg, "redirect"):
		return ClassRedirectLoop
	// A refused vhost closes the accepted connection before
	// writing, which the client reads as a bare EOF.
	case strings.Contains(msg, "refused"), strings.Contains(msg, "EOF"),
		strings.Contains(msg, "no such host"):
		return ClassRefused
	default:
		return ClassOther
	}
}

// ClassifyStatus maps a terminal HTTP status to a failure class, or ""
// when the status is not a failure (the crawl treats 4xx pages, like
// real browsers, as successfully loaded content).
func ClassifyStatus(status int) Class {
	switch {
	case status == 451:
		return ClassGeoBlocked
	case status >= 500:
		return Class5xx
	default:
		return ""
	}
}

// Retryable reports whether an attempt failing with err is worth
// retrying: transient transport faults are, caller aborts and
// structural failures (redirect loops, open breakers) are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrBreakerOpen) || errors.Is(err, ErrRedirectLoop) {
		return false
	}
	if errors.Is(err, ErrTruncated) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	msg := err.Error()
	if strings.Contains(msg, "context canceled") {
		return false
	}
	for _, transient := range []string{
		"refused", "EOF", "connection reset", "broken pipe",
		"Client.Timeout", "truncated",
	} {
		if strings.Contains(msg, transient) {
			return true
		}
	}
	return false
}

// RetryableStatus reports whether an HTTP status is worth retrying:
// transient server errors and 429 are, everything else is a definitive
// answer.
func RetryableStatus(status int) bool {
	return status == 429 || (status >= 500 && status != 501 && status != 505)
}

// Policy configures retries and the circuit breaker. The zero value
// disables both (single-shot requests, no breaker), so existing callers
// are untouched.
type Policy struct {
	// MaxAttempts is the total tries for one request, including the
	// first; 0 and 1 both mean single-shot.
	MaxAttempts int
	// BaseDelay caps the full-jitter backoff before the first retry
	// (default 50ms); subsequent retries double the cap.
	BaseDelay time.Duration
	// MaxDelay caps any single backoff, including honored Retry-After
	// hints (default 2s).
	MaxDelay time.Duration
	// Seed drives the jitter; a fixed seed reproduces the schedule.
	Seed int64
	// BreakerThreshold opens a host's breaker after this many
	// consecutive failures; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// half-opening (default 500ms).
	BreakerCooldown time.Duration
	// BreakerProbes is how many trial requests a half-open breaker
	// admits (default 1).
	BreakerProbes int
}

// Active reports whether the policy does anything at all.
func (p Policy) Active() bool { return p.MaxAttempts > 1 || p.BreakerThreshold > 0 }

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 500 * time.Millisecond
	}
	if p.BreakerProbes <= 0 {
		p.BreakerProbes = 1
	}
	return p
}

// State is a circuit breaker state.
type State int

// Breaker states.
const (
	Closed   State = iota // requests flow; consecutive failures counted
	Open                  // requests rejected until the cooldown passes
	HalfOpen              // a bounded number of probe requests admitted
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

type hostBreaker struct {
	state    State
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probes   int       // probes admitted while half-open
}

// Controller applies a Policy: it owns the per-host breakers and the
// seeded jitter source. All methods are safe for concurrent use, and
// every method of a nil *Controller is a no-op that admits everything —
// callers without a policy need no branches.
type Controller struct {
	pol Policy

	mu sync.Mutex
	// guarded by mu
	rng *rand.Rand
	// guarded by mu
	hosts map[string]*hostBreaker
	// guarded by mu
	onTransition func(host string, from, to State)
	// now is the test clock hook.
	// guarded by mu
	now func() time.Time
}

// NewController builds a controller for the policy (nil when the policy
// is entirely inactive, which is valid: all methods no-op).
func NewController(p Policy) *Controller {
	if !p.Active() {
		return nil
	}
	p = p.withDefaults()
	return &Controller{
		pol:   p,
		rng:   rand.New(rand.NewSource(p.Seed)),
		hosts: map[string]*hostBreaker{},
		now:   time.Now,
	}
}

// Policy returns the controller's (defaulted) policy.
func (c *Controller) Policy() Policy {
	if c == nil {
		return Policy{MaxAttempts: 1}
	}
	return c.pol
}

// OnTransition registers a hook called (under no lock held by the
// caller's request path) whenever any host's breaker changes state.
func (c *Controller) OnTransition(fn func(host string, from, to State)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.onTransition = fn
	c.mu.Unlock()
}

// Allow reports whether a request to host may proceed. It returns
// ErrBreakerOpen (wrapped with the host) when the breaker rejects.
func (c *Controller) Allow(host string) error {
	if c == nil || c.pol.BreakerThreshold <= 0 {
		return nil
	}
	c.mu.Lock()
	b := c.breaker(host)
	switch b.state {
	case Open:
		if c.now().Sub(b.openedAt) < c.pol.BreakerCooldown {
			c.mu.Unlock()
			return fmt.Errorf("%s: %w", host, ErrBreakerOpen)
		}
		c.transition(host, b, HalfOpen)
		b.probes = 1
		c.mu.Unlock()
		return nil
	case HalfOpen:
		if b.probes >= c.pol.BreakerProbes {
			c.mu.Unlock()
			return fmt.Errorf("%s: %w", host, ErrBreakerOpen)
		}
		b.probes++
		c.mu.Unlock()
		return nil
	default:
		c.mu.Unlock()
		return nil
	}
}

// Report records the outcome of an attempt against host: failures
// accumulate toward opening the breaker, a half-open success closes it.
func (c *Controller) Report(host string, ok bool) {
	if c == nil || c.pol.BreakerThreshold <= 0 {
		return
	}
	c.mu.Lock()
	b := c.breaker(host)
	switch {
	case ok:
		if b.state != Closed {
			c.transition(host, b, Closed)
		}
		b.fails = 0
	case b.state == HalfOpen:
		// The probe failed: reopen and restart the cooldown.
		c.transition(host, b, Open)
		b.openedAt = c.now()
	case b.state == Closed:
		b.fails++
		if b.fails >= c.pol.BreakerThreshold {
			c.transition(host, b, Open)
			b.openedAt = c.now()
		}
	}
	c.mu.Unlock()
}

// StateOf returns host's current breaker state.
func (c *Controller) StateOf(host string) State {
	if c == nil {
		return Closed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.hosts[host]; ok {
		return b.state
	}
	return Closed
}

// breaker returns (creating if needed) host's breaker.
// guarded by mu
func (c *Controller) breaker(host string) *hostBreaker {
	b, ok := c.hosts[host]
	if !ok {
		b = &hostBreaker{}
		c.hosts[host] = b
	}
	return b
}

// transition flips b to the new state and fires the hook. The hook
// runs inline under the lock, so it must not call back into the
// controller.
// guarded by mu
func (c *Controller) transition(host string, b *hostBreaker, to State) {
	from := b.state
	b.state = to
	b.fails = 0
	b.probes = 0
	if c.onTransition != nil {
		c.onTransition(host, from, to)
	}
}

// Delay computes the backoff before the retry after the attempt-th try
// (1-based): full jitter over an exponentially growing cap, raised to a
// server Retry-After hint when one was given, and never above MaxDelay.
func (c *Controller) Delay(attempt int, retryAfter time.Duration) time.Duration {
	if c == nil {
		return 0
	}
	if attempt < 1 {
		attempt = 1
	}
	ceil := c.pol.BaseDelay
	for i := 1; i < attempt && ceil < c.pol.MaxDelay; i++ {
		ceil *= 2
	}
	if ceil > c.pol.MaxDelay {
		ceil = c.pol.MaxDelay
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.pol.MaxDelay {
		d = c.pol.MaxDelay
	}
	return d
}

// Sleep waits for d or until ctx is done, reporting whether the full
// delay elapsed.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
