package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/obsv"
	"daesim/internal/sweep"
)

// FleetClient routes simulations across a fleet of sweepd replicas.
// Every point is routed by its own key through a consistent-hash Ring of
// the replica addresses, keyed by the same identity as the persistent
// cache (engine version | suite fingerprint | canonical params), so a
// given cache key always lands on the same replica — each replica's
// single-flight L1 and store see all traffic for its share of the
// keyspace, and N replicas hold N disjoint warm caches instead of N
// copies of one.
//
// Failures are survived through an explicit ladder (DESIGN.md §13):
//
//   - Refusals that would repeat anywhere (4xx bad request, 409 skew)
//     fail the call loudly, immediately.
//   - Transport errors and 5xx — the signatures of a dying or
//     overloaded replica — reroute the affected points to the next
//     owners in ring order (Ring.Owners), bounded by MaxAttempts
//     distinct replicas per point, with bounded exponential backoff
//     (deterministically jittered) between retry rounds.
//   - Each replica sits behind a circuit breaker: FailureThreshold
//     consecutive failures open it, and while open the replica is
//     skipped whenever another candidate exists. After Cooldown the
//     breaker goes half-open and admits a single probe; success closes
//     it (the replica rejoins the scatter loop at full traffic),
//     failure re-opens it. When every candidate's breaker is open the
//     marks are ignored rather than failing without trying.
//   - A replica answering 503 with the DrainingHeader is shutting down
//     cleanly: its work reroutes at once with no breaker penalty and
//     no backoff round — draining is not a failure.
//   - A point whose every candidate failed does not fail the whole
//     call: batch calls return the results the surviving owners
//     produced plus an error wrapping sweep.ErrUnavailable, which a
//     Degrade-enabled sweep.Runner converts into last-resort local
//     simulation.
//
// RunBatch and RatioBatch have the hook shapes of
// experiments.Context.RemoteBatch and RemoteSearch; attaching both is
// repro -remote host1,host2,... (DESIGN.md §11). Every simulation
// travels as a /v1/batch/run or /v1/batch/search request. A
// FleetClient is safe for concurrent use.
type FleetClient struct {
	clients []*Client
	ring    *Ring

	// MaxAttempts bounds how many distinct replicas one point is tried
	// on before it is declared unavailable (0 = every replica).
	MaxAttempts int
	// FailureThreshold is how many consecutive retryable failures open
	// a replica's circuit breaker (default 3).
	FailureThreshold int
	// Cooldown is how long an open breaker waits before going
	// half-open and admitting a recovery probe (default 2s).
	Cooldown time.Duration
	// BackoffBase and BackoffMax bound the exponential backoff between
	// scatter rounds that saw retryable failures: round r sleeps
	// jittered min(BackoffBase<<r, BackoffMax) (defaults 5ms, 500ms).
	// The jitter is a pure function of BackoffSeed and the round, so a
	// replayed chaos run waits the same schedule.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	BackoffSeed uint64

	breakers []breaker

	// now and sleep are injectable for breaker and backoff tests.
	now   func() time.Time
	sleep func(time.Duration)

	retries, breakerOpens, drainingReroutes, unavailable atomic.Int64

	// latency holds per-replica request-latency histograms once
	// Instrument has been called; nil slots mean "not observing".
	latency []*obsv.Histogram
}

// FleetMetrics is a snapshot of a FleetClient's failure-handling
// counters (repro -chaos-stats reports them).
type FleetMetrics struct {
	// Retries counts point-attempts rerouted after a retryable failure.
	Retries int64 `json:"retries"`
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens int64 `json:"breaker_opens"`
	// Hedges is always 0: tail-latency hedging was removed (DESIGN.md
	// §13). The field and its /metrics series stay because perfbench
	// compiles against FleetMetrics.
	Hedges int64 `json:"hedges"`
	// DrainingReroutes counts point-attempts rerouted off a cleanly
	// draining replica (no failure charged).
	DrainingReroutes int64 `json:"draining_reroutes"`
	// Unavailable counts points that exhausted every candidate (the
	// ones a Degrade runner simulates locally).
	Unavailable int64 `json:"unavailable"`
}

// maxFleet bounds the replica count (per-point attempt sets are
// bitmasks). Fleets anywhere near this size would saturate on suite
// builds long before routing became the bottleneck.
const maxFleet = 64

// NewFleetClient returns a client routing over the replica base URLs
// (e.g. "http://10.0.0.1:8077"). The URL strings are the ring identity:
// every client of a fleet must list the same addresses — spelled the
// same way — for their rings to agree (Health cross-checks the daemons'
// advertised membership when sweepd runs with -fleet).
func NewFleetClient(urls []string) (*FleetClient, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("daemon fleet: no replica URLs")
	}
	if len(urls) > maxFleet {
		return nil, fmt.Errorf("daemon fleet: %d replicas exceeds the %d-replica limit", len(urls), maxFleet)
	}
	members := make([]string, len(urls))
	clients := make([]*Client, len(urls))
	seen := make(map[string]int, len(urls))
	for i, u := range urls {
		for len(u) > 1 && u[len(u)-1] == '/' {
			u = u[:len(u)-1]
		}
		if u == "" {
			return nil, fmt.Errorf("daemon fleet: replica %d has an empty URL", i)
		}
		// Duplicates collapse to identical vnode hashes: the ring would
		// route as if the fleet were smaller while maxAttempts still
		// counts both entries, silently shrinking the real failover set.
		if prev, dup := seen[u]; dup {
			return nil, fmt.Errorf("daemon fleet: replicas %d and %d are the same URL %q after trailing-slash normalization; every replica must be listed once", prev, i, u)
		}
		seen[u] = i
		members[i] = u
		clients[i] = NewClient(u)
	}
	return &FleetClient{
		clients:          clients,
		ring:             NewRing(members),
		FailureThreshold: 3,
		Cooldown:         2 * time.Second,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       500 * time.Millisecond,
		breakers:         make([]breaker, len(urls)),
		now:              time.Now,
		sleep:            time.Sleep,
	}, nil
}

// Clients returns the per-replica clients, index-aligned with the ring
// members (for stats aggregation, transport wrapping and tests).
func (f *FleetClient) Clients() []*Client { return f.clients }

// Ring returns the routing ring.
func (f *FleetClient) Ring() *Ring { return f.ring }

// Metrics returns a snapshot of the failure-handling counters.
func (f *FleetClient) Metrics() FleetMetrics {
	return FleetMetrics{
		Retries:          f.retries.Load(),
		BreakerOpens:     f.breakerOpens.Load(),
		DrainingReroutes: f.drainingReroutes.Load(),
		Unavailable:      f.unavailable.Load(),
	}
}

func (f *FleetClient) maxAttempts() int {
	if f.MaxAttempts > 0 && f.MaxAttempts < len(f.clients) {
		return f.MaxAttempts
	}
	return len(f.clients)
}

func (f *FleetClient) failureThreshold() int {
	if f.FailureThreshold > 0 {
		return f.FailureThreshold
	}
	return 3
}

func (f *FleetClient) cooldown() time.Duration {
	if f.Cooldown > 0 {
		return f.Cooldown
	}
	return 2 * time.Second
}

// breakerState is a replica breaker's position in the
// closed -> open -> half-open -> closed cycle.
type breakerState uint8

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

// breaker is one replica's circuit breaker. All transitions happen
// under mu; the FleetClient's now() supplies time so tests can drive
// the cycle with a fake clock.
type breaker struct {
	mu      sync.Mutex
	state   breakerState //daelint:guardedby mu
	fails   int          //daelint:guardedby mu -- consecutive retryable failures while closed
	until   time.Time    //daelint:guardedby mu -- open expiry; after it the breaker half-opens
	probing bool         //daelint:guardedby mu -- half-open: the single probe slot is taken
}

// allow reports whether replica i may receive new work now. An expired
// open breaker flips to half-open and admits exactly one probe; the
// caller that gets true for a half-open breaker IS the probe and must
// report its outcome via onSuccess/onFailure.
func (f *FleetClient) allow(i int) bool {
	b := &f.breakers[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkOpen:
		if f.now().Before(b.until) {
			return false
		}
		b.state = bkHalfOpen
		b.probing = true
		return true
	case bkHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// onSuccess closes replica i's breaker: a successful call (or probe)
// returns the replica to full traffic.
func (f *FleetClient) onSuccess(i int) {
	b := &f.breakers[i]
	b.mu.Lock()
	b.state, b.fails, b.probing = bkClosed, 0, false
	b.mu.Unlock()
}

// onFailure records a retryable failure on replica i: a failed probe
// re-opens the breaker, FailureThreshold consecutive failures open a
// closed one, and a failed forced attempt on an already-open breaker
// extends its cooldown.
func (f *FleetClient) onFailure(i int) {
	b := &f.breakers[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkHalfOpen:
		b.state = bkOpen
		b.probing = false
		b.until = f.now().Add(f.cooldown())
		f.breakerOpens.Add(1)
	case bkClosed:
		b.fails++
		if b.fails >= f.failureThreshold() {
			b.state = bkOpen
			b.until = f.now().Add(f.cooldown())
			f.breakerOpens.Add(1)
		}
	case bkOpen:
		b.until = f.now().Add(f.cooldown())
	}
}

// Instrument registers the fleet client's failure-ladder counters,
// per-replica breaker-state gauges, and per-replica request-latency
// histograms on reg (repro -metrics-dump, sweepd when proxying). Call
// it before the client serves traffic; it is not safe to race with
// in-flight calls.
func (f *FleetClient) Instrument(reg *obsv.Registry) {
	InstrumentFleetMetrics(reg, f.Metrics)
	f.latency = make([]*obsv.Histogram, len(f.clients))
	for i, c := range f.clients {
		i := i
		reg.GaugeFunc("daesim_fleet_breaker_state", "replica circuit-breaker state (0 closed, 1 open, 2 half-open)",
			func() float64 { return float64(f.breakerIs(i)) }, obsv.L("replica", c.BaseURL))
		f.latency[i] = reg.Histogram("daesim_fleet_request_seconds", "fleet request latency by replica, queue and transport included", obsv.LatencyBuckets, obsv.L("replica", c.BaseURL))
	}
}

// observe times one replica request for the Instrument histograms; a
// pass-through before Instrument is called. It uses the injectable
// clock, so fake-clock tests observe zero durations instead of reading
// the wall.
func (f *FleetClient) observe(replica int, call func() error) error {
	if f.latency == nil || f.latency[replica] == nil {
		return call()
	}
	start := f.now()
	err := call()
	f.latency[replica].Observe(f.now().Sub(start).Seconds())
	return err
}

// breakerIs reports replica i's current breaker state (tests).
func (f *FleetClient) breakerIs(i int) breakerState {
	b := &f.breakers[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// retryable reports whether an error could be specific to one replica:
// transport failures and 5xx are, request/build refusals (4xx, 409
// skew) would repeat on every replica and must surface immediately.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Retryable()
	}
	if errors.Is(err, ErrNotRemotable) || errors.Is(err, ErrFleetUnhealthy) {
		return false
	}
	return true
}

// isDraining reports whether an error is a clean-drain refusal — the
// replica is shutting down in an orderly way and the work should
// reroute without a failure being charged.
func isDraining(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Draining
}

// unavailableError reports points whose every candidate replica failed
// or was exhausted. It wraps sweep.ErrUnavailable so a Degrade-enabled
// Runner recognizes "nowhere left to retry" structurally and falls
// back to local simulation; callers without that escape hatch see a
// normal loud error.
type unavailableError struct {
	n    int
	last error
}

// Error deliberately does NOT interpolate sweep.ErrUnavailable: Unwrap
// already carries it, so embedding its text too would make every
// %w-formatted chain up the stack say "unavailable" twice.
func (e *unavailableError) Error() string {
	if e.last == nil {
		return fmt.Sprintf("daemon fleet: %d point(s) unavailable: no replica could be tried", e.n)
	}
	return fmt.Sprintf("daemon fleet: %d point(s) unavailable after every candidate replica failed (last error: %v)", e.n, e.last)
}

func (e *unavailableError) Unwrap() error { return sweep.ErrUnavailable }

// routeKey is the ring key for a point: the cache identity of §9
// (engine version | suite fingerprint | canonical params) widened with
// the workload name and scale, which the fingerprint encodes but
// callers may pass as "". ok is false for points carrying a
// custom memory model — not remotable at all.
func routeKey(workload string, scale int, fingerprint string, pt sweep.Point) (string, bool) {
	pk, ok := pt.P.CacheKey(pt.Kind)
	if !ok {
		return "", false
	}
	return engine.Version + "|" + fingerprint + "|" + workload + "|" + strconv.Itoa(scale) + "|" + pk, true
}

// pickCandidate returns the next replica to try for key: the first
// owner in ring order that is untried and admitted by its breaker
// (half-open admits one probe), else the first untried owner ignoring
// breakers (stale opens must not fail a call unattempted), else -1
// when the attempt budget is spent.
func (f *FleetClient) pickCandidate(key string, tried uint64) int {
	owners := f.ring.Owners(key, f.maxAttempts())
	for _, o := range owners {
		if tried&(1<<uint(o)) == 0 && f.allow(o) {
			return o
		}
	}
	for _, o := range owners {
		if tried&(1<<uint(o)) == 0 {
			return o
		}
	}
	return -1
}

// backoffDelay is the sleep before retry round r (0-based): bounded
// exponential growth with deterministic jitter in [d/2, d) drawn from
// BackoffSeed — a pure function of (seed, round), so a replayed run
// backs off identically.
func (f *FleetClient) backoffDelay(round int) time.Duration {
	base, max := f.BackoffBase, f.BackoffMax
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if max <= 0 {
		max = 500 * time.Millisecond
	}
	d := base
	for i := 0; i < round && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// splitmix64 of (seed, round) -> fraction of d/2.
	x := f.BackoffSeed + 0x9e3779b97f4a7c15*(uint64(round)+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / (1 << 53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// scatter drives the route-execute-retry loop for n items: each round
// groups unsettled items by their next candidate replica, executes the
// groups concurrently (exec owns delivering group idx's results), and
// per group either settles it, fails the whole call fast on a
// non-retryable error, reroutes it off a draining replica penalty-free,
// or charges the replica's breaker and reroutes. Rounds that saw real
// failures are separated by backoffDelay. Every round consumes one
// attempt per unsettled item, so the loop terminates within
// maxAttempts rounds; items that exhaust their candidates are dropped
// from the loop and reported at the end via an unavailableError (exec
// never ran for them, so batch callers return partial results).
func (f *FleetClient) scatter(ctx context.Context, n int, keyOf func(int) string, exec func(ctx context.Context, replica int, idx []int) error) error {
	tried := make([]uint64, n)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var exhausted []int
	var lastErr error
	for round := 0; len(remaining) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		groups := make(map[int][]int)
		for _, i := range remaining {
			c := f.pickCandidate(keyOf(i), tried[i])
			if c < 0 {
				exhausted = append(exhausted, i)
				continue
			}
			groups[c] = append(groups[c], i)
		}
		if len(groups) == 0 {
			break
		}
		type outcome struct {
			replica int
			idx     []int
			err     error
		}
		outcomes := make(chan outcome, len(groups))
		for replica, idx := range groups {
			go func(replica int, idx []int) {
				outcomes <- outcome{replica, idx, f.observe(replica, func() error { return exec(ctx, replica, idx) })}
			}(replica, idx)
		}
		var next []int
		var fatal error
		failed := false
		for range groups {
			o := <-outcomes
			switch {
			case o.err == nil:
				f.onSuccess(o.replica)
			case isDraining(o.err):
				// Clean drain: reroute with no breaker charge and no
				// backoff — the replica is fine, just leaving.
				f.drainingReroutes.Add(int64(len(o.idx)))
				lastErr = o.err
				for _, i := range o.idx {
					tried[i] |= 1 << uint(o.replica)
				}
				next = append(next, o.idx...)
			case !retryable(o.err):
				if fatal == nil {
					fatal = o.err
				}
			default:
				f.onFailure(o.replica)
				f.retries.Add(int64(len(o.idx)))
				lastErr = o.err
				failed = true
				for _, i := range o.idx {
					tried[i] |= 1 << uint(o.replica)
				}
				next = append(next, o.idx...)
			}
		}
		if fatal != nil {
			return fatal
		}
		if err := ctx.Err(); err != nil {
			// Caller cancellation must surface as such, never as
			// unavailability (which Degrade would paper over).
			return err
		}
		sort.Ints(next)
		remaining = next
		if failed && len(remaining) > 0 {
			f.sleep(f.backoffDelay(round))
		}
	}
	if len(exhausted) > 0 {
		f.unavailable.Add(int64(len(exhausted)))
		return &unavailableError{n: len(exhausted), last: lastErr}
	}
	return nil
}

// Run executes one point as a one-point RunBatch. No production code
// in this module calls it; it stays because perfbench compiles against
// it.
func (f *FleetClient) Run(ctx context.Context, workload string, scale int, fingerprint string, pt sweep.Point) (*engine.Result, error) {
	res, err := f.RunBatch(ctx, workload, scale, fingerprint, []sweep.Point{pt})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunBatch executes a batch of points against one suite: points group
// by owning replica and each group travels as one /v1/batch/run round
// trip, concurrently across replicas. Results[i] answers pts[i]. The
// signature matches experiments.Context.RemoteBatch — this is how a
// probe wave or figure sweep reaches the whole fleet in ≤N requests.
//
// Partial-batch semantics: when some points exhaust every candidate
// the rest of the batch still settles; the returned slice carries the
// survivors' results (nil for the unserved points) alongside an error
// wrapping sweep.ErrUnavailable, which a Degrade-enabled Runner
// converts into local simulation of exactly the nil slots.
func (f *FleetClient) RunBatch(ctx context.Context, workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
	keys := make([]string, len(pts))
	wire := make([]Point, len(pts))
	for i, pt := range pts {
		k, ok := routeKey(workload, scale, fingerprint, pt)
		if !ok {
			return nil, fmt.Errorf("daemon fleet: point %d carries a custom memory model and cannot run remotely: %w", i, ErrNotRemotable)
		}
		keys[i] = k
		wp, err := ToPoint(pt)
		if err != nil {
			return nil, fmt.Errorf("daemon fleet: point %d: %w", i, err)
		}
		wire[i] = wp
	}
	out, err := scatterBatch(ctx, f, keys, func(c *Client, i int) RunRequest {
		return RunRequest{Target: c.target(workload, scale, fingerprint), Point: wire[i]}
	}, (*Client).BatchRun)
	if err != nil {
		if errors.Is(err, sweep.ErrUnavailable) {
			return out, err // partial: settled slots are valid
		}
		return nil, err
	}
	return out, nil
}

// scatterBatch routes len(keys) batch items over the fleet: scatter
// groups them by owning replica, and each group travels as one send on
// that replica's client, item i built for it by item(c, i). Replies
// land at their items' indices, so after an unavailability error the
// slots the surviving owners served are valid.
func scatterBatch[Item, Result any](ctx context.Context, f *FleetClient, keys []string, item func(c *Client, i int) Item, send func(*Client, context.Context, []Item) ([]Result, error)) ([]Result, error) {
	out := make([]Result, len(keys))
	err := f.scatter(ctx, len(keys), func(i int) string { return keys[i] }, func(ctx context.Context, replica int, idx []int) error {
		c := f.clients[replica]
		items := make([]Item, len(idx))
		for j, i := range idx {
			items[j] = item(c, i)
		}
		res, err := send(c, ctx, items)
		if err != nil {
			return err
		}
		for j, i := range idx {
			out[i] = res[j] // idx sets are disjoint across groups
		}
		return nil
	})
	return out, err
}

// searchKey is the ring key for a server-side ratio search: the
// canonical encoding of its params under the client's engine version,
// so identical searches from any client of the fleet land on one
// replica and share its memoized probes.
func searchKey(workload string, scale int, p Params) string {
	b, _ := json.Marshal(p)
	return engine.Version + "|" + workload + "|" + strconv.Itoa(scale) + "|ratio|" + string(b)
}

// RatioBatch executes one curve of equivalent-window ratio searches
// across the fleet — the experiments.Context.RemoteSearch hook. Items
// group by owning replica, one /v1/batch/search round trip per group,
// with the scatter loop's failover; each item's Target is pinned to
// this build's engine version, the suite fingerprint and the replica
// client's policy like RunBatch's points. Answers are identical to the
// local search by construction (the replica runs the same
// metrics.Ratios), and a reply no search could have produced is
// refused as ErrMalformedReply and retried on the next owner. Unlike
// RunBatch there is no partial return: a search with unavailable
// owners fails with sweep.ErrUnavailable and the caller
// (experiments.RatioFigure with Degrade) falls back to the local
// search path wholesale.
func (f *FleetClient) RatioBatch(ctx context.Context, workload string, scale int, fingerprint string, params []machine.Params) ([]experiments.RatioAnswer, error) {
	wire := make([]Params, len(params))
	keys := make([]string, len(params))
	for i, p := range params {
		wp, err := ToParams(p)
		if err != nil {
			return nil, fmt.Errorf("daemon fleet: ratio point %d: %w", i, err)
		}
		wire[i], keys[i] = wp, searchKey(workload, scale, wp)
	}
	res, err := scatterBatch(ctx, f, keys, func(c *Client, i int) SearchRequest {
		return SearchRequest{Target: c.target(workload, scale, fingerprint), Params: wire[i]}
	}, (*Client).BatchSearch)
	if err != nil {
		return nil, err
	}
	answers := make([]experiments.RatioAnswer, len(res))
	for i, r := range res {
		answers[i] = experiments.RatioAnswer{Ratio: r.Ratio, OK: r.OK}
	}
	return answers, nil
}

// Health checks every replica: alive and not draining, engine version
// matching this build, unique replica IDs, and — when a daemon
// advertises its -fleet membership — a member list agreeing with this
// client's ring, since clients and replicas disagreeing on membership
// would route the same key to different owners and silently split the
// fleet's cache.
func (f *FleetClient) Health(ctx context.Context) error {
	ids := make(map[string]int)
	for i, c := range f.clients {
		var resp HealthResponse
		if err := c.get(ctx, "/healthz", &resp); err != nil {
			return fmt.Errorf("daemon fleet: replica %d (%s): %w", i, c.BaseURL, err)
		}
		if resp.Status != "ok" {
			return fmt.Errorf("daemon fleet: replica %d (%s): health status %q: %w", i, c.BaseURL, resp.Status, ErrFleetUnhealthy)
		}
		if resp.EngineVersion != "" && resp.EngineVersion != engine.Version {
			return fmt.Errorf("daemon fleet: replica %d (%s): engine version skew: daemon runs %s, this build is %s (restart it from this build): %w", i, c.BaseURL, resp.EngineVersion, engine.Version, ErrFleetUnhealthy)
		}
		if len(resp.Fleet) > 0 && !sameMembers(resp.Fleet, f.ring.Members()) {
			return fmt.Errorf("daemon fleet: membership skew: replica %s advertises fleet %v, this client routes over %v (every replica's -fleet must list the same addresses as the client's replica list): %w", c.BaseURL, resp.Fleet, f.ring.Members(), ErrFleetUnhealthy)
		}
		if resp.ReplicaID != "" {
			if prev, dup := ids[resp.ReplicaID]; dup {
				return fmt.Errorf("daemon fleet: replicas %d and %d both advertise replica id %q (-replica must be unique per daemon): %w", prev, i, resp.ReplicaID, ErrFleetUnhealthy)
			}
			ids[resp.ReplicaID] = i
		}
	}
	return nil
}

// sameMembers compares member lists ignoring order and trailing
// slashes.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	norm := func(in []string) []string {
		out := make([]string, len(in))
		for i, s := range in {
			for len(s) > 1 && s[len(s)-1] == '/' {
				s = s[:len(s)-1]
			}
			out[i] = s
		}
		sort.Strings(out)
		return out
	}
	na, nb := norm(a), norm(b)
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

// WaitHealthy polls until every replica passes Health or the deadline
// (or ctx) expires — the startup handshake for scripts that just
// launched a fleet.
func (f *FleetClient) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	return waitHealthy(ctx, timeout, "daemon fleet", f.Health)
}

// CacheStats fetches every replica's cache counters, index-aligned
// with the ring members.
func (f *FleetClient) CacheStats(ctx context.Context) ([]StatsResponse, error) {
	out := make([]StatsResponse, len(f.clients))
	for i, c := range f.clients {
		s, err := c.CacheStats(ctx)
		if err != nil {
			return nil, fmt.Errorf("daemon fleet: replica %d (%s): %w", i, c.BaseURL, err)
		}
		out[i] = s
	}
	return out, nil
}
