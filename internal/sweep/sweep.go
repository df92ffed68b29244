// Package sweep runs families of simulations in parallel with
// memoization. Experiment drivers describe points (machine, window, MD);
// the runner executes them across CPUs and caches results so overlapping
// sweeps (e.g. a speedup figure and a crossover search over the same
// windows) do not re-simulate.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"daesim/internal/engine"
	"daesim/internal/machine"
)

// ErrUnavailable marks a remote error meaning "no replica could serve
// this work at all" — every candidate was tried (or the whole fleet is
// down), as opposed to a refusal that would repeat anywhere (bad
// request, version skew). Remote hooks wrap it (errors.Is) to tell a
// Degrade-enabled Runner that falling back to local simulation is both
// safe and the only way forward; any other remote error still fails
// the point loudly.
var ErrUnavailable = errors.New("sweep: remote unavailable")

// Point identifies one simulation: a machine kind plus parameters.
type Point struct {
	Kind machine.Kind
	P    machine.Params
}

// key is the in-memory memoization key. Custom memory models are not
// memoizable, so points carrying Mem bypass the cache.
type key struct {
	kind machine.Kind
	p    machine.Params
}

// entry is one in-flight or settled L1 slot. The first caller to reach a
// point owns its entry and simulates (or loads from the Store); everyone
// else blocks on ready — single-flight, so concurrent shards sweeping
// overlapping points never duplicate a simulation.
type entry struct {
	ready chan struct{} // closed once res/err are settled
	res   *engine.Result
	err   error
}

// CacheStats counts where a Runner's results came from.
type CacheStats struct {
	// L1Hits are points served from the in-memory map, including callers
	// that waited on another goroutine's in-flight simulation.
	L1Hits int64
	// StoreHits are points loaded from the persistent Store.
	StoreHits int64
	// RemoteHits are points served by a remote daemon (Runner.Remote).
	RemoteHits int64
	// RemoteSearches are whole equivalent-window searches answered
	// server-side by a remote daemon (experiments.Context.RemoteSearch)
	// — each stands for a full probe sequence that never touched the
	// local layers. HitRate counts each as one served request, so a run
	// answered entirely by remote searches reports 1, not 0.
	RemoteSearches int64
	// Sims are simulations actually executed for cacheable points.
	Sims int64
	// Degraded are cacheable points simulated locally as a last resort
	// because every remote owner was unavailable (Runner.Degrade) —
	// results are byte-identical to the remote answer by determinism,
	// so a degraded run completes correctly, just without the shared
	// cache. Counted separately from Sims so "warm remote runs simulate
	// nothing" assertions stay meaningful.
	Degraded int64
	// Uncacheable are runs that bypassed both layers (custom Params.Mem).
	Uncacheable int64
}

// Add accumulates other into s.
func (s *CacheStats) Add(other CacheStats) {
	s.L1Hits += other.L1Hits
	s.StoreHits += other.StoreHits
	s.RemoteHits += other.RemoteHits
	s.RemoteSearches += other.RemoteSearches
	s.Sims += other.Sims
	s.Degraded += other.Degraded
	s.Uncacheable += other.Uncacheable
}

// HitRate returns the fraction of cacheable requests served without
// simulating locally: points from the in-memory map, the persistent
// store or a remote daemon, plus whole searches answered remotely.
func (s CacheStats) HitRate() float64 {
	served := s.L1Hits + s.StoreHits + s.RemoteHits + s.RemoteSearches
	total := served + s.Sims + s.Degraded
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Runner executes points against one suite.
type Runner struct {
	Suite *machine.Suite
	// Parallelism bounds the worker pool of RunAll and RunBatch
	// (default: GOMAXPROCS). Set it to 1 to run them serially, e.g. for
	// deterministic profiling. It does not bound equivalent-window
	// searches (metrics.Search): a search runs its probes in order on
	// its own scratch, and callers that run several searches at once
	// bound how many (experiments.Context.Parallelism).
	Parallelism int
	// Store, when non-nil, is the persistent L2 consulted between the
	// in-memory map and the simulator. Set it before the first Run.
	Store *Store
	// Remote, when non-nil, executes cacheable points that miss the local
	// layers — typically a daemon client (internal/daemon.Client.Run bound
	// to a workload), so a sweep runs against a long-lived sweepd's shared
	// cache instead of simulating locally. Remote results are installed
	// into the local Store (when attached) like any fill. A Remote error
	// fails the point: a misconfigured or unreachable daemon should
	// surface, not silently degrade to local simulation (the one
	// explicit exception is Degrade + ErrUnavailable). Uncacheable
	// points (custom Params.Mem) never route remotely — a MemModel is
	// arbitrary local code. Set it before the first Run.
	Remote func(Point) (*engine.Result, error)
	// RemoteBatch, when non-nil, executes a whole set of cacheable
	// misses in one call — typically a daemon fleet client
	// (internal/daemon.FleetClient.RunBatch bound to a workload), so a
	// probe wave or figure sweep becomes one HTTP round trip per
	// replica instead of one request per point. RunBatch and RunAll
	// consult it for the points that miss the local layers; single-point
	// paths (RunWith) still use Remote, so set both when attaching a
	// remote. Same contract as Remote otherwise: errors surface loudly,
	// results install into the local Store, uncacheable points never
	// route. Set it before the first Run.
	RemoteBatch func([]Point) ([]*engine.Result, error)
	// Degrade is the last rung of the failure ladder: when set, a
	// Remote/RemoteBatch failure that wraps ErrUnavailable (every owner
	// of the point is down) falls back to local simulation — counted as
	// Degraded, installed into the Store like any fill, byte-identical
	// by determinism — instead of failing the sweep. Any other remote
	// error still surfaces loudly, so misconfiguration (bad URL, skew,
	// bad request) never silently degrades.
	Degrade bool

	mu     sync.Mutex
	cache  map[key]*entry //daelint:guardedby mu
	prefix string         //daelint:guardedby mu -- engine version + suite fingerprint, built lazily

	l1Hits, storeHits, remoteHits, sims, degraded, uncacheable atomic.Int64
}

// NewRunner returns a Runner for the suite.
func NewRunner(s *machine.Suite) *Runner {
	return &Runner{Suite: s, cache: make(map[key]*entry)}
}

// Run executes one point, consulting the cache.
func (r *Runner) Run(pt Point) (*engine.Result, error) {
	return r.RunWith(nil, pt)
}

// storeKey returns the persistent key for a point: the engine version
// tag and the suite's content fingerprint (workload identity, scale,
// partition, lowering) joined with the canonical parameter encoding.
// The fingerprint is hashed once per Runner, on first use.
func (r *Runner) storeKey(pt Point) (string, bool) {
	pk, ok := pt.P.CacheKey(pt.Kind)
	if !ok {
		return "", false
	}
	r.mu.Lock()
	if r.prefix == "" {
		r.prefix = engine.Version + "|" + r.Suite.Fingerprint() + "|"
	}
	p := r.prefix
	r.mu.Unlock()
	return p + pk, true
}

// RunWith executes one point on sim's reusable scratch (nil draws from
// the engine's shared pool), consulting the in-memory cache and then the
// persistent Store. Returned Results are private copies: the canonical
// cached Result never escapes, so callers may mutate what they get back.
//
//daelint:ctx-root cancellation rides the Remote hook's captured context; local simulation is not cancellable mid-run
func (r *Runner) RunWith(sim *engine.Sim, pt Point) (*engine.Result, error) {
	if pt.P.Mem != nil {
		r.uncacheable.Add(1)
		return r.Suite.RunWith(sim, pt.Kind, pt.P)
	}
	// The key canonicalizes the retirement policy (RetireAuto resolves
	// to a concrete policy, exactly as the engine and the store key see
	// it), so an explicit-policy point and its equivalent auto-policy
	// point share one entry instead of simulating twice.
	kp := pt.P
	kp.Retire = machine.ResolveRetire(kp.Retire)
	k := key{kind: pt.Kind, p: kp}
	r.mu.Lock()
	if e, ok := r.cache[k]; ok {
		r.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		r.l1Hits.Add(1)
		return e.res.Clone(), nil
	}
	e := &entry{ready: make(chan struct{})}
	r.cache[k] = e
	r.mu.Unlock()

	e.res, e.err = r.fill(sim, pt)
	if e.err != nil {
		// Drop the errored entry so later callers retry rather than
		// replaying a possibly transient failure forever.
		r.mu.Lock()
		delete(r.cache, k)
		r.mu.Unlock()
		close(e.ready)
		return nil, e.err
	}
	close(e.ready)
	return e.res.Clone(), nil
}

// fill produces the canonical result for a cacheable point: from the
// persistent store when possible, else by simulating (and installing the
// result back into the store).
func (r *Runner) fill(sim *engine.Sim, pt Point) (*engine.Result, error) {
	if r.Store != nil {
		if sk, ok := r.storeKey(pt); ok {
			if res, hit := r.Store.Get(sk); hit {
				r.storeHits.Add(1)
				return res, nil
			}
		}
	}
	return r.fillMiss(sim, pt)
}

// fillMiss produces the canonical result for a point already known to
// miss the store — the point-wise remote hook or the local simulator —
// and installs it. Callers that just proved the store miss (RunBatch's
// parallel peel) come here directly rather than paying a second Get.
func (r *Runner) fillMiss(sim *engine.Sim, pt Point) (*engine.Result, error) {
	var res *engine.Result
	var err error
	if r.Remote != nil {
		res, err = r.Remote(pt)
		switch {
		case err == nil:
			r.remoteHits.Add(1)
		case r.Degrade && errors.Is(err, ErrUnavailable):
			// Every owner is down: simulate locally so the sweep
			// completes (byte-identically — the remote would have run
			// the same deterministic simulation).
			res, err = r.Suite.RunWith(sim, pt.Kind, pt.P)
			if err != nil {
				return nil, err
			}
			r.degraded.Add(1)
		default:
			return nil, err
		}
	} else {
		res, err = r.Suite.RunWith(sim, pt.Kind, pt.P)
		if err != nil {
			return nil, err
		}
		r.sims.Add(1)
	}
	if r.Store != nil {
		if sk, ok := r.storeKey(pt); ok {
			r.Store.Put(sk, res)
		}
	}
	return res, nil
}

// Stats returns a snapshot of the runner's cache traffic.
func (r *Runner) Stats() CacheStats {
	return CacheStats{
		L1Hits:      r.l1Hits.Load(),
		StoreHits:   r.storeHits.Load(),
		RemoteHits:  r.remoteHits.Load(),
		Sims:        r.sims.Load(),
		Degraded:    r.degraded.Load(),
		Uncacheable: r.uncacheable.Load(),
	}
}

// forEach fans fn(sim, i) for i in [0, n) across at most
// min(Parallelism, n) worker goroutines, each owning one scratch
// context; with a single worker it runs inline. fn communicates
// through its captures (result and error slices indexed by i). This is
// the one worker-pool shape RunAll, RunBatch's store peel and
// fillBatch all share.
//
//daelint:ctx-root workers drain a closed channel of at most n indices; there is no caller to cancel for
func (r *Runner) forEach(n int, fn func(sim *engine.Sim, i int)) {
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0) //daelint:nondeterministic-ok worker-pool width only; fn writes results indexed by i
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		sim := engine.NewSim()
		for i := 0; i < n; i++ {
			fn(sim, i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch context per worker: runs on this goroutine
			// reuse state without contending on the shared pool.
			sim := engine.NewSim()
			for i := range work {
				fn(sim, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// RunBatch executes a set of points as one unit, preserving order: L1
// and Store hits are peeled off locally, and the remaining misses go to
// RemoteBatch in a single call when it is set (else they are simulated
// locally in parallel). This is the request-collapsing path of remote
// sweeps — a probe wave whose points are all warm issues no remote
// traffic at all — and it keeps the single-flight contract: misses are
// claimed before filling, so concurrent overlapping batches never
// duplicate a simulation. The first error aborts the batch; failed
// claims are dropped so later callers retry.
//
//daelint:ctx-root cancellation rides the RemoteBatch hook's captured context; local simulation is not cancellable mid-run
func (r *Runner) RunBatch(pts []Point) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(pts))
	var owned, waiters []claim
	var uncached []int
	r.mu.Lock()
	for i, pt := range pts {
		if pt.P.Mem != nil {
			uncached = append(uncached, i)
			continue
		}
		kp := pt.P
		kp.Retire = machine.ResolveRetire(kp.Retire)
		k := key{kind: pt.Kind, p: kp}
		if e, ok := r.cache[k]; ok {
			waiters = append(waiters, claim{i, e, k})
			continue
		}
		e := &entry{ready: make(chan struct{})}
		r.cache[k] = e
		owned = append(owned, claim{i, e, k})
	}
	r.mu.Unlock()

	// Fill owned claims: store first, then the misses — remotely in one
	// batch when RemoteBatch is set, else locally across the pool. The
	// store peel fans its blob reads (disk + decode + checksum) across
	// the worker pool: a warm-store batch is exactly the case batching
	// exists to make fast, so it must not serialize the I/O the
	// point-wise path already overlapped.
	var misses []claim
	if r.Store == nil {
		misses = owned
	} else {
		hits := make([]*engine.Result, len(owned))
		r.forEach(len(owned), func(_ *engine.Sim, j int) {
			if sk, ok := r.storeKey(pts[owned[j].idx]); ok {
				if res, hit := r.Store.Get(sk); hit {
					hits[j] = res
				}
			}
		})
		for j, c := range owned {
			if res := hits[j]; res != nil {
				r.storeHits.Add(1)
				c.e.res = res
				close(c.e.ready)
				out[c.idx] = res.Clone()
				continue
			}
			misses = append(misses, c)
		}
	}
	if len(misses) > 0 {
		if err := r.fillBatch(pts, misses, func(c claim, res *engine.Result) {
			c.e.res = res
			close(c.e.ready)
			out[c.idx] = res.Clone()
		}); err != nil {
			// Drop the unfilled claims so later callers retry, and
			// settle their waiters with the error.
			r.mu.Lock()
			for _, c := range misses {
				if c.e.res == nil {
					delete(r.cache, c.k)
				}
			}
			r.mu.Unlock()
			for _, c := range misses {
				if c.e.res == nil {
					c.e.err = err
					close(c.e.ready)
				}
			}
			return nil, err
		}
	}

	// Uncacheable points bypass both layers, like RunWith.
	if len(uncached) > 0 {
		sim := engine.NewSim()
		for _, i := range uncached {
			r.uncacheable.Add(1)
			res, err := r.Suite.RunWith(sim, pts[i].Kind, pts[i].P)
			if err != nil {
				return nil, fmt.Errorf("sweep: point %d: %w", i, err)
			}
			out[i] = res
		}
	}

	// Entries owned elsewhere: every claim of ours is settled by now, so
	// waiting last cannot deadlock on our own batch's duplicates.
	for _, c := range waiters {
		<-c.e.ready
		if c.e.err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", c.idx, c.e.err)
		}
		r.l1Hits.Add(1)
		out[c.idx] = c.e.res.Clone()
	}
	return out, nil
}

// claim is one cacheable point's L1 slot within a RunBatch: either
// owned by that call (it fills and settles the entry) or by another
// in-flight caller (the batch waits on it).
type claim struct {
	idx int
	e   *entry
	k   key
}

// fillBatch produces canonical results for claimed misses and hands
// each to settle. With RemoteBatch: one remote call for the whole set.
// Without: local simulation across the worker pool. Results install
// into the Store either way.
func (r *Runner) fillBatch(pts []Point, misses []claim, settle func(c claim, res *engine.Result)) error {
	if r.RemoteBatch != nil {
		mpts := make([]Point, len(misses))
		for j, c := range misses {
			mpts[j] = pts[c.idx]
		}
		results, err := r.RemoteBatch(mpts)
		var unserved []bool
		if err != nil {
			if !r.Degrade || !errors.Is(err, ErrUnavailable) {
				return err
			}
			// Partial-batch degradation: the hook ran the wave against
			// the surviving owners and returned what it could (slots it
			// could not serve are nil — possibly all of them). Accept
			// the served slots as remote hits and simulate the rest
			// locally, so one dead replica (or a whole dead fleet)
			// degrades the wave instead of failing it.
			if len(results) != len(mpts) {
				results = make([]*engine.Result, len(mpts))
			}
			unserved = make([]bool, len(mpts))
			errs := make([]error, len(mpts))
			r.forEach(len(mpts), func(sim *engine.Sim, j int) {
				if results[j] != nil {
					return
				}
				unserved[j] = true
				results[j], errs[j] = r.Suite.RunWith(sim, mpts[j].Kind, mpts[j].P)
			})
			for j, serr := range errs {
				if serr != nil {
					return fmt.Errorf("sweep: point %d: %w", misses[j].idx, serr)
				}
			}
		}
		if len(results) != len(mpts) {
			return fmt.Errorf("sweep: remote batch returned %d results for %d points", len(results), len(mpts))
		}
		for j, res := range results {
			if res == nil {
				// Never settle a nil into the L1 or persist it: fail the
				// batch loudly like any other remote error. Indices in
				// errors are caller-relative (the batch's point list),
				// matching the local path.
				return fmt.Errorf("sweep: remote batch returned a nil result for point %d", misses[j].idx)
			}
		}
		for j, c := range misses {
			if unserved != nil && unserved[j] {
				r.degraded.Add(1)
			} else {
				r.remoteHits.Add(1)
			}
			if r.Store != nil {
				if sk, ok := r.storeKey(pts[c.idx]); ok {
					r.Store.Put(sk, results[j])
				}
			}
			settle(c, results[j])
		}
		return nil
	}
	results := make([]*engine.Result, len(misses))
	errs := make([]error, len(misses))
	r.forEach(len(misses), func(sim *engine.Sim, j int) {
		results[j], errs[j] = r.fillMiss(sim, pts[misses[j].idx])
	})
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", misses[j].idx, err)
		}
	}
	for j, c := range misses {
		settle(c, results[j])
	}
	return nil
}

// RunAll executes all points, in parallel, preserving order. The first
// error aborts the sweep. With RemoteBatch attached the whole sweep
// collapses into batched remote calls (see RunBatch).
func (r *Runner) RunAll(pts []Point) ([]*engine.Result, error) {
	if r.RemoteBatch != nil {
		return r.RunBatch(pts)
	}
	out := make([]*engine.Result, len(pts))
	errs := make([]error, len(pts))
	r.forEach(len(pts), func(sim *engine.Sim, i int) {
		out[i], errs[i] = r.RunWith(sim, pts[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	return out, nil
}

// Series is a named sequence of (x, y) samples, one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// WindowSweep runs the machine at each window size and maps results
// through f (e.g. a speedup or LHE computation).
func (r *Runner) WindowSweep(kind machine.Kind, base machine.Params, windows []int, f func(w int, res *engine.Result) float64) (Series, error) {
	pts := make([]Point, len(windows))
	for i, w := range windows {
		p := base
		p.Window = w
		pts[i] = Point{Kind: kind, P: p}
	}
	results, err := r.RunAll(pts)
	if err != nil {
		return Series{}, err
	}
	s := Series{X: make([]float64, len(windows)), Y: make([]float64, len(windows))}
	for i, res := range results {
		s.X[i] = float64(windows[i])
		s.Y[i] = f(windows[i], res)
	}
	return s, nil
}

// Windows returns the window sizes lo, lo+step, lo+2*step, ... up to and
// including hi when it lands on the grid.
func Windows(lo, hi, step int) []int {
	var out []int
	for w := lo; w <= hi; w += step {
		out = append(out, w)
	}
	return out
}
