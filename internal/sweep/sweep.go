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
	// RemoteHits are points served by a remote daemon (Runner.RemoteBatch).
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
	// Parallelism is the ForEach width of RunBatch (default:
	// GOMAXPROCS). Set it to 1 to run batches serially, e.g. for
	// deterministic profiling. It does not bound equivalent-window
	// searches (metrics.Search): a search runs its probes in order on
	// its own scratch, and callers that run several searches at once
	// bound how many (metrics.Ratios' par).
	Parallelism int
	// Store, when non-nil, is the persistent L2 consulted between the
	// in-memory map and the simulator. Set it before the first Run.
	Store *Store
	// RemoteBatch, when non-nil, executes the cacheable points that miss
	// the local layers — typically a daemon fleet client
	// (internal/daemon.FleetClient.RunBatch bound to a workload), so a
	// sweep runs against long-lived sweepd replicas' shared caches
	// instead of simulating locally. It is the only remote hook, and
	// every call reaches it the same way: the misses of one RunBatch
	// travel in one call, so a probe wave or figure sweep costs one
	// round trip per replica, and a RunWith — a one-point batch — sends
	// its one point. Remote results are installed into the local Store
	// (when attached) like any fill. A remote error fails the call: a
	// misconfigured or unreachable daemon should surface, not silently
	// degrade to local simulation (the one explicit exception is
	// Degrade + ErrUnavailable). Uncacheable points (custom Params.Mem)
	// never route remotely — a MemModel is arbitrary local code — so
	// metrics.Search runs their probe waves in order locally even with
	// the hook set. Set it before the first Run.
	RemoteBatch func([]Point) ([]*engine.Result, error)
	// Degrade is the last rung of the failure ladder: when set, a
	// RemoteBatch failure that wraps ErrUnavailable (every owner of a
	// point is down) falls back to local simulation of the points the
	// hook could not serve — counted as Degraded, installed into the
	// Store like any fill, byte-identical by determinism — instead of
	// failing the call. Any other remote error still surfaces loudly,
	// so misconfiguration (bad URL, skew, bad request) never silently
	// degrades.
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
// the engine's shared pool): it is a one-point RunBatch whose miss,
// store read or uncacheable run happens inline on sim, so a caller
// stepping through points one at a time keeps its warm scratch.
// Returned Results are private copies: the canonical cached Result
// never escapes, so callers may mutate what they get back.
func (r *Runner) RunWith(sim *engine.Sim, pt Point) (*engine.Result, error) {
	// Array-backed slices: run lets neither escape, so a one-point call
	// allocates nothing beyond its entry and its result copy.
	pts := [1]Point{pt}
	var out [1]*engine.Result
	if err := r.run(sim, pts[:], out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunBatch executes a set of points as one unit, preserving order: L1
// and Store hits are peeled off locally, and the remaining misses go
// to RemoteBatch in a single call when it is set, else simulate locally
// in parallel. This is the request-collapsing path of remote sweeps — a
// probe wave whose points are all warm issues no remote traffic at all.
// The first error aborts the batch.
func (r *Runner) RunBatch(pts []Point) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(pts))
	if err := r.run(nil, pts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// run is the one way a point enters the L1, and it keeps the
// single-flight contract: every cacheable point is claimed under the
// lock before anything fills it, so concurrent overlapping calls never
// duplicate a simulation or a remote point; a point another caller
// claimed is waited on. The retirement policy is canonicalized in the
// key (RetireAuto resolves to a concrete policy, exactly as the engine
// and the store key see it), so an explicit-policy point and its
// equivalent auto-policy point share one entry. Owned claims fill from
// the Store, then through fillMisses; failed claims are dropped, so
// later callers retry rather than replaying a possibly transient
// failure forever. Uncacheable points (custom Params.Mem) bypass both
// layers. Single-point work — one store read, one local miss, the
// uncacheable runs — runs inline on sim; out[i] answers pts[i].
//
//daelint:ctx-root cancellation rides the RemoteBatch hook's captured context; local simulation is not cancellable mid-run
func (r *Runner) run(sim *engine.Sim, pts []Point, out []*engine.Result) error {
	var ownedBuf, waitBuf [1]claim
	var uncachedBuf [1]int
	owned, waiters, uncached := ownedBuf[:0], waitBuf[:0], uncachedBuf[:0]
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

	misses := owned
	if r.Store != nil && len(owned) > 0 {
		misses = r.peelStore(pts, owned, out)
	}
	if len(misses) > 0 {
		if err := r.fillMisses(sim, pts, misses, out); err != nil {
			// Drop the claims so later callers retry, and settle their
			// waiters with the error.
			r.mu.Lock()
			for _, c := range misses {
				delete(r.cache, c.k)
			}
			r.mu.Unlock()
			for _, c := range misses {
				c.e.err = err
				close(c.e.ready)
			}
			return err
		}
		for _, c := range misses {
			c.settle(out)
		}
	}

	for _, i := range uncached {
		r.uncacheable.Add(1)
		res, err := r.Suite.RunWith(sim, pts[i].Kind, pts[i].P)
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
		out[i] = res
	}

	// Entries owned elsewhere: every claim of ours is settled by now, so
	// waiting last cannot deadlock on our own call's duplicates.
	for _, c := range waiters {
		<-c.e.ready
		if c.e.err != nil {
			return fmt.Errorf("sweep: point %d: %w", c.idx, c.e.err)
		}
		r.l1Hits.Add(1)
		out[c.idx] = c.e.res.Clone()
	}
	return nil
}

// peelStore reads the owned claims from the Store, settles the hits,
// and returns the claims that missed (reusing owned's backing array).
// Several reads fan across ForEach: a warm-store batch is
// exactly the case batching exists to make fast, so it must not
// serialize that I/O (disk, decode, checksum).
func (r *Runner) peelStore(pts []Point, owned []claim, out []*engine.Result) []claim {
	if len(owned) == 1 {
		out[owned[0].idx] = r.storeGet(pts[owned[0].idx])
	} else {
		// The workers read copies, so pts and out never escape to them.
		peel := make([]Point, len(owned))
		for j, c := range owned {
			peel[j] = pts[c.idx]
		}
		hits := make([]*engine.Result, len(owned))
		_ = ForEach(r.Parallelism, len(owned), func(_ *engine.Sim, j int) error {
			hits[j] = r.storeGet(peel[j])
			return nil
		})
		for j, c := range owned {
			out[c.idx] = hits[j]
		}
	}
	misses := owned[:0]
	for _, c := range owned {
		if out[c.idx] == nil {
			misses = append(misses, c)
			continue
		}
		r.storeHits.Add(1)
		c.settle(out)
	}
	return misses
}

// storeGet returns the Store's result for a point, or nil on a miss.
func (r *Runner) storeGet(pt Point) *engine.Result {
	if sk, ok := r.storeKey(pt); ok {
		if res, hit := r.Store.Get(sk); hit {
			return res
		}
	}
	return nil
}

// fillMisses writes into out[c.idx] the canonical result of each claim
// in misses, which are known to miss both local layers, and installs
// each into the Store. It is the one place the remote hook is called:
// with RemoteBatch set, every miss travels in one call, and under
// Degrade an ErrUnavailable reply's unserved (nil) slots — possibly all
// of them — are simulated here instead. Without the hook every miss
// simulates here: one on sim, more across ForEach. Error
// indices are pts-relative, matching the caller's point list.
func (r *Runner) fillMisses(sim *engine.Sim, pts []Point, misses []claim, out []*engine.Result) error {
	remote := r.RemoteBatch != nil
	if remote {
		mpts := make([]Point, len(misses))
		for j, c := range misses {
			mpts[j] = pts[c.idx]
		}
		got, err := r.RemoteBatch(mpts)
		switch {
		case err != nil && (!r.Degrade || !errors.Is(err, ErrUnavailable)):
			return err
		case err != nil:
			// Partial-batch degradation: accept what the surviving
			// owners served and simulate the rest below, so one dead
			// replica (or a whole dead fleet) degrades the call
			// instead of failing it.
			if len(got) != len(mpts) {
				got = nil
			}
		case len(got) != len(mpts):
			return fmt.Errorf("sweep: remote batch returned %d results for %d points", len(got), len(mpts))
		default:
			for j, res := range got {
				if res == nil {
					// Never settle a nil into the L1 or persist it.
					return fmt.Errorf("sweep: remote batch returned a nil result for point %d", misses[j].idx)
				}
			}
		}
		for j, res := range got {
			if res != nil {
				r.remoteHits.Add(1)
				r.install(mpts[j], res)
				out[misses[j].idx] = res
			}
		}
	}
	var localBuf [1]int
	local := localBuf[:0]
	for _, c := range misses {
		if out[c.idx] == nil {
			local = append(local, c.idx)
		}
	}
	switch len(local) {
	case 0:
		return nil
	case 1:
		res, err := r.simulate(sim, pts[local[0]], remote)
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", local[0], err)
		}
		out[local[0]] = res
		return nil
	}
	// The workers fill fresh slices, so pts and out never escape to them.
	lpts := make([]Point, len(local))
	for t, i := range local {
		lpts[t] = pts[i]
	}
	results := make([]*engine.Result, len(local))
	errs := make([]error, len(local))
	_ = ForEach(r.Parallelism, len(local), func(sim *engine.Sim, t int) error {
		results[t], errs[t] = r.simulate(sim, lpts[t], remote)
		return errs[t]
	})
	for t, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", local[t], err)
		}
	}
	for t, i := range local {
		out[i] = results[t]
	}
	return nil
}

// simulate runs one cacheable point locally, counts it — as Degraded
// when a remote hook is attached, since it only simulates what the hook
// could not serve — and installs it into the Store.
func (r *Runner) simulate(sim *engine.Sim, pt Point, degraded bool) (*engine.Result, error) {
	res, err := r.Suite.RunWith(sim, pt.Kind, pt.P)
	if err != nil {
		return nil, err
	}
	if degraded {
		r.degraded.Add(1)
	} else {
		r.sims.Add(1)
	}
	r.install(pt, res)
	return res, nil
}

// install writes a freshly filled result to the Store, when attached.
func (r *Runner) install(pt Point, res *engine.Result) {
	if r.Store != nil {
		if sk, ok := r.storeKey(pt); ok {
			r.Store.Put(sk, res)
		}
	}
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

// ForEach runs fn(sim, i) for i in [0, n) on at most min(par, n)
// workers (par <= 0 means GOMAXPROCS) and returns the lowest-index
// error. It is the simulator's one bounded worker pool. Each worker
// owns one engine.Sim and passes it to every task it runs; a single
// worker runs inline on the caller's goroutine. Tasks start in index
// order, and a failure stops the not-yet-started tasks above it while
// every task below it still runs, so the error returned does not
// depend on scheduling. fn must publish results in slots indexed by i.
//
//daelint:concurrent-callback
//daelint:ctx-root workers claim at most n indices and exit; cancellation rides the callbacks' own hooks
func ForEach(par, n int, fn func(sim *engine.Sim, i int) error) error {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0) //daelint:nondeterministic-ok worker-pool width only; results land in slots indexed by task, not by completion order
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		sim := engine.NewSim()
		for i := 0; i < n; i++ {
			if err := fn(sim, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Int64 // lowest failing index so far; n while none
	failed.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := engine.NewSim()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i > failed.Load() {
					return
				}
				if errs[i] = fn(sim, int(i)); errs[i] == nil {
					continue
				}
				for {
					f := failed.Load()
					if i >= f || failed.CompareAndSwap(f, i) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// claim is one cacheable point's L1 slot within a run: either owned by
// that call (it fills and settles the entry) or by another in-flight
// caller (the call waits on it).
type claim struct {
	idx int
	e   *entry
	k   key
}

// settle publishes the canonical result out[c.idx] to the claim's
// waiters and hands the caller a private copy in its place.
func (c claim) settle(out []*engine.Result) {
	c.e.res = out[c.idx]
	close(c.e.ready)
	out[c.idx] = c.e.res.Clone()
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
	results, err := r.RunBatch(pts)
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
