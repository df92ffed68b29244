package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/kernel"
	"daesim/internal/machine"
	"daesim/internal/partition"
)

func testRunner(t *testing.T) *Runner {
	t.Helper()
	b := kernel.New("sweep")
	arr := b.Array("a", 128, 8)
	for i := 0; i < 32; i++ {
		base := b.Int()
		v := b.Load(arr, i, base)
		b.Store(arr, 64+i, b.FP(v), base)
	}
	s, err := machine.NewSuite(b.MustTrace(), partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	return NewRunner(s)
}

func TestRunCaches(t *testing.T) {
	r := testRunner(t)
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}
	a, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("callers must get private copies, not the shared cache entry")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cached result differs from original: %+v vs %+v", a, b)
	}
	if st := r.Stats(); st.Sims != 1 || st.L1Hits != 1 {
		t.Fatalf("want 1 sim and 1 L1 hit, got %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	for _, c := range []struct {
		stats CacheStats
		want  float64
	}{
		{CacheStats{}, 0},
		{CacheStats{Sims: 4}, 0},
		{CacheStats{L1Hits: 1, StoreHits: 1, RemoteHits: 1, Sims: 1}, 0.75},
		// A run answered entirely by remote searches simulated nothing.
		{CacheStats{RemoteSearches: 12}, 1},
		{CacheStats{RemoteSearches: 2, RemoteHits: 1, Degraded: 1}, 0.75},
		// Uncacheable runs are outside the rate.
		{CacheStats{L1Hits: 3, Uncacheable: 5}, 1},
	} {
		if got := c.stats.HitRate(); got != c.want {
			t.Errorf("%+v: HitRate %v, want %v", c.stats, got, c.want)
		}
	}
}

func TestRunReturnsDefensiveCopies(t *testing.T) {
	// Cached Results used to be shared pointers guarded only by a "must
	// not be mutated" comment; this pins the defensive-copy contract: a
	// caller scribbling on a returned Result must not poison later hits.
	r := testRunner(t)
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}
	a, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Clone()
	a.Cycles = -1
	a.Ops = -1
	for i := range a.Cores {
		a.Cores[i].Issued = -1
		for j := range a.Cores[i].IssueHist {
			a.Cores[i].IssueHist[j] = -1
		}
	}
	b, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, b) {
		t.Fatalf("mutating a returned Result leaked into the cache:\nwant %+v\ngot  %+v", want, b)
	}
}

func TestCustomMemBypassesCache(t *testing.T) {
	r := testRunner(t)
	var calls atomic.Int64
	mem := &countingMem{calls: &calls}
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30, Mem: mem}}
	if _, err := r.Run(pt); err != nil {
		t.Fatal(err)
	}
	first := calls.Load()
	if _, err := r.Run(pt); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2*first {
		t.Fatal("points with custom memory models must not be cached")
	}
}

type countingMem struct{ calls *atomic.Int64 }

func (m *countingMem) RequestFill(addr uint64, sent int64) int64 { return sent + 5 }
func (m *countingMem) Consume(addr uint64, cycle int64)          {}
func (m *countingMem) Reset()                                    { m.calls.Add(1) }

var _ engine.MemModel = (*countingMem)(nil)

func TestRunBatchOrderAndParallel(t *testing.T) {
	r := testRunner(t)
	var pts []Point
	for _, w := range []int{2, 4, 8, 16, 32} {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	results, err := r.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pts) {
		t.Fatalf("got %d results", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Cycles > results[i-1].Cycles {
			// Small scheduling anomalies are possible but not on this
			// trivially regular kernel.
			t.Errorf("results out of order or nonmonotone: %d then %d", results[i-1].Cycles, results[i].Cycles)
		}
	}
	// Serial path must agree with the parallel path.
	r2 := testRunner(t)
	r2.Parallelism = 1
	serial, err := r2.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Cycles != results[i].Cycles {
			t.Fatalf("parallel/serial divergence at %d: %d vs %d", i, results[i].Cycles, serial[i].Cycles)
		}
	}
}

// TestRunBatchMatchesRunWith: the batched path answers exactly what
// point-by-point RunWith calls would — including duplicates, cached
// points and uncacheable custom-Mem points — with the same counters a
// point-by-point run would produce.
func TestRunBatchMatchesRunWith(t *testing.T) {
	oracle := testRunner(t)
	r := testRunner(t)
	var calls atomic.Int64
	mem := &countingMem{calls: &calls}
	pts := []Point{
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}},
		{Kind: machine.SWSM, P: machine.Params{Window: 16, MD: 30}},
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}, // duplicate
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30, Mem: mem}},
		{Kind: machine.DM, P: machine.Params{Window: 4, MD: 30}},
	}
	// Warm one point so the batch sees a pre-existing L1 entry.
	if _, err := r.Run(pts[4]); err != nil {
		t.Fatal(err)
	}
	got, err := r.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*engine.Result, len(pts))
	for i, pt := range pts {
		if want[i], err = oracle.RunWith(nil, pt); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pts {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d: batch result differs from RunWith", i)
		}
	}
	st := r.Stats()
	if st.Sims != 3 || st.L1Hits != 2 || st.Uncacheable != 1 {
		t.Errorf("want 3 sims, 2 L1 hits, 1 uncacheable, got %+v", st)
	}
	// Returned results are private copies, like every other path.
	got[0].Cycles = -1
	again, err := r.RunBatch(pts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Cycles == -1 {
		t.Error("RunBatch leaked the cached Result")
	}
}

// TestRunBatchRemote: with a RemoteBatch hook, exactly the local-layer
// misses travel, in one call; warm batches travel nothing; a remote
// error fails the batch loudly and drops the claims so a retry works.
func TestRunBatchRemote(t *testing.T) {
	exec := testRunner(t) // stands in for the daemon fleet
	r := testRunner(t)
	var calls, points atomic.Int64
	var fail atomic.Bool
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		if fail.Load() {
			return nil, errFleetDown
		}
		calls.Add(1)
		points.Add(int64(len(pts)))
		return exec.RunBatch(pts)
	}

	var pts []Point
	for _, w := range []int{4, 8, 16, 32} {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	// Pre-warm one point locally: it must not travel.
	r.RemoteBatch = nil
	if _, err := r.Run(pts[0]); err != nil {
		t.Fatal(err)
	}
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		if fail.Load() {
			return nil, errFleetDown
		}
		calls.Add(1)
		points.Add(int64(len(pts)))
		return exec.RunBatch(pts)
	}

	got, err := r.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || points.Load() != 3 {
		t.Errorf("want 1 remote call carrying the 3 misses, got %d calls, %d points", calls.Load(), points.Load())
	}
	for i, pt := range pts {
		local, err := exec.Run(pt)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Cycles != local.Cycles {
			t.Errorf("point %d: result through the remote batch differs", i)
		}
	}
	// Warm batch: everything is an L1 hit, nothing travels.
	if _, err := r.RunBatch(pts); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("warm batch should travel nothing, remote calls went to %d", calls.Load())
	}
	st := r.Stats()
	if st.RemoteHits != 3 || st.Sims != 1 {
		t.Errorf("want 3 remote hits and the 1 pre-warmed local sim, got %+v", st)
	}

	// A warm RunWith is an L1 hit and travels nothing either.
	if _, err := r.Run(pts[2]); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("warm RunWith should not re-travel, remote calls went to %d", calls.Load())
	}

	// A remote failure surfaces and does not poison the cache.
	fresh := Point{Kind: machine.SWSM, P: machine.Params{Window: 64, MD: 30}}
	fail.Store(true)
	if _, err := r.RunBatch([]Point{fresh}); err == nil {
		t.Fatal("remote batch failure must surface")
	}
	fail.Store(false)
	if _, err := r.RunBatch([]Point{fresh}); err != nil {
		t.Fatalf("retry after a remote failure: %v", err)
	}
}

var errFleetDown = errors.New("fleet down")

// TestRunBatchStorePeel: a fresh process over a warm store serves a
// batch entirely from L2 — nothing simulates, nothing travels — and a
// remote nil result is refused before it can poison either layer.
func TestRunBatchStorePeel(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for _, w := range []int{4, 8, 16, 32, 64} {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	warmer := testRunner(t)
	warmer.Store = store
	want, err := warmer.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}

	r := testRunner(t) // fresh L1, same store
	r.Store = store
	r.RemoteBatch = func([]Point) ([]*engine.Result, error) {
		t.Error("store-warm batch must not travel")
		return nil, errFleetDown
	}
	got, err := r.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if got[i].Cycles != want[i].Cycles {
			t.Errorf("point %d: store-peeled result differs", i)
		}
	}
	if st := r.Stats(); st.StoreHits != int64(len(pts)) || st.Sims != 0 {
		t.Errorf("want %d store hits and 0 sims, got %+v", len(pts), st)
	}

	// A nil element in a remote reply is a loud error, not a cache fill.
	bad := testRunner(t)
	bad.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		return make([]*engine.Result, len(pts)), nil
	}
	if _, err := bad.RunBatch(pts[:1]); err == nil || !errorsContains(err, "nil result") {
		t.Errorf("nil remote result must fail the batch: %v", err)
	}
	if st := bad.Stats(); st.RemoteHits != 0 {
		t.Errorf("nil results must not count as remote hits: %+v", st)
	}
	if _, err := bad.RunBatch(pts[:1]); err == nil {
		t.Error("the poisoned claim should have been dropped and retried remotely (still failing)")
	}
}

func errorsContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}

func TestWindowSweep(t *testing.T) {
	r := testRunner(t)
	windows := []int{4, 8, 16}
	s, err := r.WindowSweep(machine.SWSM, machine.Params{MD: 20}, windows,
		func(w int, res *engine.Result) float64 { return float64(res.Cycles) })
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) != 3 || s.X[0] != 4 || s.X[2] != 16 {
		t.Fatalf("x values wrong: %v", s.X)
	}
	if s.Y[0] < s.Y[2] {
		t.Fatalf("cycles should not grow with window: %v", s.Y)
	}
}

func TestWindows(t *testing.T) {
	w := Windows(10, 50, 10)
	if len(w) != 5 || w[0] != 10 || w[4] != 50 {
		t.Fatalf("Windows wrong: %v", w)
	}
	if got := Windows(5, 4, 1); got != nil {
		t.Fatalf("empty range should be nil: %v", got)
	}
}

// TestRemoteDegradeFallsBackLocally pins the last rung of the failure
// ladder for a single point: a RemoteBatch failure wrapping
// ErrUnavailable — with no results, or with the point's slot unserved —
// fails loudly by default, but with Degrade set the point simulates
// locally on the caller's scratch (counted as Degraded, byte-identical
// to the local oracle). Any other remote error still surfaces even
// with Degrade on.
func TestRemoteDegradeFallsBackLocally(t *testing.T) {
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}
	oracle := testRunner(t)
	want, err := oracle.Run(pt)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		hook func([]Point) ([]*engine.Result, error)
	}{
		{"no results", func([]Point) ([]*engine.Result, error) {
			return nil, fmt.Errorf("daemon fleet: every owner down: %w", ErrUnavailable)
		}},
		{"unserved slot", func(pts []Point) ([]*engine.Result, error) {
			return make([]*engine.Result, len(pts)), fmt.Errorf("down: %w", ErrUnavailable)
		}},
	} {
		name := tc.name
		r := testRunner(t)
		r.RemoteBatch = tc.hook
		if _, err := r.Run(pt); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s: without Degrade an unavailable fleet must fail loudly, got %v", name, err)
		}
		r.Degrade = true
		got, err := r.RunWith(engine.NewSim(), pt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: degraded result differs from the local oracle", name)
		}
		if st := r.Stats(); st.Degraded != 1 || st.Sims != 0 || st.RemoteHits != 0 {
			t.Fatalf("%s: degraded fill miscounted: %+v", name, st)
		}
	}

	r2 := testRunner(t)
	r2.Degrade = true
	r2.RemoteBatch = func([]Point) ([]*engine.Result, error) { return nil, errors.New("version skew") }
	if _, err := r2.Run(pt); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("non-unavailable remote errors must not degrade: %v", err)
	}
}

// TestRunWithMissSendsOnePoint: a RunWith miss travels through the one
// remote hook carrying exactly its own point, and the answer is the
// hook's; a warm repeat travels nothing.
func TestRunWithMissSendsOnePoint(t *testing.T) {
	exec := testRunner(t)
	r := testRunner(t)
	var sent [][]Point
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		sent = append(sent, append([]Point(nil), pts...))
		return exec.RunBatch(pts)
	}
	pt := Point{Kind: machine.SWSM, P: machine.Params{Window: 12, MD: 30}}
	got, err := r.RunWith(engine.NewSim(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || len(sent[0]) != 1 || !reflect.DeepEqual(sent[0][0], pt) {
		t.Fatalf("RunWith miss should send exactly its one point, sent %v", sent)
	}
	want, err := exec.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("RunWith returned something other than the remote answer")
	}
	if _, err := r.Run(pt); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Errorf("warm RunWith travelled again: %d hook calls", len(sent))
	}
	if st := r.Stats(); st.RemoteHits != 1 || st.L1Hits != 1 || st.Sims != 0 {
		t.Errorf("want 1 remote hit and 1 L1 hit, got %+v", st)
	}
}

// TestConcurrentRunWithAndRunBatchShareHook: RunWith and RunBatch
// callers racing over overlapping points share the single-flight L1, so
// the hook sees each distinct point exactly once, whichever caller
// claimed it.
func TestConcurrentRunWithAndRunBatchShareHook(t *testing.T) {
	exec := testRunner(t)
	r := testRunner(t)
	var mu sync.Mutex
	seen := map[Point]int{}
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		mu.Lock()
		for _, pt := range pts {
			seen[pt]++
		}
		mu.Unlock()
		return exec.RunBatch(pts)
	}
	var pts []Point
	for w := 2; w <= 24; w += 2 {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(pts))
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			// Overlapping halves, shifted per goroutine.
			_, err := r.RunBatch(pts[g*2 : g*2+len(pts)/2])
			errs <- err
		}(g)
		go func() {
			defer wg.Done()
			sim := engine.NewSim()
			for i := len(pts) - 1; i >= 0; i-- {
				if _, err := r.RunWith(sim, pts[i]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != len(pts) {
		t.Errorf("hook saw %d distinct points, want %d", len(seen), len(pts))
	}
	for pt, n := range seen { //daelint:nondeterministic-ok every entry is checked; order reaches no value
		if n != 1 {
			t.Errorf("point %+v travelled %d times, want once", pt, n)
		}
	}
	if st := r.Stats(); st.RemoteHits != int64(len(pts)) || st.Sims != 0 {
		t.Errorf("want %d remote hits and no local sims, got %+v", len(pts), st)
	}
}

// TestRemoteBatchPartialDegrade pins partial-batch semantics: when the
// batch hook returns what the surviving owners could serve (nil slots
// for the rest) alongside an ErrUnavailable-wrapped error, a Degrade
// runner accepts the served slots as remote hits and simulates only
// the orphaned ones.
func TestRemoteBatchPartialDegrade(t *testing.T) {
	oracle := testRunner(t)
	var pts []Point
	for i := 0; i < 6; i++ {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: 8 + i, MD: 30}})
	}
	want, err := oracle.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}

	r := testRunner(t)
	r.Degrade = true
	served := testRunner(t) // stands in for the surviving replicas
	r.RemoteBatch = func(misses []Point) ([]*engine.Result, error) {
		out := make([]*engine.Result, len(misses))
		for i := 0; i < len(misses); i += 2 {
			res, err := served.Run(misses[i])
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, fmt.Errorf("daemon fleet: 3 points failed on every candidate: %w", ErrUnavailable)
	}
	got, err := r.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partially degraded batch differs from the local oracle")
	}
	if st := r.Stats(); st.RemoteHits != 3 || st.Degraded != 3 || st.Sims != 0 {
		t.Fatalf("partial degradation miscounted: %+v", st)
	}

	// Without Degrade, the same partial answer fails the batch.
	r2 := testRunner(t)
	r2.RemoteBatch = func(misses []Point) ([]*engine.Result, error) {
		return make([]*engine.Result, len(misses)), fmt.Errorf("down: %w", ErrUnavailable)
	}
	if _, err := r2.RunBatch(pts); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("without Degrade a partial batch must fail: %v", err)
	}
}

// TestRunWithAllocs pins RunWith's allocation profile on a local
// runner: an L1 hit allocates only the private copy of its Result (4),
// and a cold miss adds its entry and the simulation's own allocations
// (13). A one-point call must not pay for the batch machinery it shares
// with RunBatch: claim lists, the worker pool, scratch contexts.
func TestRunWithAllocs(t *testing.T) {
	r := testRunner(t)
	sim := engine.NewSim()
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}
	if _, err := r.RunWith(sim, pt); err != nil {
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(100, func() {
		if _, err := r.RunWith(sim, pt); err != nil {
			t.Fatal(err)
		}
	})
	miss := testing.AllocsPerRun(100, func() {
		// clear keeps the map's buckets, so the count is RunWith's own.
		r.mu.Lock()
		clear(r.cache)
		r.mu.Unlock()
		if _, err := r.RunWith(sim, pt); err != nil {
			t.Fatal(err)
		}
	})
	if hit > 4 || miss > 13 {
		t.Errorf("RunWith allocates %v on an L1 hit and %v on a cold miss, want at most 4 and 13", hit, miss)
	}
}

// TestForEach pins the pool's contract: the lowest-index error wins
// whatever order tasks finish in, a single worker starts nothing after
// a failure, empty and narrow task lists work, at most par tasks run at
// once, and each worker holds one sim that no other task uses while it
// runs.
func TestForEach(t *testing.T) {
	t.Run("lowest-index error", func(t *testing.T) {
		for _, par := range []int{1, 2, 4} {
			err := ForEach(par, 40, func(_ *engine.Sim, i int) error {
				switch i {
				case 2:
					time.Sleep(5 * time.Millisecond) // finish after the higher failures
					return fmt.Errorf("task %d", i)
				case 3, 9, 30:
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 2" {
				t.Errorf("par %d: got %v, want the lowest-index error (task 2)", par, err)
			}
		}
	})
	t.Run("par 1 stops at the failure", func(t *testing.T) {
		started := make([]bool, 8)
		err := ForEach(1, len(started), func(_ *engine.Sim, i int) error {
			started[i] = true
			if i == 3 {
				return errors.New("boom")
			}
			return nil
		})
		want := []bool{true, true, true, true, false, false, false, false}
		if err == nil || !reflect.DeepEqual(started, want) {
			t.Errorf("started %v (err %v), want %v and an error", started, err, want)
		}
	})
	t.Run("empty and narrow", func(t *testing.T) {
		if err := ForEach(4, 0, func(*engine.Sim, int) error { t.Error("task ran for n == 0"); return nil }); err != nil {
			t.Error(err)
		}
		runs := make([]int, 3)
		if err := ForEach(8, len(runs), func(_ *engine.Sim, i int) error { runs[i]++; return nil }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs, []int{1, 1, 1}) {
			t.Errorf("par > n ran tasks %v times, want each once", runs)
		}
	})
	t.Run("one sim per worker", func(t *testing.T) {
		for _, par := range []int{1, 3} {
			var mu sync.Mutex
			inUse := map[*engine.Sim]bool{}
			seen := map[*engine.Sim]int{}
			var active, peak atomic.Int64
			err := ForEach(par, 60, func(sim *engine.Sim, i int) error {
				if n := active.Add(1); n > peak.Load() {
					peak.Store(n)
				}
				defer active.Add(-1)
				mu.Lock()
				if sim == nil || inUse[sim] {
					mu.Unlock()
					return fmt.Errorf("task %d: sim nil or shared with a running task", i)
				}
				inUse[sim] = true
				seen[sim]++
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				mu.Lock()
				inUse[sim] = false
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			if len(seen) > par || peak.Load() > int64(par) {
				t.Errorf("par %d: %d distinct sims, %d tasks at once; want at most %d of each", par, len(seen), peak.Load(), par)
			}
		}
	})
}
