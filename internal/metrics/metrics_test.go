package metrics

import (
	"errors"
	"testing"
	"testing/quick"

	"daesim/internal/engine"
	"daesim/internal/kernel"
	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/sweep"
)

func TestSpeedupAndLHE(t *testing.T) {
	if Speedup(100, 20) != 5.0 {
		t.Fatal("speedup wrong")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("zero actual should yield zero")
	}
	if LHE(80, 100) != 0.8 {
		t.Fatal("LHE wrong")
	}
	if LHE(80, 0) != 0 {
		t.Fatal("zero actual should yield zero")
	}
}

// fakeMonotone builds a RunFunc from a step function: time = hi below the
// threshold window, lo at or above it.
func fakeMonotone(threshold int, hi, lo int64) RunFunc {
	return func(w int) (int64, error) {
		if w >= threshold {
			return lo, nil
		}
		return hi, nil
	}
}

func TestEquivalentWindowFuncFindsThreshold(t *testing.T) {
	f := func(th uint16) bool {
		threshold := int(th%2000) + 1
		run := fakeMonotone(threshold, 100, 10)
		w, ok, err := EquivalentWindowFunc(run, 50)
		return err == nil && ok && w == threshold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentWindowFuncSaturates(t *testing.T) {
	run := func(w int) (int64, error) { return 1000, nil }
	w, ok, err := EquivalentWindowFunc(run, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unreachable target should report !ok")
	}
	if w != MaxEquivalentWindow {
		t.Fatalf("saturated search should report the cap, got %d", w)
	}
}

func TestEquivalentWindowFuncImmediate(t *testing.T) {
	// Window 1 already meets the target.
	run := fakeMonotone(1, 99, 10)
	w, ok, err := EquivalentWindowFunc(run, 50)
	if err != nil || !ok || w != 1 {
		t.Fatalf("got w=%d ok=%v err=%v, want 1 true nil", w, ok, err)
	}
}

func TestEquivalentWindowFuncPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	run := func(w int) (int64, error) { return 0, boom }
	if _, _, err := EquivalentWindowFunc(run, 10); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func smallSuite(t *testing.T) *machine.Suite {
	t.Helper()
	b := kernel.New("metrics")
	arr := b.Array("a", 256, 8)
	for i := 0; i < 48; i++ {
		base := b.Int()
		v := b.Load(arr, i, base)
		f := b.FPChain(2, v)
		b.Store(arr, 128+i, f, base)
	}
	s, err := machine.NewSuite(b.MustTrace(), partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEquivalentWindowAgainstSuite(t *testing.T) {
	s := smallSuite(t)
	dm, err := s.RunDM(machine.Params{Window: 12, MD: 40})
	if err != nil {
		t.Fatal(err)
	}
	w, ok, err := EquivalentWindow(sweep.NewRunner(s), machine.Params{MD: 40, MemQueue: 24}, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("search saturated on a tiny kernel")
	}
	// Verify minimality: w matches, w-1 does not.
	check := func(win int) int64 {
		r, err := s.RunSWSM(machine.Params{Window: win, MD: 40, MemQueue: 24})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if check(w) > dm.Cycles {
		t.Fatalf("window %d does not meet the target", w)
	}
	if w > 1 && check(w-1) <= dm.Cycles {
		t.Fatalf("window %d is not minimal", w)
	}
}

// batchedRunner returns a runner whose probe waves all travel through a
// RemoteBatch hook executed by a separate runner (the remote path), and
// that executing runner.
func batchedRunner(s *machine.Suite) (batched, exec *sweep.Runner) {
	exec = sweep.NewRunner(s)
	batched = sweep.NewRunner(s)
	batched.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) { return exec.RunAll(pts) }
	return batched, exec
}

// TestSearchParallelMatchesSerial pins the local search (each wave run
// in order, stopping at its deciding probe) against the batched path
// (each whole wave in one round trip) on a small figure grid. The two
// read the same probes, so their answers must be equal. Simulated time
// is not perfectly monotone in window size (Graham anomalies), so the
// answer may sit on either boundary of an anomaly wobble band; the
// contract it must satisfy is boundary validity — t(w) <= target <
// t(w-1). Run under -race this also exercises the batched runner's
// worker pool for data races (the CI race job does).
func TestSearchParallelMatchesSerial(t *testing.T) {
	s := smallSuite(t)
	local := NewSearch(sweep.NewRunner(s))
	batchedR, _ := batchedRunner(s)
	batched := NewSearch(batchedR)
	probe := func(p machine.Params, w int) int64 {
		q := p
		q.Window = w
		q.MemQueue = machine.QueueFactor * p.Window
		r, err := s.RunSWSM(q)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	for _, md := range []int{0, 20, 40} {
		for _, w := range []int{4, 8, 12, 20} {
			p := machine.Params{Window: w, MD: md}
			dm, err := s.RunDM(p)
			if err != nil {
				t.Fatal(err)
			}
			q := machine.Params{Window: w, MD: md, MemQueue: machine.QueueFactor * w}
			lw, lok, err := local.EquivalentWindow(q, dm.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			bw, bok, err := batched.EquivalentWindow(q, dm.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			if lw != bw || lok != bok {
				t.Errorf("md=%d w=%d: local (%d, %v) differs from batched (%d, %v)", md, w, lw, lok, bw, bok)
				continue
			}
			if !lok {
				continue
			}
			if c := probe(p, lw); c > dm.Cycles {
				t.Errorf("md=%d w=%d: window %d misses target (%d > %d)", md, w, lw, c, dm.Cycles)
			}
			if lw > 1 {
				if c := probe(p, lw-1); c <= dm.Cycles {
					t.Errorf("md=%d w=%d: window %d is not a boundary (t(w-1)=%d <= %d)", md, w, lw, c, dm.Cycles)
				}
			}
		}
	}
}

// TestSearchDeterministicAcrossParallelism pins the fleet-era contract
// the probe waves were redesigned around: the search answer is a pure
// function of its inputs — never of the Runner's Parallelism,
// GOMAXPROCS, or whether probes execute locally or through a
// batch-capable runner. This is what makes a server-side search
// byte-identical to a local one by construction (DESIGN.md §11), not
// merely in practice. Locally the set of simulated probes is a pure
// function of the inputs too, so the simulation count is as well.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	s := smallSuite(t)
	dm, err := s.RunDM(machine.Params{Window: 12, MD: 40})
	if err != nil {
		t.Fatal(err)
	}
	p := machine.Params{Window: 12, MD: 40, MemQueue: 24}

	type answer struct {
		w  int
		ok bool
	}
	var want answer
	var wantSims int64
	for i, par := range []int{1, 2, 4, 9} {
		r := sweep.NewRunner(s)
		r.Parallelism = par
		w, ok, err := NewSearch(r).EquivalentWindow(p, dm.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		sims := r.Stats().Sims
		if i == 0 {
			want, wantSims = answer{w, ok}, sims
			continue
		}
		if (answer{w, ok}) != want {
			t.Errorf("par=%d: (%d, %v) differs from par=1's (%d, %v)", par, w, ok, want.w, want.ok)
		}
		if sims != wantSims {
			t.Errorf("par=%d: %d simulations, par=1 ran %d", par, sims, wantSims)
		}
	}

	// A batch-capable runner (the remote path) probes the same waves and
	// lands on the same answer; every probe travels through RemoteBatch,
	// and the executing side simulates every probe the local search did.
	exec := sweep.NewRunner(s)
	batched := sweep.NewRunner(s)
	waves := 0
	batched.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		waves++
		return exec.RunAll(pts)
	}
	w, ok, err := NewSearch(batched).EquivalentWindow(p, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if (answer{w, ok}) != want {
		t.Errorf("batch-capable runner: (%d, %v) differs from local (%d, %v)", w, ok, want.w, want.ok)
	}
	if waves == 0 {
		t.Error("batch-capable runner should have routed probe waves remotely")
	}
	if st := batched.Stats(); st.Sims != 0 {
		t.Errorf("batch-capable runner simulated %d probes locally", st.Sims)
	}
	if got := exec.Stats().Sims; got < wantSims {
		t.Errorf("batched waves simulated %d probes, fewer than the local search's %d", got, wantSims)
	}
	t.Logf("search resolved in %d remote waves; %d local sims, %d batched", waves, wantSims, exec.Stats().Sims)

	// The ratio search folds its DM anchor into the first wave: one
	// round trip covers anchor plus ladder stage.
	execR := sweep.NewRunner(s)
	batchedR := sweep.NewRunner(s)
	var firstWave []sweep.Point
	batchedR.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		if firstWave == nil {
			firstWave = append([]sweep.Point(nil), pts...)
		}
		return execR.RunAll(pts)
	}
	if _, _, err := NewSearch(batchedR).EquivalentWindowRatio(p); err != nil {
		t.Fatal(err)
	}
	if len(firstWave) < 2 || firstWave[0].Kind != machine.DM || firstWave[1].Kind != machine.SWSM {
		t.Errorf("ratio search's first wave should carry the DM anchor plus SWSM rungs, got %d points", len(firstWave))
	}
}

// TestLocalSearchStopsAtFirstDecidingProbe: a local search runs each
// wave in order and stops at the first probe that meets the target,
// because the search reads nothing after it. Run over the same grid,
// point by point through a Remote hook and wave by wave through a
// RemoteBatch hook, the ratio searches must agree, and the point-wise
// probes must be a strict subset of the batched ones.
func TestLocalSearchStopsAtFirstDecidingProbe(t *testing.T) {
	s := smallSuite(t)
	key := func(pt sweep.Point) string {
		k, ok := pt.P.CacheKey(pt.Kind)
		if !ok {
			t.Fatalf("uncacheable probe %+v", pt)
		}
		return k
	}
	pointExec := sweep.NewRunner(s)
	pointwise := sweep.NewRunner(s)
	pointProbes := map[string]bool{}
	pointwise.Remote = func(pt sweep.Point) (*engine.Result, error) {
		pointProbes[key(pt)] = true
		return pointExec.Run(pt)
	}
	batchExec := sweep.NewRunner(s)
	batched := sweep.NewRunner(s)
	batchProbes := map[string]bool{}
	batched.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		for _, pt := range pts {
			batchProbes[key(pt)] = true
		}
		return batchExec.RunAll(pts)
	}
	pwSearch, bSearch := NewSearch(pointwise), NewSearch(batched)
	for _, md := range []int{0, 20, 40} {
		for _, w := range []int{4, 8, 12, 20} {
			p := machine.Params{Window: w, MD: md}
			pr, pok, err := pwSearch.EquivalentWindowRatio(p)
			if err != nil {
				t.Fatal(err)
			}
			br, bok, err := bSearch.EquivalentWindowRatio(p)
			if err != nil {
				t.Fatal(err)
			}
			if pr != br || pok != bok {
				t.Errorf("md=%d w=%d: point-wise (%v, %v) differs from batched (%v, %v)", md, w, pr, pok, br, bok)
			}
		}
	}
	for k := range pointProbes { //daelint:nondeterministic-ok subset check: every key is tested and the order reaches no value
		if !batchProbes[k] {
			t.Errorf("point-wise search probed %s, which no batched wave carried", k)
		}
	}
	if len(pointProbes) >= len(batchProbes) {
		t.Errorf("point-wise search probed %d points, batched %d: local waves should stop at their deciding probe", len(pointProbes), len(batchProbes))
	}
	t.Logf("probes: point-wise %d, batched %d", len(pointProbes), len(batchProbes))
}

// TestEquivalentWindowHintInvariance: the bracket hint (p.Window) must
// not change the answer, wherever it lands relative to the minimum.
func TestEquivalentWindowHintInvariance(t *testing.T) {
	s := smallSuite(t)
	r := sweep.NewRunner(s)
	dm, err := s.RunDM(machine.Params{Window: 12, MD: 40})
	if err != nil {
		t.Fatal(err)
	}
	base := machine.Params{MD: 40, MemQueue: 24}
	want, wantOK, err := EquivalentWindow(r, base, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []int{0, 1, 3, 12, 77, 600, MaxEquivalentWindow, MaxEquivalentWindow + 9} {
		q := base
		q.Window = hint
		got, ok, err := NewSearch(r).EquivalentWindow(q, dm.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || ok != wantOK {
			t.Errorf("hint=%d: got (%d, %v), want (%d, %v)", hint, got, ok, want, wantOK)
		}
	}
}

// TestSearchSaturates: an unreachable target reports the cap and !ok.
func TestSearchSaturates(t *testing.T) {
	s := smallSuite(t)
	w, ok, err := NewSearch(sweep.NewRunner(s)).EquivalentWindow(machine.Params{MD: 40, Window: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok || w != MaxEquivalentWindow {
		t.Fatalf("unreachable target gave (%d, %v), want (%d, false)", w, ok, MaxEquivalentWindow)
	}
}

func TestEquivalentWindowRatioNeedsFiniteWindow(t *testing.T) {
	s := smallSuite(t)
	if _, _, err := EquivalentWindowRatio(sweep.NewRunner(s), machine.Params{Window: 0, MD: 40}); err == nil {
		t.Fatal("unlimited DM window accepted")
	}
}

func TestCrossover(t *testing.T) {
	s := smallSuite(t)
	windows := []int{2, 4, 8, 16, 32, 64, 128}
	w, ok, err := Crossover(sweep.NewRunner(s), machine.Params{MD: 0}, windows)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("no crossover on this kernel; covered by experiments tests")
	}
	if w < 2 || w > 128 {
		t.Fatalf("crossover %d outside sweep", w)
	}
}
