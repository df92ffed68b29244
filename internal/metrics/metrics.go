// Package metrics computes the paper's derived measures: speedup over
// the serial reference, latency-hiding effectiveness (LHE), the
// equivalent window (the SWSM window matching a DM configuration) and
// the MD=0 crossover window.
//
// The equivalent-window searches route every probe through a
// sweep.Runner, so overlapping figure sweeps share memoized results.
// One algorithm answers every search: a staged ladder of doublings
// brackets the target, then fixed k-section waves close the bracket. A
// search runs each probe wave in order on one warm engine.Sim scratch
// and stops at the first probe it acts on, unless a batch-capable remote
// runner can take the whole wave in one round trip (see Search).
package metrics

import (
	"fmt"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/sweep"
)

// Speedup returns serial/actual; zero actual yields zero.
func Speedup(serial, actual int64) float64 {
	if actual == 0 {
		return 0
	}
	return float64(serial) / float64(actual)
}

// LHE returns the latency-hiding effectiveness T_perfect/T_actual, where
// T_perfect is the execution time when every memory access perceives a
// single-cycle latency (Jones & Topham, §5). Perfect hiding gives 1.
func LHE(perfect, actual int64) float64 {
	if actual == 0 {
		return 0
	}
	return float64(perfect) / float64(actual)
}

// MaxEquivalentWindow bounds the equivalent-window search. The paper
// examines SWSM windows up to 1000 slots; the search allows a deeper
// sweep so ratios near the top of Figures 7-9 resolve.
const MaxEquivalentWindow = 8192

// Search runs equivalent-window and crossover searches against one
// sweep.Runner. It owns one engine.Sim scratch context, created on first
// use, that stays warm across calls, so a figure sweep of many search
// points does not cold-start scratch on every point, and its probes are
// memoized by the Runner, so overlapping sweeps (WindowSweep curves, the
// other MD curves of a ratio figure) share results.
//
// The search is wave-structured: the exponential bracket ladder is
// staged in waves of ladderStage rungs, then each refinement layer
// probes kSectionWidth interior points (k-section). The wave contents
// are a pure function of the hint and the probe results — never of
// GOMAXPROCS or where the probes execute — so a search returns the same
// window on a laptop, a CI runner, and a sweepd fleet
// (TestSearchDeterministicAcrossParallelism), and byte-identity between
// local and remote reproductions is structural rather than lucky.
// Execution has two strategies (evalWave), chosen from what the wave's
// points allow: a Runner with a RemoteBatch hook ships each whole wave
// of cacheable points in one round trip, which is what collapses a
// remote search's request count (DESIGN.md §11); otherwise the wave
// runs in order on the scratch and stops at its deciding probe, the
// first one the search acts on. Points carrying a custom Params.Mem
// cannot travel (a MemModel is local code), so their waves always run
// in order.
//
// A Search is not safe for concurrent use by multiple goroutines;
// callers fan independent searches out with one Search per goroutine.
type Search struct {
	// Runner executes and memoizes the probes.
	Runner *sweep.Runner

	sim *engine.Sim
}

// NewSearch returns a Search against the runner.
func NewSearch(r *sweep.Runner) *Search { return &Search{Runner: r} }

// scratch returns the search's warm scratch context.
func (s *Search) scratch() *engine.Sim {
	if s.sim == nil {
		s.sim = engine.NewSim()
	}
	return s.sim
}

// waveFunc evaluates the SWSM times at the windows ws as one wave and
// returns the times of an evaluated prefix: the search reads no probe
// after a wave's deciding probe (the first time at most the target), so
// the prefix may stop there, and must reach it when the wave has one.
type waveFunc func(ws []int) ([]int64, error)

// evalWave evaluates one wave of points and returns the times of an
// evaluated prefix. A Runner with a RemoteBatch hook ships a wave of
// cacheable points in one round trip. Otherwise — no hook, or custom
// Params.Mem points, which never travel — the points run in order and
// the wave stops at its deciding probe, because ladderSearch and refine
// read no probe after it. Every point of a wave shares its Params but
// for the window, so pts[0] speaks for the wave. When anchored, pts[0]
// is the ratio search's DM anchor: it runs first and its time becomes
// the target. Either way the search takes the same path, so the
// strategy never changes an answer.
func (s *Search) evalWave(pts []sweep.Point, target int64, anchored bool) ([]int64, error) {
	if s.Runner.RemoteBatch != nil && pts[0].P.Mem == nil {
		results, err := s.Runner.RunBatch(pts)
		if err != nil {
			return nil, err
		}
		times := make([]int64, len(results))
		for i, r := range results {
			times[i] = r.Cycles
		}
		return times, nil
	}
	times := make([]int64, 0, len(pts))
	for i, pt := range pts {
		r, err := s.Runner.RunWith(s.scratch(), pt)
		if err != nil {
			return nil, err
		}
		times = append(times, r.Cycles)
		if anchored && i == 0 {
			target = r.Cycles
		} else if r.Cycles <= target {
			break
		}
	}
	return times, nil
}

// swsmWave returns the evaluator of SWSM waves under p: each window of
// a wave is a probe of p at that window (see evalWave).
func (s *Search) swsmWave(p machine.Params, target int64) waveFunc {
	return func(ws []int) ([]int64, error) {
		pts := make([]sweep.Point, len(ws))
		for i, w := range ws {
			q := p
			q.Window = w
			pts[i] = sweep.Point{Kind: machine.SWSM, P: q}
		}
		return s.evalWave(pts, target, false)
	}
}

// EquivalentWindow returns the smallest SWSM window (running the suite
// under p with p.Window replaced by the candidate) whose time is at most
// target cycles. p.Window, when positive, seeds the bracket: the search
// probes it first and expands or refines from there. ok is false if even
// MaxEquivalentWindow cannot reach the target.
//
// Minimality holds under monotonicity of time in window size, which the
// engine satisfies up to small Graham anomalies (DESIGN.md §3). Inside
// an anomaly wobble band the boundary is ambiguous and the returned
// window depends on the probe path — but the probe path is a pure
// function of the hint and the probe results, never of execution
// placement (the Search doc has the contract), so the answer
// is reproducible everywhere and always satisfies
// t(w) <= target < t(w-1). On every Figure 7-9 point the answer is the
// first crossing itself, as an exhaustive profile confirms
// (TestRatioSearchMatchesExactCrossing).
func (s *Search) EquivalentWindow(p machine.Params, target int64) (window int, ok bool, err error) {
	return ladderSearch(s.swsmWave(p, target), target, ladderWindows(clampHint(p.Window)), nil)
}

// kSectionWidth is the interior-probe count of each refinement wave.
// It is a fixed constant — not the machine's parallelism — because the
// wave contents define the search's answer path, and that path must be
// identical everywhere for local, remote, and differently-sized hosts
// to agree bit-for-bit on figure values. 4 shrinks a bracket 5x per
// wave — 2-3 waves for figure-scale brackets. A local search simulates
// no interior point past its wave's deciding probe; only a batched
// remote wave does.
const kSectionWidth = 4

// clampHint bounds a bracket hint to [1, MaxEquivalentWindow].
func clampHint(hint int) int {
	if hint < 1 {
		return 1
	}
	if hint > MaxEquivalentWindow {
		return MaxEquivalentWindow
	}
	return hint
}

// ladderWindows is the speculative bracket sequence for a hint: the
// hint and its doublings up to the cap. A pure function of the hint.
func ladderWindows(hint int) []int {
	ladder := []int{hint}
	for w := 2 * hint; w < MaxEquivalentWindow; w *= 2 {
		ladder = append(ladder, w)
	}
	if ladder[len(ladder)-1] != MaxEquivalentWindow {
		ladder = append(ladder, MaxEquivalentWindow)
	}
	return ladder
}

// ladderStage is how many ladder rungs one wave speculates on. Figure
// ratios land within a few doublings of the hint, so a 4-rung stage
// (hint..8×hint) resolves most searches in one wave without paying for
// the cap-sized probes a full-ladder wave would waste; only searches
// that overshoot the stage climb to the next one.
const ladderStage = 4

// ladderSearch continues a partially evaluated ladder (times covers
// ladder[:len(times)], possibly none of it) stage by stage until a rung
// meets the target or the ladder is exhausted, then refines the
// bracket. The probe path is a pure function of (ladder, target, probe
// results).
func ladderSearch(eval waveFunc, target int64, ladder []int, times []int64) (window int, ok bool, err error) {
	found := func() bool {
		for _, t := range times {
			if t <= target {
				return true
			}
		}
		return false
	}
	for !found() && len(times) < len(ladder) {
		end := len(times) + ladderStage
		if end > len(ladder) {
			end = len(ladder)
		}
		chunk, err := eval(ladder[len(times):end])
		if err != nil {
			return 0, false, err
		}
		times = append(times, chunk...)
	}
	return refine(eval, target, ladder[:len(times)], times)
}

// refine turns evaluated ladder times into the smallest target-meeting
// window: bracket from the first ladder rung meeting the target, then
// k-section waves of kSectionWidth interior points until the bracket
// closes.
func refine(eval waveFunc, target int64, ladder []int, times []int64) (window int, ok bool, err error) {
	first := -1
	for i, t := range times {
		if t <= target {
			first = i
			break
		}
	}
	if first < 0 {
		return MaxEquivalentWindow, false, nil
	}
	lo, hi := 1, ladder[first]
	if first > 0 {
		lo = ladder[first-1] + 1
	}
	for lo < hi {
		span := hi - lo
		m := kSectionWidth
		if m > span {
			m = span
		}
		xs := make([]int, 0, m)
		for j := 1; j <= m; j++ {
			x := lo + j*span/(m+1)
			if len(xs) == 0 || x > xs[len(xs)-1] {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			xs = append(xs, lo+span/2)
		}
		times, err := eval(xs)
		if err != nil {
			return 0, false, err
		}
		firstGood := -1
		for i, t := range times {
			if t <= target {
				firstGood = i
				break
			}
		}
		switch {
		case firstGood < 0:
			lo = xs[len(xs)-1] + 1
		case firstGood == 0:
			hi = xs[0]
		default:
			lo, hi = xs[firstGood-1]+1, xs[firstGood]
		}
	}
	return hi, true, nil
}

// EquivalentWindowRatio runs the DM at p and returns the ratio of the
// equivalent SWSM window to the DM (per-unit) window — the quantity of
// Figures 7-9. Each machine's memory buffer scales with its own window
// (the default QueueFactor×Window): the prefetch buffer is part of the
// window resource the search is scaling, so a probe at window w gets a
// w-proportional buffer just as the DM it must match got one — pinning
// the probes to the DM's capacity would charge the SWSM twice for the
// same slots. An explicit p.MemQueue or p.Mem is used as given. ok is
// false when the SWSM cannot match the DM within MaxEquivalentWindow.
func (s *Search) EquivalentWindowRatio(p machine.Params) (ratio float64, ok bool, err error) {
	if p.Window <= 0 {
		return 0, false, fmt.Errorf("metrics: equivalent window ratio needs a finite DM window")
	}
	// The DM anchor rides in the first wave with the first ladder stage:
	// the ladder's contents depend only on the hint, not on the target,
	// so folding the anchor in saves a remote search one full round trip
	// per ratio point. A local wave runs the anchor first, and its time
	// decides where the rungs stop.
	hint := clampHint(p.Window)
	ladder := ladderWindows(hint)
	end := ladderStage
	if end > len(ladder) {
		end = len(ladder)
	}
	pts := make([]sweep.Point, 0, end+1)
	pts = append(pts, sweep.Point{Kind: machine.DM, P: p})
	for _, w := range ladder[:end] {
		q := p
		q.Window = w
		pts = append(pts, sweep.Point{Kind: machine.SWSM, P: q})
	}
	times, err := s.evalWave(pts, 0, true)
	if err != nil {
		return 0, false, err
	}
	w, ok, err := ladderSearch(s.swsmWave(p, times[0]), times[0], ladder, times[1:])
	if err != nil {
		return 0, false, err
	}
	return float64(w) / float64(p.Window), ok, nil
}

// Crossover returns the smallest window in windows (ascending) at which
// the SWSM is at least as fast as the DM with the same per-unit window,
// and ok=false if no such window exists in the sweep. This locates the
// paper's MD=0 cutoff points. Both machines run through the Runner on
// one warm scratch, so a crossover scan over windows another sweep
// already visited costs nothing.
func (s *Search) Crossover(p machine.Params, windows []int) (window int, ok bool, err error) {
	sim := s.scratch()
	for _, w := range windows {
		q := p
		q.Window = w
		dm, err := s.Runner.RunWith(sim, sweep.Point{Kind: machine.DM, P: q})
		if err != nil {
			return 0, false, err
		}
		sw, err := s.Runner.RunWith(sim, sweep.Point{Kind: machine.SWSM, P: q})
		if err != nil {
			return 0, false, err
		}
		if sw.Cycles <= dm.Cycles {
			return w, true, nil
		}
	}
	return 0, false, nil
}

// EquivalentWindow is Search.EquivalentWindow on a one-shot Search
// against r. Callers evaluating many points should hold a Search so its
// scratch stays warm.
func EquivalentWindow(r *sweep.Runner, p machine.Params, target int64) (window int, ok bool, err error) {
	return NewSearch(r).EquivalentWindow(p, target)
}

// EquivalentWindowRatio is Search.EquivalentWindowRatio on a one-shot
// Search against r.
func EquivalentWindowRatio(r *sweep.Runner, p machine.Params) (ratio float64, ok bool, err error) {
	return NewSearch(r).EquivalentWindowRatio(p)
}

// RatioAnswer is one equivalent-window ratio search result: the ratio
// at a DM configuration, or OK=false when the search saturated.
type RatioAnswer struct {
	Ratio float64
	OK    bool
}

// Ratios runs Search.EquivalentWindowRatio at every params entry on
// sweep.ForEach with par workers and returns the answers in input
// order. Each search runs on a Search bound to its worker's sim and
// probes through r, so searches share memoized probes and r's
// single-flight L1 simulates a probe two searches need only once. It
// is the one ratio fan-out — Figures 7-9 locally and sweepd's
// /v1/batch/search remotely — and a failing search stops the rest.
func Ratios(r *sweep.Runner, par int, params []machine.Params) ([]RatioAnswer, error) {
	out := make([]RatioAnswer, len(params))
	err := sweep.ForEach(par, len(params), func(sim *engine.Sim, i int) error {
		s := Search{Runner: r, sim: sim}
		ratio, ok, err := s.EquivalentWindowRatio(params[i])
		out[i] = RatioAnswer{Ratio: ratio, OK: ok}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Crossover is Search.Crossover on a one-shot Search against r.
func Crossover(r *sweep.Runner, p machine.Params, windows []int) (window int, ok bool, err error) {
	return NewSearch(r).Crossover(p, windows)
}
