package experiments

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/metrics"
	"daesim/internal/sweep"
)

var crossingFull = flag.Bool("crossing.full", false, "check the exact-crossing oracle over the full Figure 7-9 grid (210 points)")

// TestRatioSearchMatchesExactCrossing is the exact-crossing oracle for
// Figures 7-9. Simulated time is not monotone in window size, so the
// figure value is defined as the first crossing: the smallest SWSM
// window whose time meets the DM's. One exhaustive SWSM profile per
// (workload, MD) curve gives the first crossing of every DM window on
// that curve, and the search must land on it exactly. Tier-1 checks one
// Figure 7 curve; -crossing.full checks all 21 curves.
func TestRatioSearchMatchesExactCrossing(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive profiles are slow")
	}
	type curve struct {
		name string
		md   int
	}
	curves := []curve{{"FLO52Q", 30}}
	if *crossingFull {
		curves = curves[:0]
		for _, name := range []string{"FLO52Q", "MDG", "TRACK"} {
			for _, md := range RatioMDs {
				curves = append(curves, curve{name, md})
			}
		}
	}
	for _, c := range curves {
		r, err := ctx().Runner(c.name)
		if err != nil {
			t.Fatal(err)
		}
		checkCurve(t, r, c.name, c.md)
	}
}

// checkCurve checks every DM window of one ratio-figure curve against
// the first crossing of one shared SWSM profile.
func checkCurve(t *testing.T, r *sweep.Runner, name string, md int) {
	t.Helper()
	search := metrics.NewSearch(r)
	answers := make([]int, len(RatioWindows))
	targets := make([]int64, len(RatioWindows))
	top := 0
	for i, w := range RatioWindows {
		p := machine.Params{Window: w, MD: md}
		ratio, ok, err := search.EquivalentWindowRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = metrics.MaxEquivalentWindow + 1 // saturated
		if ok {
			answers[i] = int(math.Round(ratio * float64(w)))
		}
		dm, err := r.Run(sweep.Point{Kind: machine.DM, P: p})
		if err != nil {
			t.Fatal(err)
		}
		targets[i] = dm.Cycles
		top = max(top, min(answers[i], metrics.MaxEquivalentWindow))
	}
	// The profile covers every window up to the largest answer, so the
	// first crossing of each target is known exactly.
	pts := make([]sweep.Point, top)
	for w := 1; w <= top; w++ {
		pts[w-1] = sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: md}}
	}
	profile, err := r.RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range RatioWindows {
		first := metrics.MaxEquivalentWindow + 1
		for x, res := range profile {
			if res.Cycles <= targets[i] {
				first = x + 1
				break
			}
		}
		if answers[i] != first {
			t.Errorf("%s md=%d w=%d: search answered %s, first crossing is %s",
				name, md, w, windowName(answers[i]), windowName(first))
		}
	}
}

func windowName(w int) string {
	if w > metrics.MaxEquivalentWindow {
		return "saturated"
	}
	return fmt.Sprint(w)
}

// TestBypassEquivalentWindowIsFirstCrossing pins a custom-Mem point the
// retired serial interpolating search got wrong: on FLO52Q with a 64-line
// bypass buffer at MD 60, matching the W=80 DM it answered 558, while
// 554 already meets the target. The wave search must return 554, the
// first crossing: t(554) <= target < t(553).
func TestBypassEquivalentWindowIsFirstCrossing(t *testing.T) {
	if testing.Short() {
		t.Skip("FLO52Q searches are slow")
	}
	r, err := ctx().Runner("FLO52Q")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := memsys.NewBypass(60, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := machine.Params{Window: 80, MD: 60, Mem: mem}
	dm, err := r.Run(sweep.Point{Kind: machine.DM, P: p})
	if err != nil {
		t.Fatal(err)
	}
	w, ok, err := metrics.NewSearch(r).EquivalentWindow(p, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || w != 554 {
		t.Fatalf("equivalent window (%d, %v), want (554, true)", w, ok)
	}
	swsm := func(w int) int64 {
		q := p
		q.Window = w
		res, err := r.Run(sweep.Point{Kind: machine.SWSM, P: q})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if t554, t553 := swsm(554), swsm(553); t554 > dm.Cycles || t553 <= dm.Cycles {
		t.Errorf("554 is not the crossing: t(553)=%d t(554)=%d target=%d", t553, t554, dm.Cycles)
	}
}
