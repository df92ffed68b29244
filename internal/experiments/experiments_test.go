package experiments

// Integration tests asserting the paper's qualitative findings. These are
// the fidelity gates of the reproduction: if a refactor or recalibration
// breaks one of the claims below, the reproduction no longer tells the
// paper's story. EXPERIMENTS.md records the quantitative details.

import (
	"errors"
	"io/fs"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// sharedCtx caches workload suites across all tests in the package.
var (
	sharedCtx  *Context
	sharedOnce sync.Once
)

func ctx() *Context {
	sharedOnce.Do(func() { sharedCtx = NewContext() })
	return sharedCtx
}

func TestTable1Bands(t *testing.T) {
	res, err := ctx().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("want 7 programs, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		var lo, hi float64
		switch row.Band {
		case workloads.Highly:
			lo, hi = 0.90, 1.0
		case workloads.Moderately:
			lo, hi = 0.55, 0.90
		case workloads.Poorly:
			lo, hi = 0.0, 0.55
		}
		if row.Unlimited < lo || row.Unlimited > hi {
			t.Errorf("%s: unlimited LHE %.3f outside %s band [%.2f, %.2f]",
				row.Name, row.Unlimited, row.Band, lo, hi)
		}
	}
	// The three selected programs fall one in each band (paper §5).
	bands := map[string]workloads.Band{}
	for _, row := range res.Rows {
		bands[row.Name] = row.Band
	}
	if bands["FLO52Q"] != workloads.Highly || bands["MDG"] != workloads.Moderately || bands["TRACK"] != workloads.Poorly {
		t.Error("figure programs must span the three bands")
	}
}

func TestTable1LHENeverExceedsOne(t *testing.T) {
	res, err := ctx().Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for i, v := range row.LHE {
			if v > 1.0+1e-9 {
				t.Errorf("%s w=%d: LHE %.4f > 1", row.Name, res.Windows[i], v)
			}
		}
		if row.Unlimited > 1.0+1e-9 {
			t.Errorf("%s unlimited: LHE %.4f > 1", row.Name, row.Unlimited)
		}
	}
}

func TestTable1DipAndRecovery(t *testing.T) {
	res, err := ctx().Table1()
	if err != nil {
		t.Fatal(err)
	}
	dips := 0
	for _, row := range res.Rows {
		// A dip: LHE falls at some point before recovering (paper §5:
		// "increasing the window size causes a reduction in the LHE").
		for i := 1; i < len(row.LHE); i++ {
			if row.LHE[i] < row.LHE[i-1]-1e-9 {
				dips++
				break
			}
		}
		// Recovery: the largest finite window beats the smallest.
		last, first := row.LHE[len(row.LHE)-1], row.LHE[0]
		if last < first-0.05 {
			t.Errorf("%s: LHE did not recover: w=%d %.3f vs w=%d %.3f",
				row.Name, res.Windows[len(res.Windows)-1], last, res.Windows[0], first)
		}
	}
	if dips < 3 {
		t.Errorf("expected a dip in at least 3 programs, found %d", dips)
	}
}

func TestTable1FiniteWindowsDoNotReachUnlimited(t *testing.T) {
	res, err := ctx().Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper §5: "even with large window sizes we do not approach the LHE
	// of an DM with unlimited resources". This holds for the programs
	// whose spines need very deep run-ahead: FLO52Q and the moderate band.
	for _, row := range res.Rows {
		if row.Name == "TRFD" || row.Name == "ADM" || row.Name == "TRACK" {
			continue
		}
		last := row.LHE[len(row.LHE)-1]
		if row.Unlimited < last+0.10 {
			t.Errorf("%s: LHE(w=128)=%.3f approaches unlimited %.3f", row.Name, last, row.Unlimited)
		}
	}
}

func figureFor(t *testing.T, name string) *FigureResult {
	t.Helper()
	f, err := ctx().Figure(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("%s: want 4 curves, got %d", name, len(f.Series))
	}
	return f
}

func TestFiguresMonotoneInWindow(t *testing.T) {
	// Oldest-first issue is a greedy list schedule, so a larger window can
	// produce small scheduling anomalies (Graham); the curves must still
	// rise apart from dips of a few percent.
	const slack = 0.96
	for _, name := range workloads.FigureNames() {
		f := figureFor(t, name)
		for _, s := range f.Series {
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < slack*s.Y[i-1] {
					t.Errorf("%s %s: speedup fell from %.2f to %.2f at window %.0f",
						name, s.Name, s.Y[i-1], s.Y[i], s.X[i])
				}
			}
			if s.Y[len(s.Y)-1] < s.Y[0] {
				t.Errorf("%s %s: no overall improvement across the sweep", name, s.Name)
			}
		}
	}
}

func TestFiguresNoCrossoverAtMD60(t *testing.T) {
	// Paper §5: "once MD reaches 60 cycles there is no cutoff point when
	// the SWSM performs better than the DM" across the figures' window
	// range.
	for _, name := range workloads.FigureNames() {
		f := figureFor(t, name)
		dm, sw := f.Series[2], f.Series[3]
		for i := range dm.Y {
			if sw.Y[i] >= dm.Y[i] {
				t.Errorf("%s: SWSM (%.2f) caught DM (%.2f) at window %.0f, MD=60",
					name, sw.Y[i], dm.Y[i], dm.X[i])
			}
		}
	}
}

func TestFiguresCrossoverAtMD0(t *testing.T) {
	// Paper §5: at MD=0 the DM wins at small windows; every program has a
	// cutoff within the figure range where the SWSM takes over.
	for _, name := range workloads.FigureNames() {
		f := figureFor(t, name)
		dm, sw := f.Series[0], f.Series[1]
		if sw.Y[0] >= dm.Y[0] {
			t.Errorf("%s: SWSM should lose at the smallest window at MD=0 (%.2f vs %.2f)",
				name, sw.Y[0], dm.Y[0])
		}
		last := len(dm.Y) - 1
		if sw.Y[last] < dm.Y[last] {
			t.Errorf("%s: SWSM should win by window %.0f at MD=0 (%.2f vs %.2f)",
				name, dm.X[last], sw.Y[last], dm.Y[last])
		}
	}
}

func TestFiguresDiminishingReturns(t *testing.T) {
	// Paper §5: "the graphs show the law of diminishing returns for
	// increasing window size".
	for _, name := range workloads.FigureNames() {
		f := figureFor(t, name)
		dm60 := f.Series[2]
		n := len(dm60.Y)
		mid := n / 2
		early := (dm60.Y[mid] - dm60.Y[0]) / (dm60.X[mid] - dm60.X[0])
		late := (dm60.Y[n-1] - dm60.Y[mid]) / (dm60.X[n-1] - dm60.X[mid])
		if late >= early {
			t.Errorf("%s: no diminishing returns (early slope %.3f, late %.3f)", name, early, late)
		}
	}
}

func TestFigureGapOrdering(t *testing.T) {
	// Paper §5: the MD=60 gap is large for the highly parallel FLO52Q and
	// smallest for the serial TRACK.
	gapAtEnd := func(name string) float64 {
		f := figureFor(t, name)
		n := len(f.Series[2].Y) - 1
		return f.Series[2].Y[n] / f.Series[3].Y[n]
	}
	flo, track := gapAtEnd("FLO52Q"), gapAtEnd("TRACK")
	mdg := gapAtEnd("MDG")
	if track >= flo {
		t.Errorf("TRACK gap %.2f should be below FLO52Q gap %.2f", track, flo)
	}
	if track >= mdg {
		t.Errorf("TRACK gap %.2f should be the smallest (MDG %.2f)", track, mdg)
	}
}

func TestRatioFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalent-window searches are slow")
	}
	for _, name := range workloads.FigureNames() {
		res, err := ctx().RatioFigure(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != len(RatioMDs) {
			t.Fatalf("%s: want %d curves", name, len(RatioMDs))
		}
		md0, md60 := res.Series[0], res.Series[len(res.Series)-1]
		if len(md0.Y) != len(RatioWindows) || len(md60.Y) != len(RatioWindows) {
			t.Fatalf("%s: saturated searches at md extremes: %v", name, res.Saturated)
		}
		// FLO52Q — the paper's showcase for decoupled prefetching — runs
		// above the generic plotted band under ROB slot accounting: its
		// equivalent window is pinned at the DM's bandwidth-delay product
		// (saturated issue rate x MD, ~445 slots) until the DM itself
		// saturates, so mid-window ratios exceed the 2-4x band. The
		// plateau itself is asserted below and quantified in
		// EXPERIMENTS.md ("Figures 7-9").
		plotCap := 8.0
		if name == "FLO52Q" {
			plotCap = 12.0
		}
		for i := range md60.Y {
			// Ratios stay in the plotted band.
			if md60.Y[i] < 1.0 || md60.Y[i] > plotCap {
				t.Errorf("%s: md=60 ratio %.2f at window %.0f outside [1, %.0f]", name, md60.Y[i], md60.X[i], plotCap)
			}
			// Paper §5: the ratio grows with the memory latency.
			if md60.Y[i] < md0.Y[i] {
				t.Errorf("%s: md=60 ratio %.2f below md=0 ratio %.2f at window %.0f",
					name, md60.Y[i], md0.Y[i], md60.X[i])
			}
		}
		// Paper §5: as the DM window grows the ratio falls.
		n := len(md60.Y)
		meanLo := mean(md60.Y[:n/2])
		meanHi := mean(md60.Y[n/2:])
		if meanHi >= meanLo {
			t.Errorf("%s: md=60 ratio does not fall with window size (%.2f -> %.2f)", name, meanLo, meanHi)
		}
		// Paper §6: for a realistic window and MD=60, the SWSM needs a
		// window roughly 2x-4x larger. FLO52Q asserts the band at the
		// 100-slot end of the plotted range plus the bandwidth-delay
		// plateau behind its elevated mid-window points (eq flat within
		// 25% of the 100-slot value from 40 slots on).
		eq100 := md60.Y[n-1] * md60.X[n-1]
		for i, w := range RatioWindows {
			switch {
			case name == "FLO52Q" && w >= 40:
				eq := md60.Y[i] * md60.X[i]
				if eq < 0.75*eq100 || eq > 1.25*eq100 {
					t.Errorf("FLO52Q: equivalent window %.0f at window %d off the %.0f-slot bandwidth-delay plateau",
						eq, w, eq100)
				}
			case name != "FLO52Q" && w >= 30:
				if md60.Y[i] < 1.4 || md60.Y[i] > 5.0 {
					t.Errorf("%s: md=60 ratio at window %d = %.2f outside the 2-4x band (slack [1.4, 5])",
						name, w, md60.Y[i])
				}
			}
		}
		if name == "FLO52Q" {
			if last := md60.Y[n-1]; last < 1.4 || last > 5.0 {
				t.Errorf("FLO52Q: md=60 ratio at window 100 = %.2f outside the 2-4x band (slack [1.4, 5])", last)
			}
		}
	}
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func TestCutoffsExistForAllPrograms(t *testing.T) {
	res, err := ctx().Cutoffs()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Found {
			t.Errorf("%s: no MD=0 cutoff found", row.Name)
			continue
		}
		if row.Window < 8 || row.Window > 128 {
			t.Errorf("%s: cutoff %d outside tens-of-instructions range", row.Name, row.Window)
		}
	}
}

func TestBigWindows(t *testing.T) {
	res, err := ctx().BigWindow()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		ratio := float64(row.DMCycles) / float64(row.SWCycles)
		// Paper: at MD=60 the DM stays ahead even at 1000-slot windows.
		// Under the in-order (ROB) slot accounting this holds for FLO52Q
		// and MDG at every probed window, and for TRACK at 256. TRACK's
		// 512/1000-slot points carry a pinned structural residual: both
		// machines are dataflow-bound there and the DM's bound is worse —
		// loss-of-decoupling copies sit on the serial recurrence — so no
		// window accounting can restore the paper's ordering (quantified
		// in EXPERIMENTS.md §C2).
		if row.Name == "TRACK" && row.Window >= 512 {
			if ratio > 1.07 {
				t.Errorf("TRACK w=%d: DM/SWSM = %.3f exceeds the pinned 1.07 residual", row.Window, ratio)
			}
			continue
		}
		if row.DMCycles > row.SWCycles {
			t.Errorf("%s w=%d: DM %d behind SWSM %d (DM/SWSM = %.3f > 1)",
				row.Name, row.Window, row.DMCycles, row.SWCycles, ratio)
		}
	}
}

func TestESWExceedsSummedWindows(t *testing.T) {
	res, err := ctx().ESWStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Paper §4: the effective single window exceeds the sum of the
		// two units' windows.
		if row.MaxESW <= int64(2*row.Window) {
			t.Errorf("%s w=%d md=%d: max ESW %d does not exceed summed windows %d",
				row.Name, row.Window, row.MD, row.MaxESW, 2*row.Window)
		}
		if row.MaxSlip <= 0 {
			t.Errorf("%s w=%d md=%d: no positive slippage", row.Name, row.Window, row.MD)
		}
	}
	// Paper §5: slippage grows as latency grows. The comparison runs
	// md30 -> md60 (with slack where the queue bound saturates early):
	// at md10 a small-window AU whose self-load stalls amortize can
	// free-run the whole program ahead (FLO52Q at w=16 slips the entire
	// trace), which measures buffer idealization, not latency-driven
	// slippage; by md30 the AU's own receives anchor it to the window.
	byKey := map[[2]interface{}]map[int]int64{}
	for _, row := range res.Rows {
		k := [2]interface{}{row.Name, row.Window}
		if byKey[k] == nil {
			byKey[k] = map[int]int64{}
		}
		byKey[k][row.MD] = row.MaxESW
	}
	for k, m := range byKey { //daelint:nondeterministic-ok order-free per-key assertions; failures print their own key
		if float64(m[60]) < 0.85*float64(m[30]) {
			t.Errorf("%v: max ESW shrank with latency: md30=%d md60=%d", k, m[30], m[60])
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	abls, err := ctx().Ablations()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*AblationResult{}
	for _, a := range abls {
		byID[a.ID] = a
	}
	if len(byID) != 5 {
		t.Fatalf("want 5 ablations, got %d", len(byID))
	}

	// A2: copy latency hurts TRACK (copies on the critical path), not
	// FLO52Q (no copies).
	var trackFirst, trackLast, floFirst, floLast int64
	for _, p := range byID["A2"].Points {
		switch {
		case p.Workload == "TRACK" && p.Label == "copy=1":
			trackFirst = p.Cycles
		case p.Workload == "TRACK" && p.Label == "copy=8":
			trackLast = p.Cycles
		case p.Workload == "FLO52Q" && p.Label == "copy=1":
			floFirst = p.Cycles
		case p.Workload == "FLO52Q" && p.Label == "copy=8":
			floLast = p.Cycles
		}
	}
	if trackLast <= trackFirst {
		t.Errorf("A2: TRACK insensitive to copy latency (%d -> %d)", trackFirst, trackLast)
	}
	if float64(floLast) > 1.02*float64(floFirst) {
		t.Errorf("A2: FLO52Q too sensitive to copy latency (%d -> %d)", floFirst, floLast)
	}

	// A3: holding send slots destroys decoupling.
	for _, name := range []string{"FLO52Q", "MDG", "TRACK"} {
		var fire, hold int64
		for _, p := range byID["A3"].Points {
			if p.Workload != name {
				continue
			}
			if p.Label == "fire-and-forget" {
				fire = p.Cycles
			} else {
				hold = p.Cycles
			}
		}
		// TRACK is critical-path bound, so window pressure (and hence
		// slot-held sends) may cost it nothing; the others must suffer.
		// Greedy list scheduling admits sub-percent Graham anomalies
		// (DESIGN.md §3), so "never faster" carries a 1% tolerance.
		if float64(hold) < 0.99*float64(fire) {
			t.Errorf("A3 %s: slot-held sends should never be faster (%d vs %d)", name, hold, fire)
		}
		if name != "TRACK" && hold <= fire {
			t.Errorf("A3 %s: slot-held sends should be slower (%d vs %d)", name, hold, fire)
		}
		if name == "FLO52Q" && float64(hold) < 1.5*float64(fire) {
			t.Errorf("A3 FLO52Q: expected a large penalty, got %d vs %d", hold, fire)
		}
	}

	// A4: more queue capacity never hurts.
	for _, name := range []string{"FLO52Q", "MDG", "TRACK"} {
		var prev int64 = -1
		for _, p := range byID["A4"].Points {
			if p.Workload != name {
				continue
			}
			if prev >= 0 && p.Cycles > prev {
				t.Errorf("A4 %s: cycles rose with more capacity (%s: %d > %d)", name, p.Label, p.Cycles, prev)
			}
			prev = p.Cycles
		}
	}

	// A5: the bypass buffer never hurts and helps somewhere.
	helped := false
	base := map[string]int64{}
	for _, p := range byID["A5"].Points {
		if p.Label == "none" {
			base[p.Workload] = p.Cycles
		}
	}
	for _, p := range byID["A5"].Points {
		if p.Label == "none" {
			continue
		}
		if float64(p.Cycles) > 1.01*float64(base[p.Workload]) {
			t.Errorf("A5 %s %s: bypass hurt (%d vs %d)", p.Workload, p.Label, p.Cycles, base[p.Workload])
		}
		if float64(p.Cycles) < 0.95*float64(base[p.Workload]) {
			helped = true
		}
	}
	if !helped {
		t.Error("A5: bypass buffer never helped")
	}

	// A1: the paper's 4/5 split is competitive: within 50% of each
	// program's best split (programs with AU-heavy mixes, like FLO52Q's
	// mapped-coordinate arithmetic, prefer a wider AU).
	best := map[string]int64{}
	chosen := map[string]int64{}
	for _, p := range byID["A1"].Points {
		if best[p.Workload] == 0 || p.Cycles < best[p.Workload] {
			best[p.Workload] = p.Cycles
		}
		if p.Label == "AU=4/DU=5" {
			chosen[p.Workload] = p.Cycles
		}
	}
	for name, c := range chosen { //daelint:nondeterministic-ok order-free per-workload assertions; failures print their own name
		if float64(c) > 1.5*float64(best[name]) {
			t.Errorf("A1 %s: 4/5 split %d not competitive with best %d", name, c, best[name])
		}
	}
}

// TestWriteAll renders every artifact and checks its SHA-256 against
// testdata/artifacts.sha256, so a change that moves one figure value
// fails here and names the artifact. A deliberate change is recorded
// with
//
//	go test ./internal/experiments -run TestWriteAll -update
//
// after an engine.Version bump, or after adding a "# reason:" line to
// the file's header.
func TestWriteAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration is slow")
	}
	dir := t.TempDir()
	files, err := ctx().WriteAll(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 table + 3 figures x2 files + 3 ratio figures x2 + cutoffs +
	// bigwindow + esw + ablations + expansion + policies + retire +
	// cache + complexity.
	if len(files) != 22 {
		t.Errorf("want 22 artifact files, got %d", len(files))
	}
	got := artifactDigests(t, files)
	text, err := os.ReadFile(digestPath)
	if err != nil && !(*updateDigests && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	want, err := parseDigests(string(text))
	if *updateDigests {
		next, err := updatedDigests(want, got, engine.Version)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(next.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", digestPath, err)
	}
	if want.version != engine.Version {
		t.Errorf("%s was taken at %s, the engine is %s; re-run with -update", digestPath, want.version, engine.Version)
	}
	if changed := changedArtifacts(want.sums, got); len(changed) > 0 {
		t.Errorf("artifacts differ from %s: %s", digestPath, strings.Join(changed, ", "))
	}
}

// figure7Sims is the number of simulations a fresh Context runs to
// render Figure 7: the distinct probes of its 70 equivalent-window
// searches, each simulated once whatever the parallelism. A local search
// runs each probe wave in order and stops at the first probe that meets
// its target, so the count is a pure function of the search inputs.
// Re-pin it only together with a deliberate engine.Version bump (a
// model change moves the probe results and with them the probe set);
// any other change to it means the search now simulates probes it never
// reads, or skips probes it should.
const figure7Sims = 535

// TestRatioFigureSimCount pins Figure 7's simulation count and its
// values across Context.Parallelism.
func TestRatioFigureSimCount(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalent-window searches are slow")
	}
	var want *RatioResult
	for _, par := range []int{1, 4} {
		c := NewContext()
		c.Parallelism = par
		res, err := c.RatioFigure("FLO52Q")
		if err != nil {
			t.Fatal(err)
		}
		if sims := c.CacheStats().Sims; sims != figure7Sims {
			t.Errorf("par=%d: Figure 7 ran %d simulations, want %d", par, sims, figure7Sims)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Series, want.Series) || !reflect.DeepEqual(res.Saturated, want.Saturated) {
			t.Errorf("par=%d: Figure 7 differs from par=1's", par)
		}
	}
}

// TestRemoteWithoutRemoteBatchFails: Remote is no longer a routing
// hook, so a Context wired with only the point-wise shape must refuse
// to build runners — naming RemoteBatch — instead of silently
// simulating locally; with RemoteBatch set as well, every RunWith miss
// travels through RemoteBatch and Remote is never called.
func TestRemoteWithoutRemoteBatchFails(t *testing.T) {
	pointwise := func(string, int, string, sweep.Point) (*engine.Result, error) {
		t.Error("Context.Remote must never be called")
		return nil, errors.New("unreachable")
	}
	c := NewContext()
	c.Remote = pointwise
	if _, err := c.Runner("TRFD"); err == nil || !strings.Contains(err.Error(), "RemoteBatch") {
		t.Fatalf("Runner with only Remote set: err = %v, want an error naming RemoteBatch", err)
	}

	local := NewContext()
	exec, err := local.Runner("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	c.RemoteBatch = func(_ string, _ int, _ string, pts []sweep.Point) ([]*engine.Result, error) {
		return exec.RunBatch(pts)
	}
	r, err := c.Runner("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 60}}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.RemoteHits != 1 || st.Sims != 0 {
		t.Errorf("a RunWith miss should travel through RemoteBatch: %+v", st)
	}
}
