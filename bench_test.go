package daesim_test

// Benchmark harness: one benchmark per paper artifact (Table 1, Figures
// 4-9) plus engine microbenchmarks. Each artifact benchmark regenerates
// the table or figure end to end (workload construction, lowering,
// simulation sweep) and reports the artifact's headline number as a
// custom metric, so `go test -bench=.` both times the harness and prints
// the reproduced result.

import (
	"sync"
	"testing"

	"daesim"
	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
)

// benchSuite caches lowered programs for the microbenchmarks only; the
// artifact benchmarks rebuild everything per iteration on purpose.
var (
	benchOnce  sync.Once
	benchFLO   *daesim.Suite
	benchTRACK *daesim.Suite
)

func suites(b *testing.B) (*daesim.Suite, *daesim.Suite) {
	b.Helper()
	benchOnce.Do(func() {
		for _, s := range []struct {
			name string
			dst  **daesim.Suite
		}{{"FLO52Q", &benchFLO}, {"TRACK", &benchTRACK}} {
			tr, err := daesim.Workload(s.name, 1)
			if err != nil {
				panic(err)
			}
			suite, err := daesim.NewSuite(tr, daesim.Classic)
			if err != nil {
				panic(err)
			}
			*s.dst = suite
		}
	})
	return benchFLO, benchTRACK
}

// BenchmarkEngineDM measures raw simulation throughput of the decoupled
// machine at the paper's headline operating point (pool-backed scratch).
func BenchmarkEngineDM(b *testing.B) {
	flo, _ := suites(b)
	ops := float64(flo.DM.Program.Len())
	if _, err := flo.RunDM(daesim.Params{Window: 64, MD: 60}); err != nil {
		b.Fatal(err) // compile the program so its one-time build isn't timed
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flo.RunDM(daesim.Params{Window: 64, MD: 60})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkEngineSWSM measures raw simulation throughput of the
// superscalar machine (pool-backed scratch).
func BenchmarkEngineSWSM(b *testing.B) {
	flo, _ := suites(b)
	ops := float64(flo.SWSM.Len())
	if _, err := flo.RunSWSM(daesim.Params{Window: 64, MD: 60}); err != nil {
		b.Fatal(err) // compile the program so its one-time build isn't timed
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flo.RunSWSM(daesim.Params{Window: 64, MD: 60}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkEngineDMScratch is BenchmarkEngineDM on a caller-held Sim,
// the pattern sweep workers use: no pool round-trip, scratch stays warm
// for the goroutine's whole lifetime.
func BenchmarkEngineDMScratch(b *testing.B) {
	flo, _ := suites(b)
	ops := float64(flo.DM.Program.Len())
	sim := daesim.NewSim()
	if _, err := flo.RunDMWith(sim, daesim.Params{Window: 64, MD: 60}); err != nil {
		b.Fatal(err) // warm the scratch so growth isn't timed
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flo.RunDMWith(sim, daesim.Params{Window: 64, MD: 60}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkEngineSWSMScratch is BenchmarkEngineSWSM on a caller-held Sim.
func BenchmarkEngineSWSMScratch(b *testing.B) {
	flo, _ := suites(b)
	ops := float64(flo.SWSM.Len())
	sim := daesim.NewSim()
	if _, err := flo.RunSWSMWith(sim, daesim.Params{Window: 64, MD: 60}); err != nil {
		b.Fatal(err) // warm the scratch so growth isn't timed
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flo.RunSWSMWith(sim, daesim.Params{Window: 64, MD: 60}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkFirstRun measures a program's first simulation: a fresh
// engine.Program over FLO52Q's decoupled-machine ops, compiled by its
// one Run. Lowering does not build the simulator's slabs, so this is
// where that cost is tracked. The Sim is warm, so scratch growth isn't
// timed.
func BenchmarkFirstRun(b *testing.B) {
	flo, _ := suites(b)
	dm := flo.DM.Program
	cfg, err := daesim.Params{Window: 64, MD: 60}.Config(machine.DM)
	if err != nil {
		b.Fatal(err)
	}
	sim := daesim.NewSim()
	if _, err := sim.Run(dm, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := engine.NewProgram(dm.Name, dm.Ops, dm.NumUnits, dm.TraceLen)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowering measures trace construction and machine lowering.
func BenchmarkLowering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := daesim.Workload("MDG", 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := daesim.NewSuite(tr, daesim.Classic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint measures hashing one pre-built TRFD suite's
// lowered programs. Each iteration wraps the same programs in a fresh
// Suite, whose fingerprint memo starts empty, so the hash is recomputed
// rather than read back.
func BenchmarkFingerprint(b *testing.B) {
	tr, err := daesim.Workload("TRFD", 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := daesim.NewSuite(tr, daesim.Classic)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &daesim.Suite{Trace: s.Trace, DM: s.DM, SWSM: s.SWSM}
		benchFingerprint = fresh.Fingerprint()
	}
}

var benchFingerprint string

// BenchmarkTable1 regenerates Table 1 (DM latency-hiding effectiveness
// for the seven programs, MD=60) and reports TRACK's unlimited-window
// LHE, the poorly-effective band's headline value.
func BenchmarkTable1(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		res, err := ctx.Table1()
		if err != nil {
			b.Fatal(err)
		}
		last = res.Rows[len(res.Rows)-1].Unlimited
	}
	b.ReportMetric(last, "LHE(TRACK,inf)")
}

func benchFigure(b *testing.B, workload string) {
	var gap float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		res, err := ctx.Figure(workload)
		if err != nil {
			b.Fatal(err)
		}
		n := len(res.Series[2].Y) - 1
		gap = res.Series[2].Y[n] / res.Series[3].Y[n]
	}
	b.ReportMetric(gap, "DM/SWSM@w100,md60")
}

// BenchmarkFigure4 regenerates Figure 4 (FLO52Q speedup vs window) and
// reports the DM/SWSM speedup gap at window 100, MD=60.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "FLO52Q") }

// BenchmarkFigure5 regenerates Figure 5 (MDG speedup vs window).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "MDG") }

// BenchmarkFigure6 regenerates Figure 6 (TRACK speedup vs window).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "TRACK") }

func benchRatioFigure(b *testing.B, workload string) {
	var ratio float64
	var sims int64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		res, err := ctx.RatioFigure(workload)
		if err != nil {
			b.Fatal(err)
		}
		sims += ctx.CacheStats().Sims
		md60 := res.Series[len(res.Series)-1]
		// Ratio at the realistic DM window of 60 slots.
		for j, x := range md60.X {
			if x == 60 {
				ratio = md60.Y[j]
			}
		}
	}
	b.ReportMetric(ratio, "ratio@w60,md60")
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkFigure7 regenerates Figure 7 (FLO52Q equivalent window ratio)
// and reports the MD=60 ratio at a 60-slot DM window and the
// simulations the figure ran.
func BenchmarkFigure7(b *testing.B) { benchRatioFigure(b, "FLO52Q") }

// BenchmarkFigure8 regenerates Figure 8 (MDG equivalent window ratio).
func BenchmarkFigure8(b *testing.B) { benchRatioFigure(b, "MDG") }

// BenchmarkFigure9 regenerates Figure 9 (TRACK equivalent window ratio).
func BenchmarkFigure9(b *testing.B) { benchRatioFigure(b, "TRACK") }

// BenchmarkAblationSplit regenerates the A1 issue-width-split ablation
// point grid for TRACK.
func BenchmarkAblationSplit(b *testing.B) {
	_, track := suites(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, split := range [][2]int{{2, 7}, {4, 5}, {6, 3}} {
			if _, err := track.RunDM(daesim.Params{Window: 64, MD: 60, AUWidth: split[0], DUWidth: split[1]}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEquivalentWindowSearch measures one Figure 7-9 search step:
// finding the SWSM window matching a DM configuration. A fresh Runner
// per iteration keeps the measurement honest: nothing is memoized across
// iterations, so the number reflects a full cold search. sims/op is the
// number of probes the search simulated.
func BenchmarkEquivalentWindowSearch(b *testing.B) {
	flo, _ := suites(b)
	var sims int64
	for i := 0; i < b.N; i++ {
		r := daesim.NewRunner(flo)
		if _, _, err := daesim.EquivalentWindowRatio(r, daesim.Params{Window: 50, MD: 60}); err != nil {
			b.Fatal(err)
		}
		sims += r.Stats().Sims
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}
