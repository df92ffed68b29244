package engine

import (
	"math/rand"
	"sync"
	"testing"

	"daesim/internal/isa"
)

// isCompiled reports whether p's SoA slabs have been built. Only for
// single-goroutine use: it reads a slab header without going through
// the program's sync.Once.
func isCompiled(p *Program) bool { return p.nDeps != nil }

// TestNewProgramDefersCompile pins the split between validation and
// compilation: NewProgram allocates only the Program header, readers of
// Ops (Len, KindCounts, the reference oracle) leave the program
// uncompiled, and the first Run, Stream or DataflowTime compiles it.
func TestNewProgramDefersCompile(t *testing.T) {
	ops := twoUnitProgram(200).Ops
	if !raceEnabled {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewProgram("deferred", ops, 2, 400); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("NewProgram allocates %.0f objects, want <= 2 (no slabs before the first run)", allocs)
		}
	}

	cfg := Config{Timing: tm(60), Cores: []isa.CoreConfig{{Window: 16, IssueWidth: 4}, {Window: 16, IssueWidth: 5}}}
	p := MustProgram("deferred", ops, 2, 400)
	if p.Len() != len(ops) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(ops))
	}
	if c := p.KindCounts(); c[isa.OpLoadSend] != 200 {
		t.Fatalf("kind counts wrong: %v", c)
	}
	want, err := ReferenceRun(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if isCompiled(p) {
		t.Fatal("Len, KindCounts or ReferenceRun compiled the program")
	}
	got, err := NewSim().Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !isCompiled(p) {
		t.Fatal("program not compiled after its first Run")
	}
	if !resultsEqual(got, want) {
		t.Fatalf("first run differs from the reference:\n engine:    %+v\n reference: %+v", got, want)
	}

	for _, first := range []struct {
		name string
		call func(*Program)
	}{
		{"Stream", func(p *Program) { p.Stream(isa.AU) }},
		{"DataflowTime", func(p *Program) { p.DataflowTime(tm(60)) }},
	} {
		p := MustProgram("deferred", ops, 2, 400)
		first.call(p)
		if !isCompiled(p) {
			t.Errorf("program not compiled after %s", first.name)
		}
	}
}

// TestConcurrentFirstRun starts several Sims on one freshly built,
// uncompiled program at once: every first caller must wait on the one
// compilation and see complete slabs. Each Result must deep-equal a
// serial run of the same configuration on a separately built program.
// Run it under -race to check the compile's happens-before edge.
func TestConcurrentFirstRun(t *testing.T) {
	const workers = 8
	for seed := int64(1); seed <= 5; seed++ {
		units := 1 + int(seed)%2
		shared := randomProgram(rand.New(rand.NewSource(seed)), 400, units)
		serial := randomProgram(rand.New(rand.NewSource(seed)), 400, units)
		// Each worker draws its own config (and memory model) from its
		// own seed, so the serial replay gets an identical fresh copy.
		config := func(w int) Config {
			return randomConfig(rand.New(rand.NewSource(seed*100+int64(w))), units)
		}

		got := make([]*Result, workers)
		errs := make([]error, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sim, cfg := NewSim(), config(w)
				<-start
				got[w], errs[w] = sim.Run(shared, cfg)
			}(w)
		}
		close(start)
		wg.Wait()

		for w := 0; w < workers; w++ {
			want, err := NewSim().Run(serial, config(w))
			if err != nil || errs[w] != nil {
				t.Fatalf("seed %d worker %d: errors %v / %v", seed, w, errs[w], err)
			}
			if !resultsEqual(got[w], want) {
				t.Fatalf("seed %d worker %d: concurrent first run differs from a serial run:\n concurrent: %+v\n serial:     %+v", seed, w, got[w], want)
			}
		}
	}
}
