package machine

import (
	"runtime"
	"testing"

	"daesim/internal/partition"
	"daesim/internal/workloads"
)

// goldenFingerprints pins Suite.Fingerprint for every catalog workload
// and one generated workload at scale 1 under the Classic policy. The
// fingerprint is the persistent store's workload identity, so a change
// here orphans every cached Result: only a deliberate change to a
// workload model, the partitioner or a lowering may update these values,
// never a change to how suites are built or hashed.
var goldenFingerprints = []struct{ name, fp string }{
	{"TRFD", "d39d6c8eabefb13843668b60b78e0c0a391d30ec132e24ab5a1b615760ebcbe0"},
	{"ADM", "56e620ffe055716da405211a33f226cde2afcbd998b8e3ca40aa9a37f92ad2f1"},
	{"FLO52Q", "3e7ef41da9daf72dd3eebdffd6fb7d7a7957d3e5ec4fa934b9563e03335dbc05"},
	{"DYFESM", "e1455457bf43c4a4ae05ce2dee98f18c374dc901a08c10c93079b1487410a29f"},
	{"QCD", "fee9c6a87ffa0a410f16418499207eb4445edcbd7a9da1e6e60b2afeb27996a2"},
	{"MDG", "17cc59a3b947013c56447fd213a7f96cd15628143d113304a2beaba378afa179"},
	{"TRACK", "1b713de8a31d697663e790ddf5570ed9c26a2d7befb30e265d78bbeac5073448"},
	{"spec:seed=7", "df994c6e7618182f909be946121884d3eba2d72b0d6710dd43ca3627b5a5c695"},
}

func TestGoldenFingerprints(t *testing.T) {
	names := map[string]bool{}
	for _, g := range goldenFingerprints {
		names[g.name] = true
	}
	for _, n := range workloads.Names() {
		if !names[n] {
			t.Errorf("catalog workload %s has no golden fingerprint", n)
		}
	}
	for _, g := range goldenFingerprints {
		tr, err := workloads.Build(g.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSuite(tr, partition.Classic)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Fingerprint(); got != g.fp {
			t.Errorf("%s: fingerprint %s, want %s", g.name, got, g.fp)
		}
	}
}

// suiteAllocBudget bounds the allocations of building one workload's
// trace and suite. It is a constant, not a per-instruction rate: trace
// storage, operand lists and lowered sources all come from shared slabs,
// so the count grows with the number of slab chunks, not with the
// number of instructions (about 100 for TRFD at scale 1).
const suiteAllocBudget = 1000

// suiteByteBudget bounds the bytes allocated building MDG's trace and
// suite and fingerprinting it — the whole cost of a warm cache hit
// before any Result is read. The engine compiles its simulator slabs on
// a program's first run, not at lowering, so none of them are in here.
const suiteByteBudget = 8 << 20

func TestSuiteConstructionAllocBudget(t *testing.T) {
	for _, name := range []string{"MDG", "TRFD", "spec:seed=7"} {
		allocs := testing.AllocsPerRun(2, func() {
			tr, err := workloads.Build(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewSuite(tr, partition.Classic); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > suiteAllocBudget {
			t.Errorf("%s: building the trace and suite took %.0f allocations, budget %d", name, allocs, suiteAllocBudget)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := workloads.Build("MDG", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSuite(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	s.Fingerprint()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > suiteByteBudget {
		t.Errorf("MDG: building, lowering and fingerprinting allocated %.2f MB, budget %.0f MB", float64(b)/(1<<20), float64(suiteByteBudget)/(1<<20))
	}
}
