package kernel

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
	"daesim/internal/trace"
)

func TestConstVal(t *testing.T) {
	if Const.Valid() {
		t.Fatal("Const must be invalid")
	}
	if Const.Index() != trace.None {
		t.Fatalf("Const.Index() = %d, want None", Const.Index())
	}
}

func TestArrayAddressing(t *testing.T) {
	b := New("t")
	a := b.Array("a", 10, 8)
	c := b.Array("c", 4, 8)
	if a.At(1)-a.At(0) != 8 {
		t.Fatalf("element stride wrong: %d", a.At(1)-a.At(0))
	}
	if a.Name() != "a" {
		t.Fatalf("name wrong: %s", a.Name())
	}
	// Arrays must not overlap and must be line-aligned apart.
	if c.At(0) < a.At(9)+8 {
		t.Fatalf("arrays overlap: c@%#x a-end@%#x", c.At(0), a.At(9)+8)
	}
	if c.At(0)%isa.CacheLineBytes != a.At(0)%isa.CacheLineBytes && c.At(0)%isa.CacheLineBytes != 0 {
		// base region starts at 1<<12, arrays are padded to line boundaries
		t.Fatalf("array base not line aligned: %#x", c.At(0))
	}
	if a.At(0) == 0 {
		t.Fatal("address 0 must not be used")
	}
}

func TestArrayPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("t").Array("bad", 0, 8)
}

func TestEmitBasics(t *testing.T) {
	b := New("t")
	base := b.Int()
	if !base.Valid() {
		t.Fatal("Int should produce a value")
	}
	arr := b.Array("x", 16, 8)
	v := b.Load(arr, 3, base)
	f := b.FP(v, Const)
	b.Store(arr, 4, f, base)
	tr := b.MustTrace()
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Instrs[1].MemAddr != arr.At(3) {
		t.Fatalf("load address wrong: %#x", tr.Instrs[1].MemAddr)
	}
	// FP should depend only on the load (Const dropped).
	if len(tr.Instrs[2].Args) != 1 || tr.Instrs[2].Args[0] != 1 {
		t.Fatalf("fp args wrong: %v", tr.Instrs[2].Args)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConstPanics(t *testing.T) {
	b := New("t")
	arr := b.Array("x", 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Store(arr, 0, Const)
}

func TestChains(t *testing.T) {
	b := New("t")
	seed := b.Int()
	v := b.FPChain(5, seed)
	_ = v
	w := b.IntChain(3, seed)
	_ = w
	tr := b.MustTrace()
	if tr.Len() != 1+5+3 {
		t.Fatalf("len = %d, want 9", tr.Len())
	}
	// The FP chain should be serial: depth of last FP is 5.
	tm := isa.Timing{MD: 0, FPLat: 3, CopyLat: 1}
	// critical path: int(1) + 5*fp(3) = 16
	if cp := tr.CriticalPath(tm); cp != 16 {
		t.Fatalf("critical path = %d, want 16", cp)
	}
}

func TestLoopCarriedValues(t *testing.T) {
	b := New("t")
	arr := b.Array("a", 64, 8)
	carry := b.FP()
	for i := 0; i < 8; i++ {
		x := b.Load(arr, i)
		carry = b.FP(x, carry)
	}
	tr := b.MustTrace()
	// Chain: fp0 -> fp1 -> ... -> fp8 = 9 FP ops serial; loads feed in.
	tm := isa.Timing{MD: 0, FPLat: 3, CopyLat: 1}
	// loads are independent (MD+2=2); chain = 3 + 8*3 = 27; first link also
	// waits for load: max(3, 2) + ... = 27.
	if cp := tr.CriticalPath(tm); cp != 27 {
		t.Fatalf("critical path = %d, want 27", cp)
	}
}

// Property: any program emitted via Builder methods validates.
func TestBuilderAlwaysValid(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New("prop")
		arr := b.Array("a", 256, 8)
		vals := []Val{b.Int()}
		for i := 0; i < int(steps); i++ {
			pick := func() Val { return vals[rng.Intn(len(vals))] }
			switch rng.Intn(4) {
			case 0:
				vals = append(vals, b.Int(pick(), pick()))
			case 1:
				vals = append(vals, b.FP(pick()))
			case 2:
				vals = append(vals, b.Load(arr, rng.Intn(256), pick()))
			case 3:
				b.Store(arr, rng.Intn(256), pick(), pick())
			}
		}
		_, err := b.Trace()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSnapshotGrows(t *testing.T) {
	b := New("grow")
	b.Int()
	t1 := b.MustTrace()
	b.Int()
	t2 := b.MustTrace()
	if t1.Len() != 1 || t2.Len() != 2 {
		t.Fatalf("snapshot lengths: %d then %d", t1.Len(), t2.Len())
	}
}

// TestOperandListsDoNotAlias pins the slab ownership rule: every
// instruction's Args and Addr are read-only views into shared slabs with
// cap == len, so appending to one instruction's operands reallocates
// instead of overwriting its neighbour's.
func TestOperandListsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := New("alias")
	arr := b.Array("a", 256, 8)
	vals := []Val{b.Int()}
	pick := func() Val { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 20000; i++ {
		switch rng.Intn(4) {
		case 0:
			vals = append(vals, b.Int(pick(), pick()))
		case 1:
			vals = append(vals, b.FP(pick(), Const))
		case 2:
			vals = append(vals, b.Load(arr, rng.Intn(256), pick()))
		case 3:
			b.Store(arr, rng.Intn(256), pick(), pick())
		}
	}
	tr := b.MustTrace()
	if cap(tr.Instrs) != len(tr.Instrs) {
		t.Fatalf("trace cap %d != len %d: growth slack stays live", cap(tr.Instrs), len(tr.Instrs))
	}
	ins := tr.Instrs
	type operands struct{ args, addr []int32 }
	want := make([]operands, len(ins))
	for i := range ins {
		if cap(ins[i].Args) != len(ins[i].Args) || cap(ins[i].Addr) != len(ins[i].Addr) {
			t.Fatalf("instr %d: operand cap != len (args %d/%d, addr %d/%d)",
				i, len(ins[i].Args), cap(ins[i].Args), len(ins[i].Addr), cap(ins[i].Addr))
		}
		want[i] = operands{slices.Clone(ins[i].Args), slices.Clone(ins[i].Addr)}
	}
	for i := range ins {
		ins[i].Args = append(ins[i].Args, -7)
		ins[i].Addr = append(ins[i].Addr, -7)
	}
	for i := range ins {
		if got := ins[i].Args[:len(want[i].args)]; !slices.Equal(got, want[i].args) {
			t.Fatalf("instr %d: Args %v after appending to every instruction, want %v", i, got, want[i].args)
		}
		if got := ins[i].Addr[:len(want[i].addr)]; !slices.Equal(got, want[i].addr) {
			t.Fatalf("instr %d: Addr %v after appending to every instruction, want %v", i, got, want[i].addr)
		}
	}
}
