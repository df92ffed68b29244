// Package kernel provides an SSA-style builder for authoring workload
// traces. Kernels are written as plain Go functions: loops are Go loops,
// loop-carried values are Go variables holding Val handles, and the
// builder emits one trace instruction per operation. This realizes the
// paper's idealized environment directly — the emitted trace has perfect
// renaming (SSA) and no loop-closing branches.
//
// Loads and stores carry concrete synthetic addresses derived from Array
// handles, so locality-aware memory models (bypass buffer, finite prefetch
// buffer) see realistic reference streams even though the paper's
// fixed-differential model ignores addresses.
package kernel

import (
	"fmt"

	"daesim/internal/isa"
	"daesim/internal/trace"
)

// Val is a handle to the value produced by an emitted instruction.
// The zero Val is "no value" (a compile-time constant): operations accept
// it and simply omit the dependence edge, modelling immediate operands.
type Val struct {
	idx int32 // trace index + 1, so the zero value means "constant"
}

// Const is the canonical constant/immediate value handle.
var Const = Val{}

// Valid reports whether v refers to an emitted instruction.
func (v Val) Valid() bool { return v.idx != 0 }

// Index returns the trace index of the producing instruction, or
// trace.None for constants.
func (v Val) Index() int32 {
	if v.idx == 0 {
		return trace.None
	}
	return v.idx - 1
}

// Array is a named region of the synthetic address space used to derive
// load/store addresses.
type Array struct {
	name string
	base uint64
	elem uint64
}

// Name returns the array's name.
func (a Array) Name() string { return a.name }

// At returns the byte address of element i.
func (a Array) At(i int) uint64 { return a.base + uint64(i)*a.elem }

// Chunk sizes for the builder's storage. Instructions accumulate in
// chunks that grow geometrically from minInstrChunk to maxInstrChunk, so
// a build never recopies what it already emitted and Trace makes the one
// exact-length copy. Operand lists are carved from shared refChunk-sized
// slabs instead of one small allocation per instruction.
const (
	minInstrChunk = 256
	maxInstrChunk = 8192
	refChunk      = 4096
)

// Builder accumulates a trace. The zero value is not ready for use; call
// New.
type Builder struct {
	name   string
	full   [][]trace.Instr // filled chunks, in program order
	cur    []trace.Instr   // chunk being filled; its cap is the chunk size
	n      int             // instructions emitted
	refs   []int32         // unused tail of the current operand slab
	nextAd uint64
}

// New returns a Builder for a workload with the given name.
func New(name string) *Builder {
	// Leave a low guard region so that address 0 is never a valid element.
	return &Builder{name: name, nextAd: 1 << 12}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return b.n }

// Array reserves an address region for n elements of elemSize bytes.
func (b *Builder) Array(name string, n, elemSize int) Array {
	if n <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("kernel: array %s: non-positive shape %d x %d", name, n, elemSize))
	}
	a := Array{name: name, base: b.nextAd, elem: uint64(elemSize)}
	b.nextAd += uint64(n) * uint64(elemSize)
	// Pad to a line boundary so arrays never share a cache line.
	if rem := b.nextAd % isa.CacheLineBytes; rem != 0 {
		b.nextAd += isa.CacheLineBytes - rem
	}
	return a
}

func (b *Builder) emit(in trace.Instr) Val {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]trace.Instr, 0, min(max(2*cap(b.cur), minInstrChunk), maxInstrChunk))
	}
	b.cur = append(b.cur, in)
	b.n++
	return Val{idx: int32(b.n)}
}

// take carves an n-element operand list from the shared slab. The list's
// cap equals its len, so appending to it reallocates instead of writing
// over the neighbouring instruction's operands.
func (b *Builder) take(n int) []int32 {
	if len(b.refs) < n {
		b.refs = make([]int32, max(n, refChunk))
	}
	out := b.refs[:n:n]
	b.refs = b.refs[n:]
	return out
}

// refsOf returns the producer indices of the non-constant values, or nil
// when every value is a constant.
func (b *Builder) refsOf(vals []Val) []int32 {
	n := 0
	for _, v := range vals {
		if v.Valid() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := b.take(n)
	n = 0
	for _, v := range vals {
		if v.Valid() {
			out[n] = v.Index()
			n++
		}
	}
	return out
}

// Int emits an integer/address operation consuming the given values.
// Constant (zero) operands are dropped; an all-constant Int models loading
// an immediate or a loop-invariant base address.
func (b *Builder) Int(args ...Val) Val {
	return b.emit(trace.Instr{Class: isa.IntALU, Args: b.refsOf(args)})
}

// FP emits a floating-point operation consuming the given values.
func (b *Builder) FP(args ...Val) Val {
	return b.emit(trace.Instr{Class: isa.FPALU, Args: b.refsOf(args)})
}

// IntChain emits a dependent chain of n integer operations seeded by the
// given values, returning the final value. n must be >= 1.
func (b *Builder) IntChain(n int, args ...Val) Val {
	v := b.Int(args...)
	for i := 1; i < n; i++ {
		v = b.Int(v)
	}
	return v
}

// FPChain emits a dependent chain of n floating-point operations seeded by
// the given values, returning the final value. n must be >= 1.
func (b *Builder) FPChain(n int, args ...Val) Val {
	v := b.FP(args...)
	for i := 1; i < n; i++ {
		v = b.FP(v)
	}
	return v
}

// Load emits a load of arr[i] whose address depends on the given values.
func (b *Builder) Load(arr Array, i int, addr ...Val) Val {
	return b.emit(trace.Instr{Class: isa.Load, Addr: b.refsOf(addr), MemAddr: arr.At(i)})
}

// Store emits a store of data to arr[i] whose address depends on the given
// values. Constant data is not meaningful: data must be a real value.
func (b *Builder) Store(arr Array, i int, data Val, addr ...Val) {
	if !data.Valid() {
		panic("kernel: store of constant data")
	}
	args := b.take(1)
	args[0] = data.Index()
	b.emit(trace.Instr{Class: isa.Store, Addr: b.refsOf(addr), Args: args, MemAddr: arr.At(i)})
}

// Trace finalizes the builder, validates the trace and returns it. The
// trace's instruction slice is a fresh exact-length copy, so no growth
// slack stays live with it. The builder can keep being used; later
// Trace calls include the new instructions.
func (b *Builder) Trace() (*trace.Trace, error) {
	instrs := make([]trace.Instr, 0, b.n)
	for _, c := range b.full {
		instrs = append(instrs, c...)
	}
	instrs = append(instrs, b.cur...)
	t := &trace.Trace{Name: b.name, Instrs: instrs}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustTrace is Trace but panics on error; kernels constructed purely with
// Builder methods are valid by construction, so workload code uses this.
func (b *Builder) MustTrace() *trace.Trace {
	t, err := b.Trace()
	if err != nil {
		panic(err)
	}
	return t
}
