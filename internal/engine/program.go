// Package engine simulates out-of-order instruction windows. It executes
// machine programs (streams of unit-bound operations with true-dependence
// and memory-fill edges) under the paper's idealized timing model:
// in-order dispatch into a bounded window, oldest-first issue of up to
// IssueWidth ready operations per cycle per core, fixed operation
// latencies, and memory fills that arrive a configurable number of cycles
// after the address is sent.
package engine

import (
	"fmt"
	"sync"

	"daesim/internal/isa"
)

// NoDep marks an absent dependence reference in an Op.
const NoDep int32 = -1

// Program.flags bits.
const (
	opFlagSend     uint8 = 1 << iota // dispatches an address to memory
	opFlagConsume                    // waits on a memory fill
	opFlagFillCons                   // has fill-edge consumers
)

// Op is one machine operation. Operations appear in a Program in global
// program order; each is bound to one core (unit) and dispatches in order
// within that core's stream.
//
// Op is the authoring format only: a Program's first simulation repacks
// the op stream into structure-of-arrays slabs (see Program) and the
// simulator never touches the Op structs again. Ops stays the program's
// identity — fingerprints, KindCounts, Len and the reference oracle read
// it directly. The lowerings carve every Srcs out of one shared
// slab per program with cap == len: treat Srcs as read-only and copy it
// before appending to or modifying it.
type Op struct {
	// Kind selects latency and memory behaviour.
	Kind isa.OpKind
	// Unit is the core that executes the op.
	Unit isa.Unit
	// MemSrc, for consume ops (LoadRecv/Access), is the matching send op;
	// the edge delay is the memory fill time rather than the producer
	// latency. (Declared before Srcs so it packs next to Kind and Unit.)
	MemSrc int32
	// Srcs are true-dependence producers: this op becomes ready only after
	// each producer completes.
	Srcs []int32
	// Addr is the byte address for memory ops (sends and consumes); used
	// only by locality-aware memory models.
	Addr uint64
	// Orig is the index of the originating trace instruction, used for
	// effective-single-window and slippage measurement.
	Orig int32
}

// Program is an immutable lowered program plus its dependence structure.
// Build one with NewProgram and reuse it across many Run calls.
//
// NewProgram only validates; the op stream is compiled once, on the
// program's first Run, Stream or DataflowTime, so a program that is never
// simulated (a warm cache hit, a lowering nobody runs) never pays for the
// slabs. Compilation is safe under concurrent first runs.
//
// The compiled form repacks the op stream as structure-of-arrays: the hot
// per-op scalars (kind, unit, orig, addr) live in dense parallel arrays,
// and the variable-length adjacency (dependence sources, completion-edge
// and fill-edge consumers, per-unit streams) is CSR-flattened into
// offset+data slab pairs. The simulator's inner loops read only these
// slabs, never the Op structs, so an issue touches a few contiguous
// cache lines instead of striding across 64-byte Op records whose cold
// fields (Srcs headers, MemSrc) pollute the cache.
type Program struct {
	// Name identifies the program (workload + machine lowering).
	Name string
	// Ops is the operation stream in global program order (authoring
	// format; the simulator reads the SoA slabs below instead). It must
	// not change after NewProgram: the slabs are compiled from it on the
	// first run, and validation is not repeated then.
	Ops []Op
	// NumUnits is the number of cores the ops reference (1 or 2).
	NumUnits int
	// TraceLen is the length of the originating trace (for IPC reporting).
	TraceLen int

	// once guards compile; every field below is written only by build.
	once sync.Once

	// SoA scalar slabs, indexed by op.
	kinds []isa.OpKind
	units []uint8
	origs []int32
	addrs []uint64
	// flags packs the per-op predicates the issue loop branches on
	// (send/consume/has-fill-consumers) into one byte.
	flags []uint8

	// CSR slabs: xxxOff has len(ops)+1 entries; the data for op i is
	// xxxDat[xxxOff[i]:xxxOff[i+1]].
	srcOff []int32 // true-dependence producers (Srcs)
	srcDat []int32
	cpOff  []int32 // completion-edge consumers
	cpDat  []int32
	cfOff  []int32 // fill-edge consumers (sends only)
	cfDat  []int32

	memSrcs []int32 // matching send per consume op (NoDep otherwise)
	nDeps   []int32 // static dependence count per op

	// Per-unit op streams, CSR over units; posInStream[i] is op i's
	// position within its unit's stream (the ready-bitmap index).
	streamOff   []int32
	streamDat   []int32
	posInStream []int32
}

// NewProgram validates ops and returns the program. It allocates only
// the Program header: the SoA dependence structure is compiled later, on
// the program's first Run, Stream or DataflowTime (see compile).
func NewProgram(name string, ops []Op, numUnits, traceLen int) (*Program, error) {
	if err := validate(name, ops, numUnits); err != nil {
		return nil, err
	}
	return &Program{Name: name, Ops: ops, NumUnits: numUnits, TraceLen: traceLen}, nil
}

// validate checks that every op has a valid kind and unit, that every
// dependence points strictly backwards, and that exactly the consume ops
// carry a MemSrc naming a send. It reads ops only and allocates nothing
// unless it reports an error.
func validate(name string, ops []Op, numUnits int) error {
	if numUnits < 1 {
		return fmt.Errorf("engine: program %s: numUnits %d < 1", name, numUnits)
	}
	for i := range ops {
		op := &ops[i]
		if !op.Kind.Valid() {
			return fmt.Errorf("engine: program %s: op %d: invalid kind %d", name, i, op.Kind)
		}
		if int(op.Unit) >= numUnits {
			return fmt.Errorf("engine: program %s: op %d: unit %v out of range (%d units)", name, i, op.Unit, numUnits)
		}
		for _, s := range op.Srcs {
			if s < 0 || s >= int32(i) {
				return fmt.Errorf("engine: program %s: op %d: src %d not strictly backwards", name, i, s)
			}
		}
		switch {
		case op.Kind.IsConsume():
			if op.MemSrc < 0 || op.MemSrc >= int32(i) {
				return fmt.Errorf("engine: program %s: op %d: consume without valid MemSrc", name, i)
			}
			if !ops[op.MemSrc].Kind.IsSend() {
				return fmt.Errorf("engine: program %s: op %d: MemSrc %d is %v, not a send", name, i, op.MemSrc, ops[op.MemSrc].Kind)
			}
		case op.MemSrc != NoDep:
			return fmt.Errorf("engine: program %s: op %d: MemSrc on non-consume op %v", name, i, op.Kind)
		}
	}
	return nil
}

// compile builds the SoA dependence structure exactly once. Every reader
// of the slabs (Sim.Run, Stream, DataflowTime) calls it first; concurrent
// first callers wait on the one build, and sync.Once orders its writes
// before every later read. (build is called, not passed as a method
// value, so daelint's versionkey sees it as reachable from Sim.Run.)
func (p *Program) compile() { p.once.Do(func() { p.build() }) }

// build repacks the validated op stream into the SoA slabs.
func (p *Program) build() {
	ops, numUnits := p.Ops, p.NumUnits
	n := len(ops)
	p.kinds = make([]isa.OpKind, n)
	p.units = make([]uint8, n)
	p.flags = make([]uint8, n)
	p.origs = make([]int32, n)
	p.addrs = make([]uint64, n)
	p.memSrcs = make([]int32, n)
	p.nDeps = make([]int32, n)
	p.posInStream = make([]int32, n)
	p.srcOff = make([]int32, n+1)
	p.cpOff = make([]int32, n+1)
	p.cfOff = make([]int32, n+1)
	p.streamOff = make([]int32, numUnits+1)

	// Pass 1: count edges. Consumer counts go two slots right of their
	// producer (a producer always precedes its consumer, so s+2 <= n):
	// the prefix sum then leaves each list's start one slot right, where
	// pass 2 advances it to the list's end — which is the final offset
	// layout, with no separate fill cursors.
	nSrcs := 0
	for i := range ops {
		op := &ops[i]
		for _, s := range op.Srcs {
			p.cpOff[s+2]++
		}
		p.nDeps[i] = int32(len(op.Srcs))
		nSrcs += len(op.Srcs)
		if op.Kind.IsConsume() {
			p.cfOff[op.MemSrc+2]++
			p.nDeps[i]++
		}
		p.streamOff[int(op.Unit)+1]++
	}
	for i := 0; i < n; i++ {
		p.cpOff[i+1] += p.cpOff[i]
		p.cfOff[i+1] += p.cfOff[i]
	}
	for u := 0; u < numUnits; u++ {
		p.streamOff[u+1] += p.streamOff[u]
	}
	p.srcDat = make([]int32, nSrcs)
	p.cpDat = make([]int32, p.cpOff[n])
	p.cfDat = make([]int32, p.cfOff[n])
	p.streamDat = make([]int32, n)

	// Pass 2: fill the slabs. Consumer and stream lists are appended in
	// ascending op order, matching the order the old [][]int32 layout
	// produced.
	streamNext := make([]int32, numUnits)
	copy(streamNext, p.streamOff[:numUnits])
	srcPos := int32(0)
	for i := range ops {
		op := &ops[i]
		p.kinds[i] = op.Kind
		p.units[i] = uint8(op.Unit)
		p.origs[i] = op.Orig
		p.addrs[i] = op.Addr
		p.memSrcs[i] = NoDep
		p.srcOff[i] = srcPos
		for _, s := range op.Srcs {
			p.srcDat[srcPos] = s
			srcPos++
			p.cpDat[p.cpOff[s+1]] = int32(i)
			p.cpOff[s+1]++
		}
		if op.Kind.IsConsume() {
			p.memSrcs[i] = op.MemSrc
			p.cfDat[p.cfOff[op.MemSrc+1]] = int32(i)
			p.cfOff[op.MemSrc+1]++
		}
		u := int(op.Unit)
		p.posInStream[i] = streamNext[u] - p.streamOff[u]
		p.streamDat[streamNext[u]] = int32(i)
		streamNext[u]++
	}
	p.srcOff[n] = srcPos
	for i := range ops {
		var f uint8
		if p.kinds[i].IsSend() {
			f |= opFlagSend
		}
		if p.kinds[i].IsConsume() {
			f |= opFlagConsume
		}
		if p.cfOff[i+1] > p.cfOff[i] {
			f |= opFlagFillCons
		}
		p.flags[i] = f
	}
}

// MustProgram is NewProgram but panics on error; used by lowerings that
// are correct by construction.
func MustProgram(name string, ops []Op, numUnits, traceLen int) *Program {
	p, err := NewProgram(name, ops, numUnits, traceLen)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the number of machine operations.
func (p *Program) Len() int { return len(p.Ops) }

// Stream returns the op indices executed by the given unit, program order.
//
//daelint:hotpath
func (p *Program) Stream(u isa.Unit) []int32 {
	p.compile() //daelint:hotpath-ok one-time compile on first use; later calls are an atomic load
	return p.streamDat[p.streamOff[u]:p.streamOff[u+1]]
}

// srcs returns op i's true-dependence producers.
//
//daelint:hotpath
func (p *Program) srcs(i int32) []int32 { return p.srcDat[p.srcOff[i]:p.srcOff[i+1]] }

// plainConsumers returns the ops woken by op i's completion.
//
//daelint:hotpath
func (p *Program) plainConsumers(i int32) []int32 { return p.cpDat[p.cpOff[i]:p.cpOff[i+1]] }

// fillConsumers returns the ops woken by send op i's fill arrival.
//
//daelint:hotpath
func (p *Program) fillConsumers(i int32) []int32 { return p.cfDat[p.cfOff[i]:p.cfOff[i+1]] }

// KindCounts returns the number of ops of each kind. It reads Ops and
// never compiles the program, so checking a cached Result against it
// costs no simulator state.
func (p *Program) KindCounts() [isa.NumOpKinds]int {
	var c [isa.NumOpKinds]int
	for i := range p.Ops {
		c[p.Ops[i].Kind]++
	}
	return c
}

// DataflowTime returns the resource-free execution time of the program:
// the longest dependence path with the given timing and the fixed-
// differential memory model. The engine must reach exactly this time when
// windows and widths are unlimited; tests rely on that.
func (p *Program) DataflowTime(tm isa.Timing) int64 {
	p.compile()
	n := len(p.kinds)
	done := make([]int64, n)
	fill := make([]int64, n)
	var max int64
	for i := 0; i < n; i++ {
		var ready int64
		for _, s := range p.srcs(int32(i)) {
			if done[s] > ready {
				ready = done[s]
			}
		}
		k := p.kinds[i]
		if k.IsConsume() {
			if f := fill[p.memSrcs[i]]; f > ready {
				ready = f
			}
		}
		done[i] = ready + int64(tm.Latency(k))
		if k.IsSend() {
			fill[i] = done[i] + int64(tm.MD)
		}
		if done[i] > max {
			max = done[i]
		}
	}
	return max
}
