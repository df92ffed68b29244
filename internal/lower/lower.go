// Package lower translates architecture-neutral traces into machine
// programs for the two machine models of the paper.
//
// Decoupled machine (DM): every load becomes a LoadSend on the AU plus a
// LoadRecv on each unit that consumes the value; every store becomes a
// StoreAddr on the AU plus a StoreData on the unit producing the data;
// values crossing between units are moved by Copy ops executed on the
// producing unit. Both halves of a memory operation are "one instruction
// on each of the units", as in the paper.
//
// Superscalar machine (SWSM): every memory operation becomes two
// instructions, a Prefetch that dispatches the address to the memory
// system as soon as run-time resources allow, and an Access that consumes
// the value from the prefetch buffer (loads) or commits the store.
package lower

import (
	"fmt"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/partition"
	"daesim/internal/trace"
)

// DMResult is a lowered decoupled-machine program with lowering metadata.
type DMResult struct {
	// Program is the two-unit machine program (unit 0 = AU, unit 1 = DU).
	Program *engine.Program
	// CopiesAUDU counts AU→DU register copies.
	CopiesAUDU int
	// CopiesDUAU counts DU→AU register copies (loss-of-decoupling events).
	CopiesDUAU int
	// Assignment is the partition used.
	Assignment *partition.Assignment
}

// DM lowers tr for the decoupled machine under the given partition policy.
func DM(tr *trace.Trace, pol partition.Policy) (*DMResult, error) {
	asg, err := partition.Partition(tr, pol)
	if err != nil {
		return nil, err
	}
	n := tr.Len()
	res := &DMResult{Assignment: asg}
	nOps, nSrcs := dmSize(tr, asg)
	ops := make([]engine.Op, 0, nOps)
	slab := make([]int32, nSrcs)
	// avail[u][v] is the machine op producing trace value v on unit u, or
	// engine.NoDep when the value is not (yet) available there.
	avail := [2][]int32{make([]int32, n), make([]int32, n)}
	for u := 0; u < 2; u++ {
		for i := range avail[u] {
			avail[u][i] = engine.NoDep
		}
	}
	emit := func(op engine.Op) int32 {
		ops = append(ops, op)
		return int32(len(ops) - 1)
	}
	// resolve returns the op producing trace value v on unit u, inserting
	// a copy from the other unit if needed.
	resolve := func(v int32, u isa.Unit, orig int32) int32 {
		if got := avail[u][v]; got != engine.NoDep {
			return got
		}
		other := isa.DU
		if u == isa.DU {
			other = isa.AU
		}
		src := avail[other][v]
		if src == engine.NoDep {
			panic(fmt.Sprintf("lower: trace %s: value %d unavailable on both units at %d", tr.Name, v, orig))
		}
		srcs := take(&slab, 1)
		srcs[0] = src
		cp := emit(engine.Op{Kind: isa.OpCopy, Unit: other, Srcs: srcs, MemSrc: engine.NoDep, Orig: orig})
		avail[u][v] = cp
		if other == isa.AU {
			res.CopiesAUDU++
		} else {
			res.CopiesDUAU++
		}
		return cp
	}
	resolveAll := func(vals []int32, u isa.Unit, orig int32) []int32 {
		if len(vals) == 0 {
			return nil
		}
		out := take(&slab, len(vals))
		for i, v := range vals {
			out[i] = resolve(v, u, orig)
		}
		return out
	}

	for i := range tr.Instrs {
		in := &tr.Instrs[i]
		orig := int32(i)
		switch in.Class {
		case isa.IntALU, isa.FPALU:
			u := asg.Unit[i]
			kind := isa.OpInt
			if in.Class == isa.FPALU {
				kind = isa.OpFP
			}
			idx := emit(engine.Op{Kind: kind, Unit: u, Srcs: resolveAll(in.Args, u, orig), MemSrc: engine.NoDep, Orig: orig})
			avail[u][i] = idx
		case isa.Load:
			send := emit(engine.Op{
				Kind: isa.OpLoadSend, Unit: isa.AU,
				Srcs: resolveAll(in.Addr, isa.AU, orig), MemSrc: engine.NoDep,
				Addr: in.MemAddr, Orig: orig,
			})
			if asg.RecvAU[i] {
				avail[isa.AU][i] = emit(engine.Op{Kind: isa.OpLoadRecv, Unit: isa.AU, MemSrc: send, Addr: in.MemAddr, Orig: orig})
			}
			if asg.RecvDU[i] {
				avail[isa.DU][i] = emit(engine.Op{Kind: isa.OpLoadRecv, Unit: isa.DU, MemSrc: send, Addr: in.MemAddr, Orig: orig})
			}
		case isa.Store:
			emit(engine.Op{
				Kind: isa.OpStoreAddr, Unit: isa.AU,
				Srcs: resolveAll(in.Addr, isa.AU, orig), MemSrc: engine.NoDep,
				Addr: in.MemAddr, Orig: orig,
			})
			data := in.Args[0]
			// The data half executes on whichever unit already holds the
			// value, preferring the DU (the paper's data side).
			du := isa.DU
			if avail[isa.DU][data] == engine.NoDep {
				du = isa.AU
			}
			srcs := take(&slab, 1)
			srcs[0] = resolve(data, du, orig)
			emit(engine.Op{
				Kind: isa.OpStoreData, Unit: du,
				Srcs: srcs, MemSrc: engine.NoDep,
				Addr: in.MemAddr, Orig: orig,
			})
		}
	}
	if err := checkSize(tr, "DM", ops, slab); err != nil {
		return nil, err
	}
	p, err := engine.NewProgram(tr.Name+"/dm", ops, 2, n)
	if err != nil {
		return nil, err
	}
	res.Program = p
	return res, nil
}

// dmSize returns the exact number of ops and dependence sources DM emits
// for tr under asg. It replays which units hold each value: a value is
// held where it is computed or received, and a copy (one op, one source)
// is emitted the first time an ALU op or an address on the other unit
// needs it. Store data never needs a copy: its half runs wherever the
// value already is.
func dmSize(tr *trace.Trace, asg *partition.Assignment) (ops, srcs int) {
	held := make([]uint8, tr.Len()) // bit u: value available on unit u
	need := func(vals []int32, u isa.Unit) {
		srcs += len(vals)
		for _, v := range vals {
			if held[v]&(1<<u) == 0 {
				held[v] |= 1 << u
				ops++
				srcs++
			}
		}
	}
	for i := range tr.Instrs {
		in := &tr.Instrs[i]
		switch in.Class {
		case isa.IntALU, isa.FPALU:
			need(in.Args, asg.Unit[i])
			held[i] |= 1 << asg.Unit[i]
			ops++
		case isa.Load:
			need(in.Addr, isa.AU)
			ops++
			if asg.RecvAU[i] {
				held[i] |= 1 << isa.AU
				ops++
			}
			if asg.RecvDU[i] {
				held[i] |= 1 << isa.DU
				ops++
			}
		case isa.Store:
			need(in.Addr, isa.AU)
			ops += 2
			srcs++
		}
	}
	return ops, srcs
}

// take carves an n-element Srcs list off the front of slab. The list's
// cap equals its len, so appending to it reallocates instead of writing
// over the next op's sources.
func take(slab *[]int32, n int) []int32 {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// checkSize reports a lowering whose size pre-pass disagreed with what it
// emitted: ops and the Srcs slab are allocated exactly, so any slack left
// over (or a reallocation of ops) means the pre-pass is wrong.
func checkSize(tr *trace.Trace, machine string, ops []engine.Op, slab []int32) error {
	if len(ops) != cap(ops) || len(slab) != 0 {
		return fmt.Errorf("lower: trace %s: %s size pre-pass disagrees with the lowering (%d/%d ops, %d sources unused)",
			tr.Name, machine, len(ops), cap(ops), len(slab))
	}
	return nil
}

// SWSM lowers tr for the single-window superscalar machine.
func SWSM(tr *trace.Trace) (*engine.Program, error) {
	n := tr.Len()
	// Every memory instruction becomes two ops; a store's access depends
	// on its address and its data.
	nOps, nSrcs := n, 0
	for i := range tr.Instrs {
		in := &tr.Instrs[i]
		switch in.Class {
		case isa.IntALU, isa.FPALU:
			nSrcs += len(in.Args)
		case isa.Load:
			nOps++
			nSrcs += len(in.Addr)
		case isa.Store:
			nOps++
			nSrcs += 2*len(in.Addr) + len(in.Args)
		}
	}
	ops := make([]engine.Op, 0, nOps)
	slab := make([]int32, nSrcs)
	avail := make([]int32, n)
	for i := range avail {
		avail[i] = engine.NoDep
	}
	resolveInto := func(dst, vals []int32) {
		for i, v := range vals {
			if avail[v] == engine.NoDep {
				panic(fmt.Sprintf("lower: trace %s: value %d unavailable", tr.Name, v))
			}
			dst[i] = avail[v]
		}
	}
	resolveAll := func(vals []int32) []int32 {
		if len(vals) == 0 {
			return nil
		}
		out := take(&slab, len(vals))
		resolveInto(out, vals)
		return out
	}
	emit := func(op engine.Op) int32 {
		ops = append(ops, op)
		return int32(len(ops) - 1)
	}
	for i := range tr.Instrs {
		in := &tr.Instrs[i]
		orig := int32(i)
		switch in.Class {
		case isa.IntALU:
			avail[i] = emit(engine.Op{Kind: isa.OpInt, Unit: isa.AU, Srcs: resolveAll(in.Args), MemSrc: engine.NoDep, Orig: orig})
		case isa.FPALU:
			avail[i] = emit(engine.Op{Kind: isa.OpFP, Unit: isa.AU, Srcs: resolveAll(in.Args), MemSrc: engine.NoDep, Orig: orig})
		case isa.Load:
			pf := emit(engine.Op{Kind: isa.OpPrefetch, Unit: isa.AU, Srcs: resolveAll(in.Addr), MemSrc: engine.NoDep, Addr: in.MemAddr, Orig: orig})
			// The access's fill edge subsumes the address dependencies: the
			// fill cannot arrive before the prefetch issued.
			avail[i] = emit(engine.Op{Kind: isa.OpAccess, Unit: isa.AU, MemSrc: pf, Addr: in.MemAddr, Orig: orig})
		case isa.Store:
			emit(engine.Op{Kind: isa.OpPrefetch, Unit: isa.AU, Srcs: resolveAll(in.Addr), MemSrc: engine.NoDep, Addr: in.MemAddr, Orig: orig})
			srcs := take(&slab, len(in.Addr)+len(in.Args))
			resolveInto(srcs, in.Addr)
			resolveInto(srcs[len(in.Addr):], in.Args)
			emit(engine.Op{Kind: isa.OpStoreAcc, Unit: isa.AU, Srcs: srcs, MemSrc: engine.NoDep, Addr: in.MemAddr, Orig: orig})
		}
	}
	if err := checkSize(tr, "SWSM", ops, slab); err != nil {
		return nil, err
	}
	return engine.NewProgram(tr.Name+"/swsm", ops, 1, n)
}
