package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"daesim/internal/engine"
)

// CacheKey returns a canonical, process-stable encoding of (kind, p) for
// persistent result caches, and reports whether the point is cacheable at
// all. Points carrying a custom Params.Mem are not: a MemModel is
// arbitrary stateful code with no stable identity.
//
// The encoding writes every Params field explicitly, raw (unresolved),
// except the retirement policy, which is recorded resolved so a change
// to the machines' default accounting changes the key.
// TestCacheKeyCoversAllParams pins the field count: adding a Params field
// without extending this encoding is a build-time-visible bug, not a
// silent stale-cache hazard.
func (p Params) CacheKey(kind Kind) (string, bool) {
	if p.Mem != nil {
		return "", false
	}
	retire := RetireAtComplete
	if p.retireInOrder() {
		retire = RetireInOrder
	}
	return fmt.Sprintf("k=%s w=%d auw=%d duw=%d md=%d fp=%d cp=%d aw=%d dw=%d sw=%d dpw=%d mq=%d esw=%t hold=%t ret=%s",
		kind, p.Window, p.AUWindow, p.DUWindow, p.MD, p.FPLat, p.CopyLat,
		p.AUWidth, p.DUWidth, p.Width, p.DispatchWidth, p.MemQueue,
		p.CollectESW, p.HoldSendSlots, retire), true
}

// Fingerprint returns a content hash of the suite's lowered programs —
// the workload identity for persistent result caches. It covers every
// field of every op of both machines' programs plus the trace length, so
// it changes when a workload model is recalibrated, when its scale
// changes, when the partition policy assigns ops differently, or when a
// lowering emits different code — exactly the events that must invalidate
// cached results for the suite.
//
// The hashed stream is each program's name followed by little-endian
// int64s; it is encoded into a fpBlock-sized buffer and hashed a block
// at a time, so the per-value cost is a store rather than a hash call.
// Computed once per Suite, because sweeps ask for it per point: the
// ~10 MB stream of a scale-1 TRFD suite takes about 14 ms to hash on a
// 2-CPU Xeon with SHA extensions, most of it inside SHA-256
// (BenchmarkFingerprint).
func (s *Suite) Fingerprint() string {
	s.fpOnce.Do(func() {
		w := fpWriter{h: sha256.New(), buf: make([]byte, 0, fpBlock)}
		w.program(s.DM.Program)
		w.program(s.SWSM)
		w.flush()
		s.fp = hex.EncodeToString(w.h.Sum(nil))
	})
	return s.fp
}

// fpBlock is the size of Fingerprint's encoding buffer.
const fpBlock = 64 << 10

// fpWriter buffers Fingerprint's byte stream in front of the hash.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

// reserve returns the next n bytes of the buffer to encode into,
// hashing the buffered bytes first when fewer than n remain. n must not
// exceed fpBlock.
func (w *fpWriter) reserve(n int) []byte {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
	w.buf = w.buf[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

func (w *fpWriter) program(p *engine.Program) {
	le := binary.LittleEndian
	w.flush()
	w.h.Write([]byte(p.Name))
	b := w.reserve(24)
	le.PutUint64(b, uint64(p.NumUnits))
	le.PutUint64(b[8:], uint64(p.TraceLen))
	le.PutUint64(b[16:], uint64(len(p.Ops)))
	for i := range p.Ops {
		op := &p.Ops[i]
		b := w.reserve(48)
		le.PutUint64(b, uint64(op.Kind))
		le.PutUint64(b[8:], uint64(op.Unit))
		le.PutUint64(b[16:], uint64(int64(op.MemSrc)))
		le.PutUint64(b[24:], op.Addr)
		le.PutUint64(b[32:], uint64(int64(op.Orig)))
		le.PutUint64(b[40:], uint64(len(op.Srcs)))
		for _, s := range op.Srcs {
			le.PutUint64(w.reserve(8), uint64(int64(s)))
		}
	}
}
