// Package machine assembles the engine, partitioner and lowerings into
// the paper's two machine models and the serial baseline used for
// speedup. A Suite caches the lowered programs for one trace so sweeps
// can run many configurations cheaply.
package machine

import (
	"fmt"
	"sync"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/lower"
	"daesim/internal/memsys"
	"daesim/internal/partition"
	"daesim/internal/trace"
)

// Kind identifies a machine model.
type Kind uint8

const (
	// DM is the access decoupled machine.
	DM Kind = iota
	// SWSM is the single-window superscalar machine.
	SWSM
)

func (k Kind) String() string {
	switch k {
	case DM:
		return "DM"
	case SWSM:
		return "SWSM"
	default:
		return fmt.Sprintf("machine(%d)", uint8(k))
	}
}

// Params configures one simulation run. The zero value plus a Window is
// usable: all other fields default to the paper's configuration.
type Params struct {
	// Window is the instruction window size: per unit on the DM (AU and DU
	// each get Window slots), total on the SWSM. Zero or negative means
	// unlimited.
	Window int
	// AUWindow/DUWindow override the per-unit windows on the DM when > 0.
	AUWindow, DUWindow int
	// MD is the memory differential in cycles.
	MD int
	// FPLat and CopyLat override the default latencies when > 0.
	FPLat, CopyLat int
	// AUWidth, DUWidth and Width override the issue widths when > 0
	// (defaults 4, 5 and 9).
	AUWidth, DUWidth, Width int
	// DispatchWidth overrides per-core dispatch width when > 0 (default:
	// same as issue width).
	DispatchWidth int
	// MemQueue bounds the number of outstanding memory fills — the
	// capacity of the decoupled memory (DM) or prefetch buffer (SWSM),
	// which in the original machines were finite queues. Zero selects the
	// default QueueFactor×Window (unlimited when the window is unlimited);
	// Unbounded disables the limit; any positive value is used directly.
	MemQueue int
	// Mem selects a custom memory model and overrides MemQueue; nil uses
	// the fixed differential plus the MemQueue bound.
	//daelint:unwired in-process interface, not serializable: ToParams rejects it and CacheKey refuses to cache it
	Mem engine.MemModel
	// CollectESW enables effective-single-window statistics.
	CollectESW bool
	// HoldSendSlots makes sends occupy window slots until their fill
	// returns (ablation A3: removes fire-and-forget slippage).
	HoldSendSlots bool
	// Retire selects the window-slot reclamation policy. The zero value
	// (RetireAuto) resolves to the machine default: in-order (ROB-style)
	// on both machines — the mid-90s machines the paper abstracts
	// reclaimed slots through reorder buffers (SWSM) and per-unit FIFO
	// queues (DM/PIPE/WM), and symmetric accounting is what restores the
	// paper's C2 large-window ordering (EXPERIMENTS.md). RetireAtComplete
	// forces the older free-at-completion accounting (ablation A6).
	Retire RetirePolicy
}

// RetirePolicy selects how window slots are reclaimed.
type RetirePolicy uint8

const (
	// RetireAuto picks the machine default: in-order on both machines.
	RetireAuto RetirePolicy = iota
	// RetireAtComplete frees a slot as soon as its op completes.
	RetireAtComplete
	// RetireInOrder frees slots in program order (reorder-buffer style):
	// a completed op's slot is reclaimed only once every older op in the
	// same core has completed.
	RetireInOrder
)

func (r RetirePolicy) String() string {
	switch r {
	case RetireAuto:
		return "auto"
	case RetireAtComplete:
		return "at-complete"
	case RetireInOrder:
		return "in-order"
	default:
		return fmt.Sprintf("retire(%d)", uint8(r))
	}
}

// ResolveRetire maps a policy to the concrete policy the engine runs:
// RetireAuto becomes the machine default. Resolution is kind-independent
// — both machines default to in-order reclamation (their per-unit FIFO
// queues and reorder buffers) — so caches may canonicalize keys with it.
func ResolveRetire(r RetirePolicy) RetirePolicy {
	if r == RetireAtComplete {
		return RetireAtComplete
	}
	return RetireInOrder
}

// retireInOrder resolves the policy (see ResolveRetire).
func (p Params) retireInOrder() bool {
	return ResolveRetire(p.Retire) == RetireInOrder
}

// Unbounded disables the MemQueue outstanding-fill limit.
const Unbounded = -1

// QueueFactor scales the default decoupled-memory / prefetch-buffer
// capacity with the window size: a machine with W-slot windows gets a
// QueueFactor×W entry queue. The paper idealizes the buffers but the
// machines it abstracts (PIPE, WM) used finite queues; scaling with the
// window keeps small configurations from hiding latency through
// unbounded run-ahead.
const QueueFactor = 2

// queueModel returns the memory model implied by the parameters.
func (p Params) queueModel() (engine.MemModel, error) {
	if p.Mem != nil {
		return p.Mem, nil
	}
	switch {
	case p.MemQueue == Unbounded:
		return nil, nil
	case p.MemQueue > 0:
		return memsys.NewOutstanding(int64(p.Timing().MD), p.MemQueue)
	case p.MemQueue == 0:
		if p.Window <= 0 {
			return nil, nil // unlimited window: unlimited queue
		}
		return memsys.NewOutstanding(int64(p.Timing().MD), QueueFactor*p.Window)
	default:
		return nil, fmt.Errorf("machine: invalid MemQueue %d", p.MemQueue)
	}
}

// Timing returns the isa.Timing with defaults applied.
func (p Params) Timing() isa.Timing {
	t := isa.Timing{MD: p.MD, FPLat: p.FPLat, CopyLat: p.CopyLat}
	if t.FPLat == 0 {
		t.FPLat = isa.DefaultFPLat
	}
	if t.CopyLat == 0 {
		t.CopyLat = isa.DefaultCopyLat
	}
	return t
}

func (p Params) auWidth() int {
	if p.AUWidth > 0 {
		return p.AUWidth
	}
	return isa.DefaultAUWidth
}

func (p Params) duWidth() int {
	if p.DUWidth > 0 {
		return p.DUWidth
	}
	return isa.DefaultDUWidth
}

func (p Params) swsmWidth() int {
	if p.Width > 0 {
		return p.Width
	}
	return isa.DefaultSWSMWidth
}

func (p Params) auWindow() int {
	if p.AUWindow > 0 {
		return p.AUWindow
	}
	return p.Window
}

func (p Params) duWindow() int {
	if p.DUWindow > 0 {
		return p.DUWindow
	}
	return p.Window
}

// Suite holds the lowered programs for one trace under one partition
// policy. Build once, run many configurations.
type Suite struct {
	// Trace is the source trace.
	Trace *trace.Trace
	// DM is the decoupled-machine lowering.
	DM *lower.DMResult
	// SWSM is the superscalar lowering.
	SWSM *engine.Program

	// fingerprint memoization (see Fingerprint).
	fpOnce sync.Once
	fp     string
}

// NewSuite lowers tr for both machines using the given partition policy.
func NewSuite(tr *trace.Trace, pol partition.Policy) (*Suite, error) {
	dm, err := lower.DM(tr, pol)
	if err != nil {
		return nil, fmt.Errorf("machine: lowering DM: %w", err)
	}
	sw, err := lower.SWSM(tr)
	if err != nil {
		return nil, fmt.Errorf("machine: lowering SWSM: %w", err)
	}
	return &Suite{Trace: tr, DM: dm, SWSM: sw}, nil
}

// Run executes the given machine kind under p, drawing a reusable
// engine scratch context from the shared pool.
func (s *Suite) Run(kind Kind, p Params) (*engine.Result, error) {
	return s.RunWith(nil, kind, p)
}

// RunWith executes the given machine kind under p on sim's reusable
// scratch. A nil sim draws from the engine's shared pool. Callers that
// run many configurations on a dedicated goroutine (sweep workers,
// equivalent-window searches) should hold their own engine.Sim so
// repeated runs allocate nothing beyond the Results.
func (s *Suite) RunWith(sim *engine.Sim, kind Kind, p Params) (*engine.Result, error) {
	switch kind {
	case DM:
		return s.RunDMWith(sim, p)
	case SWSM:
		return s.RunSWSMWith(sim, p)
	default:
		return nil, fmt.Errorf("machine: unknown kind %v", kind)
	}
}

// dmConfig materializes the engine configuration for the decoupled
// machine.
func (p Params) dmConfig() (engine.Config, error) {
	mem, err := p.queueModel()
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Timing: p.Timing(),
		Cores: []isa.CoreConfig{
			{Window: p.auWindow(), IssueWidth: p.auWidth(), DispatchWidth: p.DispatchWidth},
			{Window: p.duWindow(), IssueWidth: p.duWidth(), DispatchWidth: p.DispatchWidth},
		},
		Mem:           mem,
		CollectESW:    p.CollectESW,
		HoldSendSlots: p.HoldSendSlots,
		RetireInOrder: p.retireInOrder(),
	}, nil
}

// swsmConfig materializes the engine configuration for the superscalar
// machine.
func (p Params) swsmConfig() (engine.Config, error) {
	mem, err := p.queueModel()
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Timing: p.Timing(),
		Cores: []isa.CoreConfig{
			{Window: p.Window, IssueWidth: p.swsmWidth(), DispatchWidth: p.DispatchWidth},
		},
		Mem:           mem,
		CollectESW:    p.CollectESW,
		HoldSendSlots: p.HoldSendSlots,
		RetireInOrder: p.retireInOrder(),
	}, nil
}

// Config materializes the engine configuration p implies for a machine
// kind — exactly what Run hands the engine. Exported for differential
// harnesses (FuzzWorkgenDifferential) that replay the same setup
// through engine.ReferenceRun; each call constructs a fresh memory
// model, so two configs never share queue state.
func (p Params) Config(kind Kind) (engine.Config, error) {
	switch kind {
	case DM:
		return p.dmConfig()
	case SWSM:
		return p.swsmConfig()
	default:
		return engine.Config{}, fmt.Errorf("machine: unknown kind %v", kind)
	}
}

// Check reports the configuration error Run would refuse p with for
// kind — the engine's own Config.Validate against the lowered program,
// plus the memory-queue bound — without building a memory model or
// simulating, so a server can refuse a bad request before any work
// starts. A custom p.Mem is not checked.
func (s *Suite) Check(kind Kind, p Params) error {
	if p.MemQueue < Unbounded {
		return fmt.Errorf("machine: invalid MemQueue %d", p.MemQueue)
	}
	p.MemQueue, p.Mem = Unbounded, nil // no model to build: the bound is checked above
	cfg, err := p.Config(kind)
	if err != nil {
		return err
	}
	return cfg.Validate(s.Program(kind))
}

// Program returns the lowered program Run executes for kind.
func (s *Suite) Program(kind Kind) *engine.Program {
	if kind == DM {
		return s.DM.Program
	}
	return s.SWSM
}

// RunDM executes the decoupled machine under p.
func (s *Suite) RunDM(p Params) (*engine.Result, error) { return s.RunDMWith(nil, p) }

// RunDMWith executes the decoupled machine under p on sim's scratch
// (nil draws from the shared pool).
func (s *Suite) RunDMWith(sim *engine.Sim, p Params) (*engine.Result, error) {
	cfg, err := p.dmConfig()
	if err != nil {
		return nil, err
	}
	if sim == nil {
		return engine.Run(s.DM.Program, cfg)
	}
	return sim.Run(s.DM.Program, cfg)
}

// RunSWSM executes the superscalar machine under p.
func (s *Suite) RunSWSM(p Params) (*engine.Result, error) { return s.RunSWSMWith(nil, p) }

// RunSWSMWith executes the superscalar machine under p on sim's scratch
// (nil draws from the shared pool).
func (s *Suite) RunSWSMWith(sim *engine.Sim, p Params) (*engine.Result, error) {
	cfg, err := p.swsmConfig()
	if err != nil {
		return nil, err
	}
	if sim == nil {
		return engine.Run(s.SWSM, cfg)
	}
	return sim.Run(s.SWSM, cfg)
}

// SerialCycles returns the execution time of tr on the serial reference
// machine used as the speedup baseline: a single-issue, non-overlapping
// processor where every instruction completes before the next begins.
// Integer ops cost 1 cycle, FP ops FPLat, loads MD+1 (the differential
// plus the access cycle) and stores 1 (retired through a store buffer).
func SerialCycles(tr *trace.Trace, tm isa.Timing) int64 {
	var total int64
	for i := range tr.Instrs {
		switch tr.Instrs[i].Class {
		case isa.IntALU, isa.Store:
			total++
		case isa.FPALU:
			total += int64(tm.FPLat)
		case isa.Load:
			total += int64(tm.MD) + 1
		}
	}
	return total
}

// PerfectCycles returns the execution time of the machine with perfect
// latency hiding: the same machine with MD forced to zero, so every
// memory access perceives a single-cycle (buffer-request) latency. This
// is the T_perfect of the paper's LHE definition.
func (s *Suite) PerfectCycles(kind Kind, p Params) (int64, error) {
	p.MD = 0
	r, err := s.Run(kind, p)
	if err != nil {
		return 0, err
	}
	return r.Cycles, nil
}
