package experiments

// Extension studies beyond the paper's evaluation, implementing its
// stated future work (§7): the effect of code expansion on the DM and
// SWSM (C4) and the comparison of code partitions on the DM (P1); plus
// two model-sensitivity studies: in-order retirement (A6) and a
// two-level cache hierarchy in place of the fixed differential (A7).

import (
	"fmt"
	"io"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/metrics"
	"daesim/internal/partition"
	"daesim/internal/plot"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// ExpansionRow reports code expansion for one workload.
type ExpansionRow struct {
	Name string
	// TraceLen is the architecture-neutral instruction count.
	TraceLen int
	// DMOps and SWSMOps are machine-operation counts after lowering.
	DMOps, SWSMOps int
	// Copies counts DM inter-unit copies (both directions).
	Copies int
	// DMCycles and SWCycles are at the standard operating point
	// (window 64, MD=60), to relate expansion to performance.
	DMCycles, SWCycles int64
}

// ExpansionResult is the code-expansion study (C4).
type ExpansionResult struct {
	Rows []ExpansionRow
}

// CodeExpansion measures how much each lowering expands the instruction
// stream, the paper's first future-work question.
func (c *Context) CodeExpansion() (*ExpansionResult, error) {
	res := &ExpansionResult{}
	for _, spec := range workloads.Catalog() {
		r, err := c.Runner(spec.Name)
		if err != nil {
			return nil, err
		}
		dm, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: ablationWindow, MD: ablationMD}})
		if err != nil {
			return nil, err
		}
		sw, err := r.Run(sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: ablationWindow, MD: ablationMD}})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExpansionRow{
			Name:     spec.Name,
			TraceLen: r.Suite.Trace.Len(),
			DMOps:    r.Suite.DM.Program.Len(),
			SWSMOps:  r.Suite.SWSM.Len(),
			Copies:   r.Suite.DM.CopiesAUDU + r.Suite.DM.CopiesDUAU,
			DMCycles: dm.Cycles,
			SWCycles: sw.Cycles,
		})
	}
	return res, nil
}

// Render writes the code-expansion study as a table.
func (e *ExpansionResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "trace", "DM ops", "DM exp", "SWSM ops", "SWSM exp", "copies", "DM cyc", "SWSM cyc"}}
	for _, r := range e.Rows {
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%d", r.TraceLen),
			fmt.Sprintf("%d", r.DMOps), fmt.Sprintf("%.2f", float64(r.DMOps)/float64(r.TraceLen)),
			fmt.Sprintf("%d", r.SWSMOps), fmt.Sprintf("%.2f", float64(r.SWSMOps)/float64(r.TraceLen)),
			fmt.Sprintf("%d", r.Copies),
			fmt.Sprintf("%d", r.DMCycles), fmt.Sprintf("%d", r.SWCycles),
		})
	}
	tbl := plot.Table{Title: "C4: code expansion (window 64, MD=60)", Rows: rows}
	return tbl.Render(w)
}

// PolicyRow reports one (workload, policy) pair.
type PolicyRow struct {
	Name     string
	Policy   partition.Policy
	AUOps    int
	DUOps    int
	Copies   int
	Cycles0  int64 // MD=0, window 64
	Cycles60 int64 // MD=60, window 64
}

// PolicyResult is the partition-policy study (P1).
type PolicyResult struct {
	Rows []PolicyRow
}

// PolicyStudy compares the classic all-integer-AU partition against the
// slice-only and balanced partitions, the paper's second future-work
// question (static vs alternative partitions of the code).
func (c *Context) PolicyStudy() (*PolicyResult, error) {
	res := &PolicyResult{}
	sim := engine.NewSim()
	for _, spec := range workloads.Catalog() {
		tr, err := workloads.Build(spec.Name, c.Scale)
		if err != nil {
			return nil, err
		}
		for _, pol := range partition.Policies() {
			suite, err := machine.NewSuite(tr, pol)
			if err != nil {
				return nil, err
			}
			// A detached runner per (workload, policy) suite: the suite
			// fingerprint covers the partition, so these points persist
			// in the shared store like the classic-policy sweeps.
			r := sweep.NewRunner(suite)
			r.Store = c.Cache
			r0, err := r.RunWith(sim, sweep.Point{Kind: machine.DM, P: machine.Params{Window: ablationWindow, MD: MDZero}})
			if err != nil {
				return nil, err
			}
			r60, err := r.RunWith(sim, sweep.Point{Kind: machine.DM, P: machine.Params{Window: ablationWindow, MD: ablationMD}})
			if err != nil {
				return nil, err
			}
			c.addStats(r.Stats())
			res.Rows = append(res.Rows, PolicyRow{
				Name: spec.Name, Policy: pol,
				AUOps: suite.DM.Assignment.OpsAU, DUOps: suite.DM.Assignment.OpsDU,
				Copies:  suite.DM.CopiesAUDU + suite.DM.CopiesDUAU,
				Cycles0: r0.Cycles, Cycles60: r60.Cycles,
			})
		}
	}
	return res, nil
}

// Render writes the policy study as a table.
func (p *PolicyResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "policy", "AU ops", "DU ops", "copies", "cycles md=0", "cycles md=60"}}
	for _, r := range p.Rows {
		rows = append(rows, []string{
			r.Name, r.Policy.String(),
			fmt.Sprintf("%d", r.AUOps), fmt.Sprintf("%d", r.DUOps), fmt.Sprintf("%d", r.Copies),
			fmt.Sprintf("%d", r.Cycles0), fmt.Sprintf("%d", r.Cycles60),
		})
	}
	tbl := plot.Table{Title: "P1: partition policies on the DM (window 64)", Rows: rows}
	return tbl.Render(w)
}

// RetireRow compares slot-reclamation policies for one configuration.
type RetireRow struct {
	Name              string
	Kind              machine.Kind
	Window            int
	Complete, InOrder int64
}

// RetireResult is the retirement-policy study (A6). The paper does not
// specify its simulator's window-slot accounting; this study bounds how
// much that choice matters. The SWSM's production default is in-order
// (machine.RetireAuto resolves it so; this is what restores the paper's
// C2 large-window ordering — see EXPERIMENTS.md), so the study forces
// both policies explicitly on both machines.
type RetireResult struct {
	MD   int
	Rows []RetireRow
}

// RetireStudy compares completion-time against in-order slot reclamation
// on both machines.
func (c *Context) RetireStudy() (*RetireResult, error) {
	res := &RetireResult{MD: ablationMD}
	for _, name := range workloads.FigureNames() {
		r, err := c.Runner(name)
		if err != nil {
			return nil, err
		}
		for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
			for _, w := range []int{64, 256, 1000} {
				def, err := r.Run(sweep.Point{Kind: kind, P: machine.Params{Window: w, MD: ablationMD, Retire: machine.RetireAtComplete}})
				if err != nil {
					return nil, err
				}
				rob, err := r.Run(sweep.Point{Kind: kind, P: machine.Params{Window: w, MD: ablationMD, Retire: machine.RetireInOrder}})
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, RetireRow{
					Name: name, Kind: kind, Window: w,
					Complete: def.Cycles, InOrder: rob.Cycles,
				})
			}
		}
	}
	return res, nil
}

// Render writes the retirement study as a table.
func (r *RetireResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "machine", "window", "free-at-complete", "in-order retire", "penalty"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, row.Kind.String(), fmt.Sprintf("%d", row.Window),
			fmt.Sprintf("%d", row.Complete), fmt.Sprintf("%d", row.InOrder),
			fmt.Sprintf("%.2fx", float64(row.InOrder)/float64(row.Complete)),
		})
	}
	tbl := plot.Table{Title: fmt.Sprintf("A6: window-slot reclamation policy, MD=%d", r.MD), Rows: rows}
	return tbl.Render(w)
}

// CacheRow reports one workload under the cache hierarchy.
type CacheRow struct {
	Name     string
	Kind     machine.Kind
	Fixed    int64 // fixed-differential cycles
	Cached   int64 // two-level hierarchy cycles
	MissRate float64
}

// CacheResult is the cache-hierarchy study (A7): replacing the paper's
// fixed differential with a Pentium-Pro-flavoured two-level hierarchy
// whose full miss costs MD.
type CacheResult struct {
	Rows []CacheRow
}

// CacheStudy runs the figure workloads against the default hierarchy.
func (c *Context) CacheStudy() (*CacheResult, error) {
	res := &CacheResult{}
	sim := engine.NewSim()
	for _, name := range workloads.FigureNames() {
		r, err := c.Runner(name)
		if err != nil {
			return nil, err
		}
		for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
			fixed, err := r.RunWith(sim, sweep.Point{Kind: kind, P: machine.Params{Window: ablationWindow, MD: ablationMD}})
			if err != nil {
				return nil, err
			}
			h, err := memsys.DefaultHierarchy(int64(ablationMD))
			if err != nil {
				return nil, err
			}
			// Through the runner so the run is counted (it bypasses both
			// cache layers: stateful models are uncacheable).
			cached, err := r.RunWith(sim, sweep.Point{Kind: kind, P: machine.Params{Window: ablationWindow, MD: ablationMD, Mem: h}})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, CacheRow{
				Name: name, Kind: kind,
				Fixed: fixed.Cycles, Cached: cached.Cycles, MissRate: h.MissRate(),
			})
		}
	}
	return res, nil
}

// Render writes the cache study as a table.
func (r *CacheResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "machine", "fixed-MD cycles", "cached cycles", "miss rate"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, row.Kind.String(),
			fmt.Sprintf("%d", row.Fixed), fmt.Sprintf("%d", row.Cached),
			fmt.Sprintf("%.0f%%", 100*row.MissRate),
		})
	}
	tbl := plot.Table{Title: "A7: two-level cache hierarchy vs fixed differential (window 64, MD=60)", Rows: rows}
	return tbl.Render(w)
}

// ComplexityRow combines an equivalent-window measurement with the
// Palacharla window-logic delay model.
type ComplexityRow struct {
	Name     string
	DMWindow int
	EqWindow int
	Ratio    float64
	// ClockPenalty is how much slower the SWSM must clock at its
	// equivalent window, per metrics.DefaultDelayModel.
	ClockPenalty float64
}

// ComplexityResult is the window-logic complexity study (P2): the paper's
// closing argument quantified — the SWSM needs a 2-4x window to match DM
// throughput, and that window costs clock rate quadratically.
type ComplexityResult struct {
	MD   int
	Rows []ComplexityRow
}

// ComplexityStudy evaluates clock-adjusted equivalent windows at MD=60.
// Its nine searches are independent and fan out across the pool, one
// Search per task; rows keep the (workload, window) order.
func (c *Context) ComplexityStudy() (*ComplexityResult, error) {
	model := metrics.DefaultDelayModel
	names := workloads.FigureNames()
	windows := []int{32, 64, 100}
	rows := make([]*ComplexityRow, len(names)*len(windows)) // nil: saturated
	if err := sweep.ForEach(c.Parallelism, len(rows), func(sim *engine.Sim, i int) error {
		name, w := names[i/len(windows)], windows[i%len(windows)]
		r, err := c.Runner(name)
		if err != nil {
			return err
		}
		dm, err := r.RunWith(sim, sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: ablationMD}})
		if err != nil {
			return err
		}
		eq, ok, err := metrics.NewSearch(r).EquivalentWindow(machine.Params{Window: w, MD: ablationMD, MemQueue: machine.QueueFactor * w}, dm.Cycles)
		if err != nil || !ok {
			return err
		}
		rows[i] = &ComplexityRow{
			Name: name, DMWindow: w, EqWindow: eq,
			Ratio:        float64(eq) / float64(w),
			ClockPenalty: model.ClockAdjustedAdvantage(w, isa.DefaultDUWidth, eq, isa.DefaultSWSMWidth),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res := &ComplexityResult{MD: ablationMD}
	for _, row := range rows {
		if row != nil {
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// Render writes the complexity study as a table.
func (r *ComplexityResult) Render(w io.Writer) error {
	rows := [][]string{{"Prog", "DM window", "equiv SWSM window", "ratio", "SWSM clock penalty"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name, fmt.Sprintf("%d", row.DMWindow), fmt.Sprintf("%d", row.EqWindow),
			fmt.Sprintf("%.2fx", row.Ratio), fmt.Sprintf("%.2fx", row.ClockPenalty),
		})
	}
	tbl := plot.Table{Title: fmt.Sprintf("P2: window-logic complexity (Palacharla model), MD=%d", r.MD), Rows: rows}
	return tbl.Render(w)
}
