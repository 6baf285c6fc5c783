package experiments

import (
	"repro/internal/cache"
	"repro/internal/region"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Table1Row reproduces one row of the paper's Table 1: dynamic
// instruction count and load/store percentages.
type Table1Row struct {
	Name     string
	Insts    uint64
	LoadPct  float64
	StorePct float64
}

// Table1 runs E1.
func (r *Runner) Table1() ([]Table1Row, error) {
	return forEach(r, func(w *workload.Workload) (Table1Row, error) {
		pr, err := r.Profile(w)
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Name:     w.Name,
			Insts:    pr.DynInsts,
			LoadPct:  pr.LoadPct(),
			StorePct: pr.StorePct(),
		}, nil
	})
}

// Figure2Row reproduces one bar of Figure 2: the breakdown of static
// memory instructions by the set of regions they access.
type Figure2Row struct {
	Name string
	// StaticPct maps the class label ("D", "H", "S", "D/H", ...) to its
	// share of static memory instructions, in percent.
	StaticPct map[string]float64
	// MultiStaticPct and MultiDynPct are the §3.2.1 headline numbers.
	MultiStaticPct float64
	MultiDynPct    float64
	// StackOnlyPct is the "S" class share (paper: >50% on average).
	StackOnlyPct float64
	StaticTotal  int
}

// Figure2 runs E2.
func (r *Runner) Figure2() ([]Figure2Row, error) {
	return forEach(r, func(w *workload.Workload) (Figure2Row, error) {
		pr, err := r.Profile(w)
		if err != nil {
			return Figure2Row{}, err
		}
		b := pr.Classes()
		row := Figure2Row{
			Name:           w.Name,
			StaticPct:      make(map[string]float64, len(region.AllClasses)),
			MultiStaticPct: b.MultiRegionStaticPct(),
			MultiDynPct:    b.MultiRegionDynPct(),
			StackOnlyPct:   b.StackOnlyStaticPct(),
			StaticTotal:    b.StaticTotal,
		}
		for _, set := range region.AllClasses {
			row.StaticPct[set.Class()] = 100 * float64(b.StaticByClass[set]) / float64(max(b.StaticTotal, 1))
		}
		return row, nil
	})
}

// Table2Cell is one mean/stddev pair of Table 2.
type Table2Cell struct {
	Mean   float64
	StdDev float64
}

// Table2Row reproduces one row of Table 2: average (and standard
// deviation of) data/heap/stack accesses in the trailing 32- and
// 64-instruction windows.
type Table2Row struct {
	Name string
	W32  [region.Count]Table2Cell
	W64  [region.Count]Table2Cell
}

// Bursty reports the paper's "strictly bursty" predicate for a region
// at the given window size.
func (t Table2Row) Bursty(r region.Region, size int) bool {
	c := t.W32[r]
	if size == 64 {
		c = t.W64[r]
	}
	return c.Mean < c.StdDev
}

// Table2 runs E3.
func (r *Runner) Table2() ([]Table2Row, error) {
	return forEach(r, func(w *workload.Workload) (Table2Row, error) {
		pr, err := r.Profile(w)
		if err != nil {
			return Table2Row{}, err
		}
		row := Table2Row{Name: w.Name}
		for i := range pr.Windows {
			ws := &pr.Windows[i]
			dst := &row.W32
			if ws.Size == 64 {
				dst = &row.W64
			}
			for reg := 0; reg < region.Count; reg++ {
				dst[reg] = Table2Cell{
					Mean:   ws.Mean(region.Region(reg)),
					StdDev: ws.StdDev(region.Region(reg)),
				}
			}
		}
		return row, nil
	})
}

// Table2Average computes the paper's "Average" row.
func Table2Average(rows []Table2Row) Table2Row {
	avg := Table2Row{Name: "Average"}
	if len(rows) == 0 {
		return avg
	}
	n := float64(len(rows))
	for _, row := range rows {
		for reg := 0; reg < region.Count; reg++ {
			avg.W32[reg].Mean += row.W32[reg].Mean / n
			avg.W32[reg].StdDev += row.W32[reg].StdDev / n
			avg.W64[reg].Mean += row.W64[reg].Mean / n
			avg.W64[reg].StdDev += row.W64[reg].StdDev / n
		}
	}
	return avg
}

// LVCRow reproduces the §3.3 claim: the hit rate a 4 KB direct-mapped
// stack cache achieves on each program's stack reference stream
// (paper: over 99.5%, average about 99.9%).
type LVCRow struct {
	Name      string
	StackRefs uint64
	HitRate   float64
}

// LVCHitRate runs E8 by replaying each program and feeding its stack
// references into a fresh LVC model.
func (r *Runner) LVCHitRate() ([]LVCRow, error) {
	return forEach(r, func(w *workload.Workload) (LVCRow, error) {
		var lvc *cache.Cache
		err := r.pass(w, "lvc", func(*vm.Machine) (func(vm.Event), error) {
			var err error
			if lvc, err = cache.New(cache.LVCConfig(1)); err != nil {
				return nil, err
			}
			return func(ev vm.Event) {
				if ev.Inst.IsMem() && ev.Region == region.Stack {
					lvc.Access(ev.MemAddr, ev.Inst.IsStore())
				}
			}, nil
		})
		if err != nil {
			return LVCRow{}, err
		}
		st := lvc.Stats()
		return LVCRow{Name: w.Name, StackRefs: st.Accesses, HitRate: st.HitRate()}, nil
	})
}
