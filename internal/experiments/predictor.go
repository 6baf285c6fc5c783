package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/workload"
)

// HintMode selects the compiler-information variant for the Figure 5
// study.
type HintMode int

// The three hint modes: none (pure hardware), the paper's profile
// oracle, and this reproduction's real MiniC Figure 6 static analysis.
const (
	HintsOff HintMode = iota
	HintsOracle
	HintsCompiler
)

func (h HintMode) String() string {
	switch h {
	case HintsOff:
		return "none"
	case HintsOracle:
		return "oracle"
	case HintsCompiler:
		return "compiler"
	case HintsBinary:
		return "binary"
	}
	return fmt.Sprintf("hints(%d)", int(h))
}

// Figure4Row reproduces one group of Figure 4 bars: correct
// classification rate per scheme, with the STATIC coverage fraction.
type Figure4Row struct {
	Name string
	// AccuracyPct maps the scheme name to the percentage of dynamic
	// references correctly classified.
	AccuracyPct map[string]float64
	// StaticCoveredPct is the share of references whose region is
	// manifest in the addressing mode (Figure 4's dark lower bars).
	StaticCoveredPct float64
}

// Table3Row reproduces one row of Table 3: entries occupied in an
// unlimited ARPT per context variant.
type Table3Row struct {
	Name   string
	Static int // occupied without context bits (1BIT)
	GBH    int
	CID    int
	Hybrid int
}

// Figure5Row reproduces one group of Figure 5 bars: 1BIT-HYBRID
// accuracy as the ARPT shrinks, with and without compiler information.
type Figure5Row struct {
	Name string
	// AccuracyPct[size][mode]; size 0 means unlimited.
	AccuracyPct map[int]map[HintMode]float64
}

// Figure5Sizes are the table sizes of Figure 5 (0 = unlimited).
var Figure5Sizes = []int{0, 64 * 1024, 32 * 1024, 16 * 1024, 8 * 1024}

// AblationRow compares 1-bit against 2-bit schemes (the paper's
// footnote 8: 2-bit performance "is consistently lower").
type AblationRow struct {
	Name      string
	OneBit    float64
	TwoBit    float64
	OneHybrid float64
	TwoHybrid float64
}

// ContextRow is one cell of the E10 context-width sweep.
type ContextRow struct {
	Name        string
	GBHBits     int
	CIDBits     int
	AccuracyPct float64
}

// PredictorStudy bundles every experiment that shares a single
// functional pass per workload.
type PredictorStudy struct {
	Figure4  []Figure4Row
	Table3   []Table3Row
	Figure5  []Figure5Row
	Ablation []AblationRow
}

// classifierSet is everything evaluated during one program run.
type classifierSet struct {
	schemes map[core.Scheme]*core.Classifier      // Figure 4 + Table 3
	sized   map[int]map[HintMode]*core.Classifier // Figure 5
	twoBit  map[core.Scheme]*core.Classifier      // E9
}

func buildClassifiers(p *prog.Program, oracle core.HintSource) (*classifierSet, error) {
	cs := &classifierSet{
		schemes: make(map[core.Scheme]*core.Classifier),
		sized:   make(map[int]map[HintMode]*core.Classifier),
		twoBit:  make(map[core.Scheme]*core.Classifier),
	}
	for _, s := range core.AllSchemes {
		c, err := core.NewClassifier(core.ClassifierConfig{Scheme: s})
		if err != nil {
			return nil, err
		}
		cs.schemes[s] = c
	}
	for _, s := range []core.Scheme{core.Scheme2Bit, core.Scheme2BitHybrid} {
		c, err := core.NewClassifier(core.ClassifierConfig{Scheme: s})
		if err != nil {
			return nil, err
		}
		cs.twoBit[s] = c
	}
	for _, size := range Figure5Sizes {
		cs.sized[size] = make(map[HintMode]*core.Classifier)
		for _, mode := range []HintMode{HintsOff, HintsOracle, HintsCompiler} {
			var hints core.HintSource
			switch mode {
			case HintsOracle:
				hints = oracle
			case HintsCompiler:
				hints = p.HintAt
			}
			c, err := core.NewClassifier(
				core.ClassifierConfig{Scheme: core.Scheme1BitHybrid, Entries: size},
				core.WithHints(hints))
			if err != nil {
				return nil, err
			}
			cs.sized[size][mode] = c
		}
	}
	return cs, nil
}

func (cs *classifierSet) classify(ev core.RefEvent) {
	for _, c := range cs.schemes {
		c.Classify(ev.Index, ev.PC, ev.Inst, ev.Ctx, ev.Actual)
	}
	for _, c := range cs.twoBit {
		c.Classify(ev.Index, ev.PC, ev.Inst, ev.Ctx, ev.Actual)
	}
	for _, byMode := range cs.sized {
		for _, c := range byMode {
			c.Classify(ev.Index, ev.PC, ev.Inst, ev.Ctx, ev.Actual)
		}
	}
}

// predictorRows is one workload's slice of the predictor study.
type predictorRows struct {
	f4 Figure4Row
	t3 Table3Row
	f5 Figure5Row
	ab AblationRow
}

// RunPredictorStudy executes E4, E5, E6 and E9 in one functional pass
// per workload, fanning workloads out over the worker pool. Every
// workload builds its own classifierSet (each with private ARPT
// state), so no predictor state is shared across goroutines.
func (r *Runner) RunPredictorStudy() (*PredictorStudy, error) {
	rows, err := forEach(r, r.predictorPass)
	if err != nil {
		return nil, err
	}
	study := &PredictorStudy{}
	for _, row := range rows {
		study.Figure4 = append(study.Figure4, row.f4)
		study.Table3 = append(study.Table3, row.t3)
		study.Figure5 = append(study.Figure5, row.f5)
		study.Ablation = append(study.Ablation, row.ab)
	}
	return study, nil
}

// predictorPass runs the single shared functional pass for one
// workload and extracts its Figure 4 / Table 3 / Figure 5 / E9 rows.
func (r *Runner) predictorPass(w *workload.Workload) (predictorRows, error) {
	var rows predictorRows
	pr, err := r.Profile(w) // memoized; supplies the oracle
	if err != nil {
		return rows, err
	}
	oracle := pr.Oracle()
	r.logf("predictor study %s ...", w.Name)
	var cs *classifierSet
	err = r.pass(w, "predictor", func(m *vm.Machine) (func(vm.Event), error) {
		var err error
		if cs, err = buildClassifiers(m.Prog, oracle); err != nil {
			return nil, err
		}
		return core.Refs(m, cs.classify), nil
	})
	if err != nil {
		return rows, err
	}

	// Figure 4.
	rows.f4 = Figure4Row{Name: w.Name, AccuracyPct: map[string]float64{}}
	for s, c := range cs.schemes {
		rows.f4.AccuracyPct[s.String()] = c.Stats.Accuracy()
	}
	rows.f4.StaticCoveredPct = cs.schemes[core.SchemeStatic].Stats.StaticFraction()

	// Table 3.
	rows.t3 = Table3Row{
		Name:   w.Name,
		Static: cs.schemes[core.Scheme1Bit].Table.Occupied(),
		GBH:    cs.schemes[core.Scheme1BitGBH].Table.Occupied(),
		CID:    cs.schemes[core.Scheme1BitCID].Table.Occupied(),
		Hybrid: cs.schemes[core.Scheme1BitHybrid].Table.Occupied(),
	}

	// Figure 5.
	rows.f5 = Figure5Row{Name: w.Name, AccuracyPct: map[int]map[HintMode]float64{}}
	for size, byMode := range cs.sized {
		rows.f5.AccuracyPct[size] = map[HintMode]float64{}
		for mode, c := range byMode {
			rows.f5.AccuracyPct[size][mode] = c.Stats.Accuracy()
		}
	}

	// E9 ablation.
	rows.ab = AblationRow{
		Name:      w.Name,
		OneBit:    cs.schemes[core.Scheme1Bit].Stats.Accuracy(),
		TwoBit:    cs.twoBit[core.Scheme2Bit].Stats.Accuracy(),
		OneHybrid: cs.schemes[core.Scheme1BitHybrid].Stats.Accuracy(),
		TwoHybrid: cs.twoBit[core.Scheme2BitHybrid].Stats.Accuracy(),
	}
	return rows, nil
}

// ContextSweep runs E10: hybrid-context accuracy across GBH/CID width
// combinations, on an unlimited table. Workloads fan out over the
// worker pool; each builds its own table cells, and rows come back
// grouped in workload order.
func (r *Runner) ContextSweep(gbhWidths, cidWidths []int) ([]ContextRow, error) {
	perW, err := forEach(r, func(w *workload.Workload) ([]ContextRow, error) {
		type cell struct {
			gbh, cid int
			c        *core.Classifier
		}
		var cells []cell
		err := r.pass(w, "contexts", func(m *vm.Machine) (func(vm.Event), error) {
			cells = nil
			for _, g := range gbhWidths {
				for _, ci := range cidWidths {
					t, err := core.NewARPT(core.Config{Bits: 1, GBHBits: g, CIDBits: ci})
					if err != nil {
						return nil, err
					}
					c, err := core.NewClassifier(
						core.ClassifierConfig{Scheme: core.Scheme1BitHybrid}, core.WithTable(t))
					if err != nil {
						return nil, err
					}
					cells = append(cells, cell{g, ci, c})
				}
			}
			return core.Refs(m, func(ev core.RefEvent) {
				for _, cl := range cells {
					cl.c.Classify(ev.Index, ev.PC, ev.Inst, ev.Ctx, ev.Actual)
				}
			}), nil
		})
		if err != nil {
			return nil, err
		}
		rows := make([]ContextRow, 0, len(cells))
		for _, cl := range cells {
			rows = append(rows, ContextRow{
				Name: w.Name, GBHBits: cl.gbh, CIDBits: cl.cid,
				AccuracyPct: cl.c.Stats.Accuracy(),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ContextRow
	for _, part := range perW {
		rows = append(rows, part...)
	}
	return rows, nil
}

// Figure4Average computes the per-scheme average across rows.
func Figure4Average(rows []Figure4Row) Figure4Row {
	avg := Figure4Row{Name: "Average", AccuracyPct: map[string]float64{}}
	if len(rows) == 0 {
		return avg
	}
	for _, row := range rows {
		for k, v := range row.AccuracyPct {
			avg.AccuracyPct[k] += v / float64(len(rows))
		}
		avg.StaticCoveredPct += row.StaticCoveredPct / float64(len(rows))
	}
	return avg
}
