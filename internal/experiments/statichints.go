package experiments

import (
	"repro/internal/core"
	"repro/internal/static"
	"repro/internal/vm"
	"repro/internal/workload"
)

// HintsBinary is the fourth hint mode: region hints recovered from the
// assembled binary by internal/static's abstract interpretation (as
// opposed to the source-level Figure 6 pass).
const HintsBinary HintMode = HintsCompiler + 1

// StaticHintRow compares, for one workload, the binary-level analyzer's
// hints against the source-level hints and the profile oracle: how many
// dynamic references each hint source covers, how often the fired hints
// are right, and the end-to-end 1BIT-HYBRID accuracy with each source.
type StaticHintRow struct {
	Name string

	// Coverage and accuracy of fired hints, % of dynamic references.
	BinaryCoveredPct float64
	BinaryAccPct     float64
	SourceCoveredPct float64
	SourceAccPct     float64

	// Disagreements counts binary hints that contradicted the dynamic
	// region — the soundness headline; it must be zero.
	Disagreements uint64

	// AnalyzerErrs counts error-severity diagnostics the analyzer
	// raised against the compiled program (also zero for sound codegen).
	AnalyzerErrs int

	// AccuracyPct is end-to-end 1BIT-HYBRID (unlimited table) accuracy
	// per hint mode.
	AccuracyPct map[HintMode]float64
}

// StaticHintModes orders the modes of the E14 study.
var StaticHintModes = []HintMode{HintsOff, HintsCompiler, HintsBinary, HintsOracle}

// StaticHintStudy runs E14: the binary-level static analyzer as a hint
// source for every workload, against the Fig. 6 source hints and the
// dynamic oracle.
func (r *Runner) StaticHintStudy() ([]StaticHintRow, error) {
	return forEach(r, r.staticHintPass)
}

func (r *Runner) staticHintPass(w *workload.Workload) (StaticHintRow, error) {
	row := StaticHintRow{Name: w.Name, AccuracyPct: map[HintMode]float64{}}
	p, err := r.Program(w)
	if err != nil {
		return row, err
	}
	pr, err := r.Profile(w)
	if err != nil {
		return row, err
	}
	an := static.Analyze(p)
	row.AnalyzerErrs = len(an.Errors())

	oracle := pr.Oracle()
	r.logf("static hint study %s ...", w.Name)
	var cls map[HintMode]*core.Classifier
	err = r.pass(w, "static-hints", func(m *vm.Machine) (func(vm.Event), error) {
		cls = make(map[HintMode]*core.Classifier, len(StaticHintModes))
		row.Disagreements = 0
		for _, mode := range StaticHintModes {
			var hints core.HintSource
			switch mode {
			case HintsOracle:
				hints = oracle
			case HintsCompiler:
				hints = p.HintAt
			case HintsBinary:
				hints = an.HintAt
			}
			c, err := core.NewClassifier(core.ClassifierConfig{Scheme: core.Scheme1BitHybrid}, core.WithHints(hints))
			if err != nil {
				return nil, err
			}
			cls[mode] = c
		}
		return core.Refs(m, func(ev core.RefEvent) {
			for _, c := range cls {
				c.Classify(ev.Index, ev.PC, ev.Inst, ev.Ctx, ev.Actual)
			}
			if pred, usable := core.HintPrediction(an.HintAt(ev.Index)); usable && pred != ev.Actual {
				row.Disagreements++
			}
		}), nil
	})
	if err != nil {
		return row, err
	}

	bin, src := cls[HintsBinary].Stats, cls[HintsCompiler].Stats
	if bin.Total > 0 {
		row.BinaryCoveredPct = 100 * float64(bin.HintCovered) / float64(bin.Total)
		row.SourceCoveredPct = 100 * float64(src.HintCovered) / float64(src.Total)
	}
	row.BinaryAccPct = bin.HintAccuracy()
	row.SourceAccPct = src.HintAccuracy()
	for mode, c := range cls {
		row.AccuracyPct[mode] = c.Stats.Accuracy()
	}
	return row, nil
}
