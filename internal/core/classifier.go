package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/vm"
)

// HintSource supplies a compiler region hint for a static instruction
// index, or HintNone. Two implementations exist: prog.Program hints
// (the MiniC Figure 6 analysis) and the profile oracle the paper used
// (see profile.Oracle).
type HintSource func(index int) prog.Hint

// ClassifyStats is the accounting behind Figures 4 and 5.
type ClassifyStats struct {
	Total   uint64 // dynamic memory references seen
	Correct uint64 // ... classified into the right stack/non-stack bin

	StaticCovered uint64 // manifest in the addressing mode (rules 1-3)
	HintCovered   uint64 // resolved by a compiler hint
	HintCorrect   uint64 // ... and the hint matched the dynamic region
	TableLookups  uint64 // fell through to the ARPT (or rule-4 default)
	TableCorrect  uint64 // ... and were predicted correctly
}

// Accuracy reports Correct/Total as a percentage.
func (s ClassifyStats) Accuracy() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Correct) / float64(s.Total)
}

// StaticFraction reports the share of dynamic references whose region
// is manifest in the addressing mode (Figure 4's dark lower bars).
func (s ClassifyStats) StaticFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.StaticCovered) / float64(s.Total)
}

// HintAccuracy reports how often the compiler hints that fired were
// right, as a percentage of the hint-covered references.
func (s ClassifyStats) HintAccuracy() float64 {
	if s.HintCovered == 0 {
		return 0
	}
	return 100 * float64(s.HintCorrect) / float64(s.HintCovered)
}

// TableAccuracy reports the ARPT's hit rate on the references that
// actually reached it, as a percentage of the table lookups.
func (s ClassifyStats) TableAccuracy() float64 {
	if s.TableLookups == 0 {
		return 0
	}
	return 100 * float64(s.TableCorrect) / float64(s.TableLookups)
}

// Publish copies the counters into r under the given labels; call once
// when a run finishes.
func (s ClassifyStats) Publish(r *obs.Registry, labels obs.Labels) {
	if r == nil {
		return
	}
	r.Counter("classify_refs_total", "dynamic memory references classified", labels).Add(s.Total)
	r.Counter("classify_correct_total", "references put in the right stack/non-stack bin", labels).Add(s.Correct)
	r.Counter("classify_static_covered_total", "references manifest in the addressing mode", labels).Add(s.StaticCovered)
	r.Counter("classify_hint_covered_total", "references resolved by a compiler hint", labels).Add(s.HintCovered)
	r.Counter("classify_hint_correct_total", "hint-resolved references the hint got right", labels).Add(s.HintCorrect)
	r.Counter("classify_table_lookups_total", "references that fell through to the ARPT", labels).Add(s.TableLookups)
	r.Counter("classify_table_correct_total", "ARPT lookups predicted correctly", labels).Add(s.TableCorrect)
}

// Classifier composes the three §4.2 dispatch-stage information
// sources in priority order: compiler hints (when present), the
// addressing-mode rules, then the ARPT (or the static default for
// SchemeStatic). One Classifier evaluates one scheme configuration.
type Classifier struct {
	Scheme Scheme
	Table  *ARPT      // nil for SchemeStatic
	Hints  HintSource // nil when hints are off
	Stats  ClassifyStats
}

// ClassifierConfig parameterizes a Classifier.
type ClassifierConfig struct {
	// Scheme selects the §3.4.1 prediction scheme.
	Scheme Scheme
	// Entries sizes the ARPT (0 = unlimited, the Figure 4 / Table 3
	// setup; powers of two give the Figure 5 size sweep). Ignored for
	// SchemeStatic, which has no table.
	Entries int
}

// Validate checks structural sanity.
func (c ClassifierConfig) Validate() error {
	if c.Scheme != SchemeStatic && SchemeConfig(c.Scheme).Bits == 0 {
		return fmt.Errorf("core: unknown scheme %v", c.Scheme)
	}
	if c.Entries < 0 || (c.Entries != 0 && c.Entries&(c.Entries-1) != 0) {
		return fmt.Errorf("core: classifier entries must be 0 or a power of two, got %d", c.Entries)
	}
	return nil
}

// ClassifierOption configures a Classifier beyond its scheme.
type ClassifierOption func(*Classifier)

// WithHints installs a compiler-hint source consulted before the
// addressing-mode rules.
func WithHints(hints HintSource) ClassifierOption {
	return func(c *Classifier) { c.Hints = hints }
}

// WithTable installs a pre-built ARPT in place of the one the scheme
// configuration would build — the pipeline model uses this to run the
// Table 4 ARPT (context bits and all) under the hybrid scheme.
func WithTable(t *ARPT) ClassifierOption {
	return func(c *Classifier) { c.Table = t }
}

// NewClassifier builds a classifier from cfg; the configuration must
// validate. Unless WithTable overrides it, non-static schemes get the
// ARPT that SchemeConfig prescribes, sized by cfg.Entries.
func NewClassifier(cfg ClassifierConfig, opts ...ClassifierOption) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Classifier{Scheme: cfg.Scheme}
	for _, opt := range opts {
		opt(c)
	}
	if c.Table == nil && cfg.Scheme != SchemeStatic {
		tcfg := SchemeConfig(cfg.Scheme)
		tcfg.Entries = cfg.Entries
		t, err := NewARPT(tcfg)
		if err != nil {
			return nil, err
		}
		c.Table = t
	}
	return c, nil
}

// Classify predicts the access region of one dynamic memory reference
// and trains on the actual outcome. It returns the prediction made.
func (c *Classifier) Classify(index int, pc uint32, in isa.Inst, ctx Context, actual Prediction) Prediction {
	c.Stats.Total++

	if c.Hints != nil {
		if pred, usable := HintPrediction(c.Hints(index)); usable {
			c.Stats.HintCovered++
			if pred == actual {
				c.Stats.Correct++
				c.Stats.HintCorrect++
			}
			return pred
		}
	}

	pred, covered := StaticPredict(in)
	if covered {
		c.Stats.StaticCovered++
		if pred == actual {
			c.Stats.Correct++
		}
		return pred
	}

	c.Stats.TableLookups++
	if c.Table != nil {
		pred = c.Table.Predict(pc, ctx)
		c.Table.Update(pc, ctx, actual)
	}
	// SchemeStatic keeps rule 4's default (non-stack) prediction.
	if pred == actual {
		c.Stats.Correct++
		c.Stats.TableCorrect++
	}
	return pred
}

// RefEvent is one dynamic memory reference with the fetch-stage context
// the predictor would have seen.
type RefEvent struct {
	Index  int
	PC     uint32
	Addr   uint32 // effective address
	Inst   isa.Inst
	Ctx    Context
	Actual Prediction
}

// Refs adapts a functional run of m into its memory-reference stream:
// the returned observer (pass it to m.Run or m.RunUntil) maintains the
// global branch history and caller identification, and invokes handle
// for every dynamic memory reference. Several classifiers can share
// one stream.
func Refs(m *vm.Machine, handle func(RefEvent)) func(vm.Event) {
	var ctx Context
	return func(ev vm.Event) {
		if ev.Inst.IsMem() {
			ctx.CID = m.Reg(isa.RA)
			handle(RefEvent{
				Index:  ev.Index,
				PC:     ev.PC,
				Addr:   ev.MemAddr,
				Inst:   ev.Inst,
				Ctx:    ctx,
				Actual: ActualOf(ev.Region),
			})
		}
		if ev.Inst.IsBranch() {
			ctx.UpdateGBH(ev.Taken)
		}
	}
}
