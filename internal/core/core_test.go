package core

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/minicc"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/vm"
)

func memInst(base isa.Register) isa.Inst {
	return isa.Inst{Op: isa.OpLW, Rd: isa.T0, Rs: base, Imm: 0}
}

func TestStaticPredictRules(t *testing.T) {
	cases := []struct {
		base    isa.Register
		pred    Prediction
		covered bool
	}{
		{isa.Zero, PredictNonStack, true}, // rule 1: constant address
		{isa.SP, PredictStack, true},      // rule 2
		{isa.FP, PredictStack, true},      // rule 2
		{isa.GP, PredictNonStack, true},   // rule 3
		{isa.T3, PredictNonStack, false},  // rule 4: default, uncovered
		{isa.S1, PredictNonStack, false},
	}
	for _, c := range cases {
		pred, covered := StaticPredict(memInst(c.base))
		if pred != c.pred || covered != c.covered {
			t.Errorf("StaticPredict(base=%v) = (%v,%v), want (%v,%v)",
				c.base, pred, covered, c.pred, c.covered)
		}
	}
	// Non-memory instructions are never covered.
	if _, covered := StaticPredict(isa.Inst{Op: isa.OpADDI}); covered {
		t.Error("non-memory instruction reported covered")
	}
}

func TestARPT1BitLearnsImmediately(t *testing.T) {
	tab, err := NewARPT(Config{Bits: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400100)
	var ctx Context
	if tab.Predict(pc, ctx) != PredictNonStack {
		t.Error("cold entry should predict non-stack")
	}
	tab.Update(pc, ctx, PredictStack)
	if tab.Predict(pc, ctx) != PredictStack {
		t.Error("1-bit entry did not learn stack")
	}
	tab.Update(pc, ctx, PredictNonStack)
	if tab.Predict(pc, ctx) != PredictNonStack {
		t.Error("1-bit entry did not flip back")
	}
}

func TestARPT2BitHysteresis(t *testing.T) {
	tab, err := NewARPT(Config{Bits: 2})
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400200)
	var ctx Context
	// Train to strongly-stack.
	tab.Update(pc, ctx, PredictStack)
	tab.Update(pc, ctx, PredictStack)
	tab.Update(pc, ctx, PredictStack)
	if tab.Predict(pc, ctx) != PredictStack {
		t.Fatal("2-bit entry not trained")
	}
	// One contrary outcome must not flip it (hysteresis)...
	tab.Update(pc, ctx, PredictNonStack)
	if tab.Predict(pc, ctx) != PredictStack {
		t.Error("2-bit entry flipped after a single contrary outcome")
	}
	// ...but two must.
	tab.Update(pc, ctx, PredictNonStack)
	if tab.Predict(pc, ctx) != PredictNonStack {
		t.Error("2-bit entry did not flip after two contrary outcomes")
	}
}

func TestARPTContextSeparatesCallers(t *testing.T) {
	// With CID context, the same PC indexed from two call sites uses
	// two entries, so an instruction alternating regions per caller is
	// perfectly predictable — the paper's motivation for the CID.
	tab, err := NewARPT(Config{Bits: 1, CIDBits: 24})
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x400300)
	callerA := Context{CID: 0x400800}
	callerB := Context{CID: 0x400900}
	tab.Update(pc, callerA, PredictStack)
	tab.Update(pc, callerB, PredictNonStack)
	if tab.Predict(pc, callerA) != PredictStack {
		t.Error("caller A context lost")
	}
	if tab.Predict(pc, callerB) != PredictNonStack {
		t.Error("caller B context lost")
	}
	if tab.Occupied() != 2 {
		t.Errorf("occupied = %d, want 2", tab.Occupied())
	}
	// Without context the two callers share an entry.
	plain, _ := NewARPT(Config{Bits: 1})
	plain.Update(pc, callerA, PredictStack)
	plain.Update(pc, callerB, PredictNonStack)
	if plain.Occupied() != 1 {
		t.Errorf("no-context occupied = %d, want 1", plain.Occupied())
	}
}

func TestARPTSizedIndexMasking(t *testing.T) {
	tab, err := NewARPT(Config{Bits: 1, Entries: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ctx Context
	// PCs 8 entries apart alias in an 8-entry table (PC>>2 mod 8).
	a, b := uint32(0x400000), uint32(0x400000+8*4)
	if tab.Index(a, ctx) != tab.Index(b, ctx) {
		t.Error("aliasing PCs should share an entry")
	}
	tab.Update(a, ctx, PredictStack)
	if tab.Predict(b, ctx) != PredictStack {
		t.Error("aliased entry not shared")
	}
	if tab.SizeBytes() != 1 {
		t.Errorf("SizeBytes = %d, want 1", tab.SizeBytes())
	}
}

func TestPaperTableCost(t *testing.T) {
	// "The necessary hardware resources for implementing a 32K-entry
	// ARPT is modest — only 4 KB of space."
	tab, err := NewARPT(DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tab.SizeBytes() != 4096 {
		t.Errorf("32K 1-bit ARPT = %d bytes, want 4096", tab.SizeBytes())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Bits: 0},
		{Bits: 3},
		{Bits: 1, Entries: 100}, // not a power of two
		{Bits: 1, Entries: -4},
		{Bits: 1, GBHBits: 40},
	}
	for _, cfg := range bad {
		if _, err := NewARPT(cfg); err == nil {
			t.Errorf("NewARPT(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestGBHShifting(t *testing.T) {
	var ctx Context
	ctx.UpdateGBH(true)
	ctx.UpdateGBH(false)
	ctx.UpdateGBH(true)
	if ctx.GBH != 0b101 {
		t.Errorf("GBH = %b, want 101", ctx.GBH)
	}
}

func TestHintPrediction(t *testing.T) {
	if p, ok := HintPrediction(prog.HintStack); !ok || p != PredictStack {
		t.Error("HintStack not usable/stack")
	}
	if p, ok := HintPrediction(prog.HintNonStack); !ok || p != PredictNonStack {
		t.Error("HintNonStack not usable/nonstack")
	}
	if _, ok := HintPrediction(prog.HintUnknown); ok {
		t.Error("HintUnknown should not be usable")
	}
	if _, ok := HintPrediction(prog.HintNone); ok {
		t.Error("HintNone should not be usable")
	}
}

func TestActualOf(t *testing.T) {
	if ActualOf(region.Stack) != PredictStack {
		t.Error("stack region")
	}
	if ActualOf(region.Data) != PredictNonStack || ActualOf(region.Heap) != PredictNonStack {
		t.Error("non-stack regions")
	}
}

// Property: the unlimited-table index is deterministic and the sized
// index is always within range.
func TestIndexProperties(t *testing.T) {
	tab, _ := NewARPT(Config{Bits: 1, Entries: 1 << 12, GBHBits: 8, CIDBits: 7})
	f := func(pc, gbh, cid uint32) bool {
		ctx := Context{GBH: gbh, CID: cid}
		i1 := tab.Index(pc, ctx)
		i2 := tab.Index(pc, ctx)
		return i1 == i2 && int(i1) < 1<<12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a 1-bit ARPT trained with k outcomes always predicts the
// most recent outcome for the same (pc, ctx).
func TestOneBitLastOutcomeProperty(t *testing.T) {
	f := func(pc uint32, outcomes []bool) bool {
		tab, _ := NewARPT(Config{Bits: 1})
		var ctx Context
		for _, o := range outcomes {
			tab.Update(pc, ctx, Prediction(o))
		}
		if len(outcomes) == 0 {
			return tab.Predict(pc, ctx) == PredictNonStack
		}
		return tab.Predict(pc, ctx) == Prediction(outcomes[len(outcomes)-1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// End-to-end: compile the paper's Figure 1 example and check that a
// hybrid classifier reaches high accuracy while a static-only one does
// not mispredict covered references.
func TestClassifierEndToEnd(t *testing.T) {
	src := `
int c[64];
int sink;
void foo(int *parm1) {
	int i;
	int a;
	int *b = malloc(64 * sizeof(int));
	for (i = 0; i < 64; i++) {
		b[i] = c[i] + *parm1;
	}
	a = b[10];
	sink = a;
}
int main() {
	int local = 3;
	int j;
	for (j = 0; j < 8; j++) {
		foo(&local);   // *parm1 is a stack access from this site
		foo(c);        // ... and a data access from this one
	}
	return sink;
}`
	p, err := minicc.Compile("fig1.c", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}

	static, _ := NewClassifier(ClassifierConfig{Scheme: SchemeStatic})
	oneBit, _ := NewClassifier(ClassifierConfig{Scheme: Scheme1Bit})
	hybrid, _ := NewClassifier(ClassifierConfig{Scheme: Scheme1BitHybrid})
	all := []*Classifier{static, oneBit, hybrid}

	err = m.Run(Refs(m, func(ev RefEvent) {
		for _, c := range all {
			c.Classify(ev.Index, ev.PC, ev.Inst, ev.Ctx, ev.Actual)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}

	if static.Stats.Total == 0 {
		t.Fatal("no memory references observed")
	}
	// This kernel is array-heavy (few frame accesses), so static
	// coverage is modest; it must still be present (prologue saves,
	// $gp-based global accesses).
	if static.Stats.StaticCovered == 0 {
		t.Error("no reference was covered by the addressing-mode rules")
	}
	if a := oneBit.Stats.Accuracy(); a < 90 {
		t.Errorf("1BIT accuracy %.2f%%, want >= 90%%", a)
	}
	if a := hybrid.Stats.Accuracy(); a < oneBit.Stats.Accuracy()-1 {
		t.Errorf("hybrid accuracy %.2f%% far below 1BIT %.2f%%", a, oneBit.Stats.Accuracy())
	}
	// The hybrid context should let the predictor separate the two
	// call sites of foo for *parm1.
	if hybrid.Table.Occupied() < oneBit.Table.Occupied() {
		t.Errorf("hybrid occupied %d < plain %d", hybrid.Table.Occupied(), oneBit.Table.Occupied())
	}
}

func TestClassifierWithCompilerHints(t *testing.T) {
	src := `
int g[32];
int main() {
	int a[32];
	int i;
	int s = 0;
	for (i = 0; i < 32; i++) { g[i] = i; a[i] = i; }
	for (i = 0; i < 32; i++) { s += g[i] + a[i]; }
	return s;
}`
	p, err := minicc.Compile("hints.c", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	hinted, _ := NewClassifier(ClassifierConfig{Scheme: Scheme1Bit}, WithHints(p.HintAt))
	if err := core_trace(m, hinted); err != nil {
		t.Fatal(err)
	}
	if hinted.Stats.Accuracy() < 99.9 {
		t.Errorf("hinted accuracy = %.3f%%, want ~100%%", hinted.Stats.Accuracy())
	}
	if hinted.Stats.HintCovered == 0 {
		t.Error("no references were covered by hints")
	}
}

func core_trace(m *vm.Machine, c *Classifier) error {
	return m.Run(Refs(m, func(ev RefEvent) {
		c.Classify(ev.Index, ev.PC, ev.Inst, ev.Ctx, ev.Actual)
	}))
}
