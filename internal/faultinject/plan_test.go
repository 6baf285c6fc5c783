package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestPlanDeterministic(t *testing.T) {
	shape := RunShape{Insts: 50_000, MemRefs: 12_000}
	a := NewPlan(7, 32, shape)
	b := NewPlan(7, 32, shape)
	if len(a.Faults) != 32 || len(b.Faults) != 32 {
		t.Fatalf("plan sizes %d/%d, want 32", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs between same-seed plans: %v vs %v",
				i, a.Faults[i], b.Faults[i])
		}
	}
	c := NewPlan(8, 32, shape)
	same := 0
	for i := range a.Faults {
		if a.Faults[i] == c.Faults[i] {
			same++
		}
	}
	if same == len(a.Faults) {
		t.Fatalf("different seeds produced identical plans")
	}
}

// TestPlanKnownAnswer pins one plan expansion: fault campaigns must
// replay the same faults for the same seed forever.
func TestPlanKnownAnswer(t *testing.T) {
	want := []Fault{
		{Kind: TableBitFlip, Arg: 3804, Extra: 0xbab12a02},
		{Kind: PortDrop, Arg: 2674},
		{Kind: ForceMispredict, Arg: 7798},
		{Kind: LatencyPerturb, Arg: 1985, Extra: 0x2a},
		{Kind: PortDrop, Arg: 1516},
		{Kind: LatencyPerturb, Arg: 2344, Extra: 0x27},
		{Kind: TableBitFlip, Arg: 1327, Extra: 0xda7326c7},
		{Kind: TableBitFlip, Arg: 7000, Extra: 0x4bbc2f},
		{Kind: LatencyPerturb, Arg: 2813, Extra: 0x40},
		{Kind: ForceMispredict, Arg: 4905},
		{Kind: PortDrop, Arg: 1239},
		{Kind: TableBitFlip, Arg: 11165, Extra: 0x8c448a78},
		{Kind: LatencyPerturb, Arg: 1272, Extra: 0x13},
		{Kind: ForceMispredict, Arg: 651},
		{Kind: ForceMispredict, Arg: 8469},
		{Kind: TableBitFlip, Arg: 8731, Extra: 0x89d20de1},
		{Kind: PortDrop, Arg: 2728},
		{Kind: LatencyPerturb, Arg: 1002, Extra: 0x37},
		{Kind: MemFault, Arg: 27230},
		{Kind: TableBitFlip, Arg: 5096, Extra: 0x9ec9278a},
		{Kind: ForceMispredict, Arg: 8978},
		{Kind: TableBitFlip, Arg: 2059, Extra: 0x2865cd13},
		{Kind: LatencyPerturb, Arg: 367, Extra: 0x2b},
		{Kind: ForceMispredict, Arg: 1062},
		{Kind: PortDrop, Arg: 850},
		{Kind: TableBitFlip, Arg: 5817, Extra: 0xe5a4476b},
		{Kind: ForceMispredict, Arg: 4931},
		{Kind: MemFault, Arg: 13246},
		{Kind: LatencyPerturb, Arg: 2477, Extra: 0x2d},
		{Kind: TableBitFlip, Arg: 10212, Extra: 0x4408ab71},
		{Kind: ForceMispredict, Arg: 10024},
		{Kind: ForceMispredict, Arg: 9291},
	}
	p := NewPlan(7, 32, RunShape{Insts: 50_000, MemRefs: 12_000})
	if !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("NewPlan(7, 32, shape) = %v\nwant %v", p.Faults, want)
	}
}

func TestPlanPlacement(t *testing.T) {
	shape := RunShape{Insts: 10_000, MemRefs: 2_500}
	p := NewPlan(99, 500, shape)
	for _, f := range p.Faults {
		switch f.Kind {
		case ForceMispredict, TableBitFlip:
			if f.Arg >= shape.MemRefs {
				t.Fatalf("%v placed past the reference stream (%d refs)", f, shape.MemRefs)
			}
		case PortDrop, LatencyPerturb:
			if f.Arg >= shape.MemRefs/4 {
				t.Fatalf("%v placed past the low-grant window", f)
			}
			if f.Kind == LatencyPerturb && (f.Extra < 1 || f.Extra > 64) {
				t.Fatalf("%v extra latency out of [1,64]", f)
			}
		case MemFault:
			if f.Arg < shape.Insts/4 || f.Arg >= shape.Insts {
				t.Fatalf("%v placed outside [insts/4, insts)", f)
			}
		default:
			t.Fatalf("unknown kind in %v", f)
		}
	}
}

func TestPlanCoversAllKinds(t *testing.T) {
	shape := RunShape{Insts: 10_000, MemRefs: 2_500}
	seen := make(map[Kind]bool)
	p := NewPlan(3, 200, shape)
	for _, f := range p.Faults {
		seen[f.Kind] = true
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Fatalf("200 drawn faults never produced kind %v", k)
		}
	}
}

func TestFirstMemFault(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: PortDrop, Arg: 3},
		{Kind: MemFault, Arg: 900},
		{Kind: MemFault, Arg: 400},
	}}
	seq, ok := p.FirstMemFault()
	if !ok || seq != 400 {
		t.Fatalf("FirstMemFault = %d,%v, want 400,true", seq, ok)
	}
	if _, ok := (&Plan{}).FirstMemFault(); ok {
		t.Fatalf("empty plan reported a mem fault")
	}
}

func TestInjectorHooks(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: ForceMispredict, Arg: 2},
		{Kind: PortDrop, Arg: 5},
		{Kind: LatencyPerturb, Arg: 7, Extra: 13},
		{Kind: MemFault, Arg: 11},
	}}
	inj := NewInjector(plan)

	if got := inj.SteerFault(1, core.PredictStack); got != core.PredictStack {
		t.Fatalf("unfaulted ref perturbed")
	}
	if got := inj.SteerFault(2, core.PredictStack); got != core.PredictNonStack {
		t.Fatalf("ForceMispredict did not invert the prediction")
	}
	if inj.PortDenied(4, false) || !inj.PortDenied(5, true) {
		t.Fatalf("PortDenied fired on the wrong grant")
	}
	if inj.ExtraLatency(6) != 0 || inj.ExtraLatency(7) != 13 {
		t.Fatalf("ExtraLatency fired on the wrong grant")
	}
	if err := inj.VMFault(10, 0); err != nil {
		t.Fatalf("unfaulted seq aborted: %v", err)
	}
	if err := inj.VMFault(11, 0x40); err == nil {
		t.Fatalf("MemFault seq did not abort")
	}
	if got := inj.FiredCount(); got != 4 {
		t.Fatalf("FiredCount = %d, want 4", got)
	}
	inj.Reset()
	if got := inj.FiredCount(); got != 0 {
		t.Fatalf("FiredCount after Reset = %d, want 0", got)
	}
}

func TestInjectorTableFlip(t *testing.T) {
	table, err := core.NewARPT(core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Faults: []Fault{{Kind: TableBitFlip, Arg: 0, Extra: 17}}}
	inj := NewInjector(plan)
	inj.Table = table

	before := table.Predict(17<<2, core.Context{})
	if got := inj.SteerFault(0, core.PredictStack); got != core.PredictStack {
		t.Fatalf("TableBitFlip perturbed the in-flight prediction")
	}
	after := table.Predict(17<<2, core.Context{})
	if before == after {
		t.Fatalf("TableBitFlip left entry 17 unchanged (%v)", before)
	}
	if inj.FiredCount() != 1 {
		t.Fatalf("flip not recorded as fired")
	}
}

func TestStorm(t *testing.T) {
	never := Storm(1, 0)
	always := Storm(1, 1)
	for ref := uint64(0); ref < 100; ref++ {
		if never(ref, core.PredictStack) != core.PredictStack {
			t.Fatalf("rate-0 storm flipped ref %d", ref)
		}
		if always(ref, core.PredictStack) != core.PredictNonStack {
			t.Fatalf("rate-1 storm spared ref %d", ref)
		}
	}
	a, b := Storm(5, 0.3), Storm(5, 0.3)
	flips := 0
	for ref := uint64(0); ref < 10_000; ref++ {
		ra, rb := a(ref, core.PredictStack), b(ref, core.PredictStack)
		if ra != rb {
			t.Fatalf("same-seed storms disagree at ref %d", ref)
		}
		if ra == core.PredictNonStack {
			flips++
		}
	}
	if flips < 2_500 || flips > 3_500 {
		t.Fatalf("rate-0.3 storm flipped %d/10000 refs", flips)
	}
}

// TestStormKnownAnswer pins the first 64 decisions of one storm: the
// E15 misprediction storms must replay identically for a given seed.
func TestStormKnownAnswer(t *testing.T) {
	storm := Storm(3, 0.25)
	var flipped uint64
	for ref := uint64(0); ref < 64; ref++ {
		if storm(ref, core.PredictStack) != core.PredictStack {
			flipped |= 1 << ref
		}
	}
	if want := uint64(0x3474181010e00264); flipped != want {
		t.Fatalf("Storm(3, 0.25) flipped %#x over refs 0..63, want %#x", flipped, want)
	}
}

func TestKindAndFaultStrings(t *testing.T) {
	cases := map[string]string{
		Fault{Kind: ForceMispredict, Arg: 9}.String():           "force-mispredict@ref9",
		Fault{Kind: TableBitFlip, Arg: 1, Extra: 4}.String():    "table-bit-flip@ref1(entry 4)",
		Fault{Kind: PortDrop, Arg: 2}.String():                  "port-drop@grant2",
		Fault{Kind: LatencyPerturb, Arg: 3, Extra: 10}.String(): "latency-perturb@grant3(+10 cycles)",
		Fault{Kind: MemFault, Arg: 77}.String():                 "mem-fault@seq77",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("Fault.String = %q, want %q", got, want)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("unknown Kind String = %q", Kind(200).String())
	}
}
