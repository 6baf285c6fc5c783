package cpu

// tracebuild_ref_test.go is a frozen copy of BuildTrace as it stood
// before the per-index template and chunked collection: every event
// re-derives its static fields from the decoded instruction and the
// trace grows by append. It is the oracle TestBuildTraceMatchesReference
// compares the production builder against; keep it byte-for-byte in
// behaviour, not in speed.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/minicc"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/workload"
)

func refBuildTrace(p *prog.Program, opts TraceOptions) (*Trace, error) {
	m, err := vm.New(vm.Config{Program: p, Out: opts.Out})
	if err != nil {
		return nil, err
	}
	limit := opts.MaxInsts
	if limit == 0 {
		limit = vm.DefaultMaxInsts
	}
	m.MaxInsts = limit + 1
	if opts.Ctx != nil || opts.VMFault != nil {
		ctx, vmFault := opts.Ctx, opts.VMFault
		m.FaultHook = func(seq uint64, pc uint32) error {
			if ctx != nil && seq&0x3FF == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if vmFault != nil {
				return vmFault(seq, pc)
			}
			return nil
		}
	}
	cls := opts.Classifier
	if cls == nil {
		table, err := core.NewARPT(core.DefaultPipelineConfig())
		if err != nil {
			return nil, err
		}
		cls, err = core.NewClassifier(
			core.ClassifierConfig{Scheme: Scheme1BitHybridPipeline},
			core.WithTable(table))
		if err != nil {
			return nil, err
		}
	}

	tr := &Trace{Name: p.Name}
	var vp valuePredictor
	var ctx core.Context
	var memRef uint64

	observe := func(ev vm.Event) {
		in := ev.Inst
		ti := TraceInst{
			Index: int32(ev.Index),
			Class: in.Classify(),
			Src1:  noReg, Src2: noReg, Dest: noReg,
		}

		srcs := make([]int8, 0, 4)
		for _, r := range in.AppendSources(nil) {
			if d := depReg(r, false); d != noReg {
				srcs = append(srcs, d)
			}
		}
		for _, r := range in.AppendFPSources(nil) {
			srcs = append(srcs, depReg(r, true))
		}
		if len(srcs) > 0 {
			ti.Src1 = srcs[0]
		}
		if len(srcs) > 1 {
			ti.Src2 = srcs[1]
		}
		if d, ok := in.Dest(); ok {
			ti.Dest = depReg(d, false)
		} else if d, ok := in.FPDest(); ok {
			ti.Dest = depReg(d, true)
		}

		if in.IsMem() {
			ti.Flags |= FlagMem
			if in.IsLoad() {
				ti.Flags |= FlagLoad
			}
			if in.IsFPMem() {
				ti.Flags |= FlagFPMem
			}
			ti.Addr = ev.MemAddr
			if _, covered := core.StaticPredict(in); covered {
				ti.Flags |= FlagEarlyAddr
			}
			actual := core.ActualOf(ev.Region)
			if actual == core.PredictStack {
				ti.Flags |= FlagStack
			}
			var pred core.Prediction
			if opts.PerfectSteering {
				pred = actual
				cls.Stats.Total++
				cls.Stats.Correct++
			} else {
				ctx.CID = m.Reg(isa.RA)
				pred = cls.Classify(ev.Index, ev.PC, in, ctx, actual)
			}
			if opts.SteerFault != nil {
				pred = opts.SteerFault(memRef, pred)
			}
			memRef++
			if pred == core.PredictStack {
				ti.Flags |= FlagPredStack
			}
		}
		if in.IsBranch() {
			ctx.UpdateGBH(ev.Taken)
		}

		if !opts.DisableValuePred && ti.Dest != noReg && ti.Dest < 32 {
			if vp.observe(ev.PC, m.Reg(isa.Register(ti.Dest))) {
				ti.Flags |= FlagVPHit
			}
		}

		tr.Insts = append(tr.Insts, ti)
	}
	for !m.Halted() && m.Seq() < limit {
		ev, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("cpu: trace generation: %w", err)
		}
		observe(ev)
		if opts.Observer != nil {
			opts.Observer(ev)
		}
	}
	tr.PredictorStats = cls.Stats
	if opts.Final != nil {
		opts.Final(m)
	}
	return tr, nil
}

// eventTally is a counting Observer: the number of events it saw and
// an order-sensitive digest of their sequence numbers and PCs.
type eventTally struct {
	n, digest uint64
}

func (e *eventTally) observe(ev vm.Event) {
	e.n++
	e.digest = e.digest*1099511628211 ^ ev.Seq<<32 ^ uint64(ev.PC)
}

// everySeventhFlipped is a deterministic SteerFault that inverts the
// prediction of every 7th memory reference.
func everySeventhFlipped(ref uint64, pred core.Prediction) core.Prediction {
	if ref%7 == 6 {
		return !pred
	}
	return pred
}

// diffBuild builds p with both builders under the options mk returns
// (called once per builder, so stateful options such as an Observer
// are not shared) and fails unless the traces are identical.
func diffBuild(t *testing.T, label string, p *prog.Program, mk func() (TraceOptions, *eventTally)) {
	t.Helper()
	opts, gotTally := mk()
	got, err := BuildTrace(p, opts)
	if err != nil {
		t.Fatalf("%s: BuildTrace: %v", label, err)
	}
	opts, wantTally := mk()
	want, err := refBuildTrace(p, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if got.Name != want.Name || got.PredictorStats != want.PredictorStats {
		t.Errorf("%s: name/stats %q %+v, reference %q %+v",
			label, got.Name, got.PredictorStats, want.Name, want.PredictorStats)
	}
	if len(got.Insts) != len(want.Insts) {
		t.Fatalf("%s: %d instructions, reference %d", label, len(got.Insts), len(want.Insts))
	}
	for i := range got.Insts {
		if got.Insts[i] != want.Insts[i] {
			t.Fatalf("%s: inst %d = %+v, reference %+v", label, i, got.Insts[i], want.Insts[i])
		}
	}
	if !reflect.DeepEqual(gotTally, wantTally) {
		t.Errorf("%s: observer saw %+v, reference %+v", label, gotTally, wantTally)
	}
}

// TestBuildTraceMatchesReference pins the production trace builder to
// the frozen reference on every workload, truncated, under each option
// that changes what an event contributes.
func TestBuildTraceMatchesReference(t *testing.T) {
	const n = 50_000
	variants := []struct {
		name string
		mk   func() (TraceOptions, *eventTally)
	}{
		{"default", func() (TraceOptions, *eventTally) {
			return TraceOptions{MaxInsts: n}, nil
		}},
		{"perfect-steering", func() (TraceOptions, *eventTally) {
			return TraceOptions{MaxInsts: n, PerfectSteering: true}, nil
		}},
		{"no-value-pred", func() (TraceOptions, *eventTally) {
			return TraceOptions{MaxInsts: n, DisableValuePred: true}, nil
		}},
		{"steer-fault", func() (TraceOptions, *eventTally) {
			return TraceOptions{MaxInsts: n, SteerFault: everySeventhFlipped}, nil
		}},
		{"observer", func() (TraceOptions, *eventTally) {
			tally := &eventTally{}
			return TraceOptions{MaxInsts: n, Observer: tally.observe}, tally
		}},
	}
	for _, w := range workload.All() {
		p, err := w.Compile(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			diffBuild(t, w.Name+"/"+v.name, p, v.mk)
		}
	}
}

// TestBuildTraceChunkBoundaries: limits on either side of the
// collection chunk size, and a program that halts on its own after
// several chunks, must match the reference too.
func TestBuildTraceChunkBoundaries(t *testing.T) {
	w, ok := workload.ByName("129.compress")
	if !ok {
		t.Fatal("129.compress missing")
	}
	p, err := w.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{traceChunk - 1, traceChunk, traceChunk + 1, 3 * traceChunk} {
		diffBuild(t, fmt.Sprintf("limit %d", n), p, func() (TraceOptions, *eventTally) {
			return TraceOptions{MaxInsts: n}, nil
		})
	}

	halting, err := minicc.Compile("halts.c", `
int a[256];
int main() {
	int i;
	int it;
	int s = 0;
	for (it = 0; it < 40; it++)
		for (i = 0; i < 256; i++) {
			a[i] = a[i] + it;
			s += a[i];
		}
	return s & 255;
}`)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refBuildTrace(halting, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l := len(ref.Insts); l <= 2*traceChunk || uint64(l) >= vm.DefaultMaxInsts {
		t.Fatalf("halting program retired %d instructions; want a few chunks, under the default limit", l)
	}
	diffBuild(t, "halting", halting, func() (TraceOptions, *eventTally) {
		return TraceOptions{}, nil
	})
}
