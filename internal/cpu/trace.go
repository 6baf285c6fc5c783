// Package cpu implements the paper's detailed timing simulator: a
// trace-driven, cycle-level model of the Table 4 machine — a 16-wide
// out-of-order superscalar with a 256-entry ROB, an LSQ (and, when
// data-decoupled, an LVAQ), multi-ported L1/LVC caches backed by an L2
// and memory, per-class function units with MIPS R10000 latencies, a
// stride value predictor, and ARPT-driven steering with misprediction
// recovery.
//
// The paper's own methodology uses a perfect instruction cache and
// perfect branch prediction "to assert the maximum pressure on the data
// memory bandwidth"; under perfect fetch the dynamic instruction stream
// equals the committed path, which is exactly what a trace-driven model
// replays. Register data dependences, structural hazards, memory-port
// contention, store-to-load forwarding and ARPT mispredictions are all
// modeled cycle by cycle.
package cpu

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// Register-id space for dependence tracking: integer registers are
// 0..31, floating-point registers 32..63.
const (
	numDepRegs = 64
	noReg      = -1
)

// TraceInst is one dynamic instruction prepared for timing simulation.
type TraceInst struct {
	Addr  uint32 // effective address (memory instructions)
	Index int32  // static instruction index
	Class isa.Class
	Src1  int8 // dependence-register ids, noReg when absent
	Src2  int8
	Dest  int8
	Flags uint8
}

// TraceInst flags.
const (
	FlagMem       = 1 << iota // load or store
	FlagLoad                  // load (valid when FlagMem)
	FlagStack                 // actual region is stack
	FlagPredStack             // ARPT/dispatch predicted stack
	FlagVPHit                 // stride value predictor supplies the result
	FlagFPMem                 // memory value is floating point
	FlagEarlyAddr             // address manifest in the addressing mode
)

// IsMem reports whether the instruction touches memory.
func (t *TraceInst) IsMem() bool { return t.Flags&FlagMem != 0 }

// IsLoad reports whether the instruction is a load.
func (t *TraceInst) IsLoad() bool { return t.Flags&FlagLoad != 0 }

// Stack reports whether the access actually fell in the stack region.
func (t *TraceInst) Stack() bool { return t.Flags&FlagStack != 0 }

// PredStack reports the dispatch-time steering prediction.
func (t *TraceInst) PredStack() bool { return t.Flags&FlagPredStack != 0 }

// Mispredicted reports an ARPT steering misprediction.
func (t *TraceInst) Mispredicted() bool {
	return t.IsMem() && t.Stack() != t.PredStack()
}

// AccessInfo projects the instruction onto the cache-steering view:
// the value a cache.Steer predicate sees when the simulator grants
// this access a port.
func (t *TraceInst) AccessInfo() core.AccessInfo {
	return core.AccessInfo{
		Addr:      t.Addr,
		Index:     t.Index,
		IsLoad:    t.IsLoad(),
		IsFP:      t.Flags&FlagFPMem != 0,
		Stack:     t.Stack(),
		PredStack: t.PredStack(),
		EarlyAddr: t.Flags&FlagEarlyAddr != 0,
	}
}

// Trace is a program's dynamic instruction stream with steering
// predictions and value-prediction outcomes precomputed. Predictor
// state evolves in fetch order, which the trace preserves, so one trace
// serves every machine configuration.
//
// A Trace is immutable after BuildTrace returns: Simulate only reads
// it, so a single trace may back any number of concurrent simulations
// (the parallel experiment harness relies on this).
type Trace struct {
	Name  string
	Insts []TraceInst

	// PredictorStats is the classification accounting of the steering
	// classifier used to build the trace.
	PredictorStats core.ClassifyStats
}

// TraceOptions configures trace generation.
type TraceOptions struct {
	// MaxInsts bounds the functional run (0 = VM default).
	MaxInsts uint64
	// Classifier steers memory instructions. Nil uses the paper's
	// pipeline default (static rules + 32K-entry hybrid ARPT, no
	// compiler hints).
	Classifier *core.Classifier
	// DisableValuePred turns the stride value predictor off (the base
	// machine model has it on).
	DisableValuePred bool
	// PerfectSteering steers every reference to its true region,
	// bypassing the classifier — the contamination-free upper bound for
	// steering-policy ablations.
	PerfectSteering bool

	// Ctx cancels trace generation cooperatively: vm.Machine.RunUntil
	// polls it, and it surfaces (wrapped) through the returned error,
	// so a per-workload watchdog deadline aborts the functional
	// pre-pass cleanly. Nil means no cancellation.
	Ctx context.Context

	// SteerFault perturbs the steering prediction of the n-th dynamic
	// memory reference (0-based) after the classifier has produced
	// pred. It is the trace-level fault-injection hook: forced
	// mispredictions and predictor-state corruption enter here. The
	// hook must be deterministic; nil injects nothing.
	SteerFault func(ref uint64, pred core.Prediction) core.Prediction

	// VMFault is installed as the functional machine's FaultHook (see
	// vm.Machine.FaultHook): a non-nil return from it aborts trace
	// generation with a vm.FaultError. Nil injects nothing.
	VMFault func(seq uint64, pc uint32) error

	// Observer, when non-nil, receives every retired vm.Event after it
	// has been folded into the trace — the differential-validation tap
	// used to digest the architectural instruction stream of a faulted
	// trace build without a second functional run.
	Observer func(ev vm.Event)

	// Final, when non-nil, is called once with the functional machine
	// after a successful build, so callers can digest final
	// architectural state (registers, memory, exit code).
	Final func(m *vm.Machine)

	// Out receives program output from the functional run (nil
	// discards it).
	Out io.Writer
}

// valuePredictor is the Table 4 stride-based register value predictor.
type valuePredictor struct {
	last   [16384]uint32
	stride [16384]int32
	conf   [16384]uint8
	seen   [16384]bool
}

func (v *valuePredictor) idx(pc uint32) uint32 { return (pc >> 2) & 16383 }

// observe processes one produced register value and reports whether the
// predictor would have supplied it (confident and correct).
func (v *valuePredictor) observe(pc uint32, val uint32) bool {
	i := v.idx(pc)
	hit := false
	if v.seen[i] {
		pred := v.last[i] + uint32(v.stride[i])
		if v.conf[i] >= 2 && pred == val {
			hit = true
		}
		newStride := int32(val - v.last[i])
		if newStride == v.stride[i] {
			if v.conf[i] < 3 {
				v.conf[i]++
			}
		} else {
			v.conf[i] = 0
			v.stride[i] = newStride
		}
	}
	v.last[i] = val
	v.seen[i] = true
	return hit
}

// depReg maps an architectural register to a dependence id.
func depReg(r isa.Register, fp bool) int8 {
	if fp {
		return int8(r) + 32
	}
	if r == isa.Zero {
		return noReg // $zero never carries a dependence
	}
	return int8(r)
}

// traceChunk is the record count of one collection chunk: BuildTrace
// fills fixed chunks instead of growing one slice, so collection never
// copies a record twice before the final exact-size assembly.
const traceChunk = 1 << 16

// traceTemplate is the static part of one program instruction's trace
// record: everything but the address, the region and predictor
// outcomes, which BuildTrace adds per dynamic event.
type traceTemplate struct {
	ti     TraceInst
	branch bool // conditional branch: feeds the classifier's GBH
}

// newTraceTemplate decodes in's dependence registers, class and static
// memory flags once.
func newTraceTemplate(index int, in isa.Inst) traceTemplate {
	ti := TraceInst{
		Index: int32(index),
		Class: in.Classify(),
		Src1:  noReg, Src2: noReg, Dest: noReg,
	}
	var regs [2]isa.Register
	srcs := make([]int8, 0, 4)
	for _, r := range in.AppendSources(regs[:0]) {
		if d := depReg(r, false); d != noReg {
			srcs = append(srcs, d)
		}
	}
	for _, r := range in.AppendFPSources(regs[:0]) {
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
		if _, covered := core.StaticPredict(in); covered {
			// $sp/$fp/$gp/constant addressing: the effective address
			// is computable at dispatch in any machine (the base
			// register is architecturally stable), so disambiguation
			// need not wait for the AGU.
			ti.Flags |= FlagEarlyAddr
		}
	}
	return traceTemplate{ti: ti, branch: in.IsBranch()}
}

// BuildTrace runs program p functionally and produces its timing trace.
func BuildTrace(p *prog.Program, opts TraceOptions) (*Trace, error) {
	m, err := vm.New(vm.Config{Program: p, Out: opts.Out}, vm.WithFaultHook(opts.VMFault))
	if err != nil {
		return nil, err
	}
	limit := opts.MaxInsts
	if limit == 0 {
		limit = vm.DefaultMaxInsts
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

	templates := make([]traceTemplate, len(p.Text))
	for i, in := range p.Text {
		templates[i] = newTraceTemplate(i, in)
	}
	// Full chunks, then the one being filled. The first chunk is no
	// longer than the limit, so short traces cost no more than they hold.
	var full [][]TraceInst
	chunk := make([]TraceInst, 0, min(limit, traceChunk))
	var vp valuePredictor
	var ctx core.Context
	var memRef uint64 // dynamic memory-reference ordinal for SteerFault

	observe := func(ev vm.Event) {
		tp := &templates[ev.Index]
		ti := tp.ti
		if ti.Flags&FlagMem != 0 {
			ti.Addr = ev.MemAddr
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
				pred = cls.Classify(ev.Index, ev.PC, ev.Inst, ctx, actual)
			}
			if opts.SteerFault != nil {
				pred = opts.SteerFault(memRef, pred)
			}
			memRef++
			if pred == core.PredictStack {
				ti.Flags |= FlagPredStack
			}
		}
		if tp.branch {
			ctx.UpdateGBH(ev.Taken)
		}

		if !opts.DisableValuePred && ti.Dest != noReg && ti.Dest < 32 {
			// The stride predictor covers the integer register stream
			// (the paper: "for the register values").
			if vp.observe(ev.PC, m.Reg(isa.Register(ti.Dest))) {
				ti.Flags |= FlagVPHit
			}
		}

		if len(chunk) == cap(chunk) {
			full = append(full, chunk)
			chunk = make([]TraceInst, 0, traceChunk)
		}
		chunk = append(chunk, ti)
		if opts.Observer != nil {
			opts.Observer(ev)
		}
	}
	if err := m.RunUntil(opts.Ctx, limit, observe); err != nil {
		return nil, fmt.Errorf("cpu: trace generation: %w", err)
	}

	tr := &Trace{Name: p.Name, Insts: chunk, PredictorStats: cls.Stats}
	if len(full) > 0 {
		tr.Insts = make([]TraceInst, 0, len(full)*traceChunk+len(chunk))
		for _, c := range full {
			tr.Insts = append(tr.Insts, c...)
		}
		tr.Insts = append(tr.Insts, chunk...)
	}
	if opts.Final != nil {
		opts.Final(m)
	}
	return tr, nil
}

// Scheme1BitHybridPipeline names the steering classifier configuration
// used in traces (for reporting only).
const Scheme1BitHybridPipeline = core.Scheme1BitHybrid
