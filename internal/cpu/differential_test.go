package cpu

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/seeded"
)

// synthRNG is a seeded stream: the synthetic traces must not depend
// on math/rand's generator staying the same across Go releases.
type synthRNG struct{ seeded.Stream }

func (r *synthRNG) intn(n int) int { return int(r.Intn(uint64(n))) }

// chance reports true with probability pct/100.
func (r *synthRNG) chance(pct int) bool { return r.intn(100) < pct }

// synthTrace builds a seeded synthetic trace of n instructions that
// stresses what real kernels exercise only thinly: every function-unit
// class, dependence chains through a few hot registers, loads and
// stores aliasing a small pool of words (including different bytes of
// one word), loads that also read a second register, stack and
// non-stack regions with a large share of forced steering
// mispredictions and a few region flags that disagree with the address,
// far addresses that miss to memory, FlagEarlyAddr and FlagVPHit.
func synthTrace(seed uint64, n int) *Trace {
	rng := synthRNG{seeded.Stream(seed)}
	tr := &Trace{Name: fmt.Sprintf("synth-%d", seed), Insts: make([]TraceInst, n)}
	var recent [8]int8 // recently written registers: the chain sources
	for i := range recent {
		recent[i] = int8(1 + i)
	}
	src := func() int8 {
		switch {
		case rng.chance(15):
			return noReg
		case rng.chance(70):
			return recent[rng.intn(len(recent))]
		}
		return int8(rng.intn(numDepRegs))
	}
	addr := func() (uint32, bool) {
		var word uint32
		stack := false
		switch k := rng.intn(100); {
		case k < 40: // hot stack frame
			word, stack = 0x7fff0000/4-uint32(rng.intn(8)), true
		case k < 80: // hot globals
			word = 0x10000000/4 + uint32(rng.intn(32))
		case k < 95: // a wider heap array
			word = 0x10100000/4 + uint32(rng.intn(4096))
		default: // far and scattered: L2 and memory misses
			word = 0x20000000/4 + uint32(rng.intn(1<<20))
		}
		return word<<2 | uint32(rng.intn(4)), stack
	}
	classes := []isa.Class{
		isa.ClassIntALU, isa.ClassIntALU, isa.ClassIntALU, isa.ClassIntALU,
		isa.ClassLoad, isa.ClassLoad, isa.ClassLoad, isa.ClassStore, isa.ClassStore,
		isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPALU, isa.ClassFPMul, isa.ClassFPDiv,
		isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn, isa.ClassNop,
		isa.ClassSyscall,
	}
	for i := range tr.Insts {
		ti := TraceInst{
			Index: int32(rng.intn(512)),
			Class: classes[rng.intn(len(classes))],
			Src1:  src(), Src2: src(), Dest: noReg,
		}
		switch ti.Class {
		case isa.ClassLoad, isa.ClassStore:
			ti.Flags |= FlagMem
			var stack bool
			ti.Addr, stack = addr()
			if stack != rng.chance(2) { // a region flag the address disagrees with
				ti.Flags |= FlagStack
			}
			if stack != rng.chance(15) { // forced mispredictions
				ti.Flags |= FlagPredStack
			}
			if rng.chance(35) {
				ti.Flags |= FlagEarlyAddr
			}
			if rng.chance(15) {
				ti.Flags |= FlagFPMem
			}
			if ti.Class == isa.ClassLoad {
				ti.Flags |= FlagLoad
				if rng.chance(85) { // a few loads read a second register
					ti.Src2 = noReg
				}
				ti.Dest = int8(rng.intn(numDepRegs))
			}
		case isa.ClassBranch, isa.ClassJump, isa.ClassNop, isa.ClassSyscall:
		default:
			ti.Dest = int8(rng.intn(numDepRegs))
		}
		if ti.Dest != noReg {
			recent[rng.intn(len(recent))] = ti.Dest
			if ti.Dest < 32 && rng.chance(20) {
				ti.Flags |= FlagVPHit
			}
		}
		tr.Insts[i] = ti
	}
	return tr
}

// diffConfigs is the machine set of the differential: every Figure 8
// configuration plus configurations that reach the paths Figure 8 does
// not — no fast forwarding, pattern and pchash steering, a large
// penalty, and small non-power-of-two structures that keep the ROB and
// both queues full.
func diffConfigs(t *testing.T) []Config {
	t.Helper()
	cfgs := Figure8Configs()
	noFF := Decoupled(2, 2)
	noFF.Name, noFF.FastForward = "(2+2,noff)", false
	cfgs = append(cfgs, noFF)
	for _, p := range []CustomParams{
		{L1Ports: 3, LVCPorts: 3, Steer: cache.SteerPattern},
		{L1Ports: 2, LVCPorts: 1, Steer: cache.SteerPCHash, Penalty: 4, LVCSizeKB: 1},
	} {
		c, err := Custom(p)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c)
	}
	small := Decoupled(1, 1)
	small.Name = "(1+1,small)"
	small.IssueWidth, small.ROBSize, small.LSQSize, small.LVAQSize = 4, 100, 7, 5
	small.IntALU, small.FPALU, small.IntMulDiv, small.FPMulDiv = 2, 1, 1, 1
	tiny := Conventional(1, 3)
	tiny.Name = "(1+0,tiny)"
	tiny.IssueWidth, tiny.ROBSize, tiny.LSQSize = 3, 37, 3
	return append(cfgs, small, tiny)
}

// recTracer records every event.
type recTracer struct{ evs []obs.Event }

func (r *recTracer) Emit(ev obs.Event) { r.evs = append(r.evs, ev) }

// recRecovery records every RecoveryObserver call and fails the
// failAt-th one (1-based; 0 never fails).
type recRecovery struct {
	calls  []string
	failAt int
}

func (r *recRecovery) note(call string) error {
	r.calls = append(r.calls, call)
	if len(r.calls) == r.failAt {
		return fmt.Errorf("observer rejects call %d (%s)", r.failAt, call)
	}
	return nil
}

func (r *recRecovery) Detect(seq int64) error { return r.note(fmt.Sprintf("detect %d", seq)) }
func (r *recRecovery) Cancel(seq int64) error { return r.note(fmt.Sprintf("cancel %d", seq)) }
func (r *recRecovery) Replay(seq int64, pen int) error {
	return r.note(fmt.Sprintf("replay %d pen%d", seq, pen))
}

// recFaulter is a seeded MemFaulter that denies about one port grant
// in seven and delays about one load in six, recording every query.
// A far faulter makes about a quarter of those delays 200-300 cycles,
// so some completions fall past any timing-wheel horizon.
type recFaulter struct {
	seed  uint64
	far   bool
	calls []string
}

func (f *recFaulter) hash(n uint64) uint64 { return seeded.Derive(f.seed, n) }

func (f *recFaulter) PortDenied(n uint64, lvc bool) bool {
	f.calls = append(f.calls, fmt.Sprintf("port %d %v", n, lvc))
	return f.hash(n)%7 == 0
}

func (f *recFaulter) ExtraLatency(n uint64) int {
	f.calls = append(f.calls, fmt.Sprintf("lat %d", n))
	if h := f.hash(n) >> 8; h%6 == 0 {
		if f.far && (h>>16)%4 == 0 {
			return 200 + int(h>>24)%101
		}
		return 1 + int(h>>8)%40
	}
	return 0
}

// diffRun is one engine's observable output for one simulation.
type diffRun struct {
	res     *Result
	err     string
	events  []obs.Event
	recov   []string
	faults  []string
	metrics []obs.Sample
}

// diffOpts is one differential run's instrumentation.
type diffOpts struct {
	instrumented bool   // tracer, recovery observer and metrics attached
	faultSeed    uint64 // seeds a recFaulter when instrumented (0: none)
	far          bool   // the recFaulter also adds 200-300 cycle delays
	failAt       int    // the recovery observer rejects this call (0: none)
}

// runEngine simulates tr on cfg through run (Sim.run or refRun) with
// the given instrumentation and collects everything it observably did.
func runEngine(run func(*Sim, *Trace) (*Result, error), tr *Trace, cfg Config, o diffOpts) (diffRun, error) {
	var (
		ft  recTracer
		rec = recRecovery{failAt: o.failAt}
		fl  = recFaulter{seed: o.faultSeed, far: o.far}
		reg = obs.NewRegistry()
	)
	opts := []Option{WithContext(context.Background())}
	if o.instrumented {
		opts = append(opts, WithTracer(&ft), WithRecovery(&rec),
			WithMetrics(reg, obs.Labels{"suite": "diff"}))
		if o.faultSeed != 0 {
			opts = append(opts, WithFaults(&fl))
		}
	}
	sm, err := New(cfg, opts...)
	if err != nil {
		return diffRun{}, err
	}
	res, err := run(sm, tr)
	out := diffRun{res: res, events: ft.evs, recov: rec.calls, faults: fl.calls, metrics: reg.Snapshot()}
	if err != nil {
		out.err = err.Error()
	}
	return out, nil
}

// diffCheck runs both engines and fails on the first observable
// difference: Result, error, tracer stream, recovery calls, faulter
// queries or published histograms.
func diffCheck(t *testing.T, tr *Trace, cfg Config, o diffOpts) diffRun {
	t.Helper()
	got, err := runEngine((*Sim).run, tr, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runEngine(refRun, tr, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	tag := fmt.Sprintf("%s on %s (%+v)", tr.Name, cfg.Name, o)
	if got.err != want.err {
		t.Fatalf("%s: error %q, reference %q", tag, got.err, want.err)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: result differs:\n got %+v\nwant %+v", tag, got.res, want.res)
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d tracer events, reference %d", tag, len(got.events), len(want.events))
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: tracer event %d = %+v, reference %+v", tag, i, got.events[i], want.events[i])
		}
	}
	if !reflect.DeepEqual(got.recov, want.recov) {
		t.Fatalf("%s: recovery calls differ:\n got %v\nwant %v", tag, got.recov, want.recov)
	}
	if !reflect.DeepEqual(got.faults, want.faults) {
		t.Fatalf("%s: %d faulter queries differ from the reference's %d", tag, len(got.faults), len(want.faults))
	}
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		t.Fatalf("%s: published metrics differ", tag)
	}
	return got
}

// TestEngineMatchesReference is the engine's independent oracle: on
// seeded synthetic traces and a compiled kernel, the production engine
// must reproduce the frozen reference engine exactly — Result, tracer
// stream, RecoveryObserver sequence, MemFaulter queries and occupancy
// histograms — with and without instrumentation and injected faults.
// The far-fault case delays loads by 200-300 cycles, past the horizon
// of any event queue that buckets the near future.
func TestEngineMatchesReference(t *testing.T) {
	traces := []*Trace{trace(t, loopSrc)}
	for seed := uint64(1); seed <= 4; seed++ {
		traces = append(traces, synthTrace(seed, 6000))
	}
	var recoveries, forwards, fastForwards, portStalls, farCompletions uint64
	for _, tr := range traces {
		for _, cfg := range diffConfigs(t) {
			diffCheck(t, tr, cfg, diffOpts{})
			diffCheck(t, tr, cfg, diffOpts{instrumented: true})
			r := diffCheck(t, tr, cfg, diffOpts{instrumented: true, faultSeed: 7})
			recoveries += r.res.Recoveries
			forwards += r.res.Forwards
			fastForwards += r.res.FastForwards
			for _, ev := range r.events {
				if ev.Kind == obs.EvPortStall {
					portStalls++
				}
			}
			r = diffCheck(t, tr, cfg, diffOpts{instrumented: true, faultSeed: 11, far: true})
			farCompletions += completionsAfter(r.events, 200)
		}
	}
	// The differential is only as strong as the paths it reaches.
	if recoveries == 0 || forwards == 0 || fastForwards == 0 || portStalls == 0 || farCompletions == 0 {
		t.Errorf("differential missed a path: recoveries %d forwards %d fast forwards %d port stalls %d far completions %d",
			recoveries, forwards, fastForwards, portStalls, farCompletions)
	}
}

// completionsAfter counts the loads in a tracer stream that complete at
// least d cycles after their cache access was granted.
func completionsAfter(evs []obs.Event, d int64) uint64 {
	granted := make(map[int64]int64)
	var n uint64
	for _, ev := range evs {
		switch ev.Kind {
		case obs.EvCacheAccess:
			granted[ev.Seq] = ev.Cycle
		case obs.EvComplete:
			if c, ok := granted[ev.Seq]; ok && ev.Cycle-c >= d {
				n++
			}
			delete(granted, ev.Seq)
		}
	}
	return n
}

// TestEngineMatchesReferenceOnObserverError: an observer that rejects a
// recovery call mid-run must abort both engines at the same call with
// the same error.
func TestEngineMatchesReferenceOnObserverError(t *testing.T) {
	tr := synthTrace(4, 3000)
	for _, failAt := range []int{1, 2, 3, 10} {
		r := diffCheck(t, tr, Decoupled(2, 3), diffOpts{instrumented: true, failAt: failAt})
		if !strings.Contains(r.err, "observer rejects") {
			t.Fatalf("failAt %d: run did not abort on the observer error (err %q)", failAt, r.err)
		}
	}
}
