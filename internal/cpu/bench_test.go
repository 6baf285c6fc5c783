package cpu

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// benchInsts keeps one benchmark iteration at a few tens of
// milliseconds (about 40 ms on a 2.1 GHz Xeon): long enough that per-Run
// setup noise vanishes, short enough for -count=N comparison runs.
const benchInsts = 200_000

var (
	benchOnce sync.Once
	benchTr   *Trace
	benchErr  error
)

// benchTrace builds (once) the trace both overhead benchmarks share.
func benchTrace(b *testing.B) *Trace {
	b.Helper()
	benchOnce.Do(func() {
		w, ok := workload.ByName("129.compress")
		if !ok {
			panic("129.compress missing")
		}
		p, err := w.Compile(0)
		if err != nil {
			benchErr = err
			return
		}
		benchTr, benchErr = BuildTrace(p, TraceOptions{MaxInsts: benchInsts})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTr
}

// BenchmarkSimNoObs is the baseline: the plain Simulate path with no
// observability construct in sight.
func BenchmarkSimNoObs(b *testing.B) {
	tr := benchTrace(b)
	cfg := Decoupled(3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimNopObs is the same simulation run through the
// observability API with the no-op tracer attached. WithTracer strips
// obs.Nop to nil at construction, so this measures the cost of the
// instrumented engine's nil-tracer guards — the CI guard asserts it
// stays within 2% of BenchmarkSimNoObs (results/obs_overhead.txt).
func BenchmarkSimNopObs(b *testing.B) {
	tr := benchTrace(b)
	sim, err := New(Decoupled(3, 3), WithTracer(obs.Nop{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRingObs bounds the cost of live tracing: every pipeline
// event emitted into the default ring buffer. Not guarded in CI — it
// documents the price of -trace-events, not a regression budget.
func BenchmarkSimRingObs(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring := obs.NewRing(0)
		sim, err := New(Decoupled(3, 3), WithTracer(ring))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTrace measures the trace builder (functional run,
// steering classifier and value predictor) on the first benchInsts
// instructions of 129.compress.
func BenchmarkBuildTrace(b *testing.B) {
	w, ok := workload.ByName("129.compress")
	if !ok {
		b.Fatal("129.compress missing")
	}
	p, err := w.Compile(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTrace(p, TraceOptions{MaxInsts: benchInsts}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchInsts), "ns/inst")
}
