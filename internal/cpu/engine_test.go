package cpu

import (
	"context"
	"errors"
	"testing"

	"repro/internal/workload"
)

// compressTrace builds a trace of the first n instructions of
// 129.compress.
func compressTrace(t *testing.T, n uint64) *Trace {
	t.Helper()
	w, ok := workload.ByName("129.compress")
	if !ok {
		t.Fatal("129.compress missing")
	}
	p, err := w.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildTrace(p, TraceOptions{MaxInsts: n})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tr.Insts)) != n {
		t.Fatalf("trace has %d instructions, want %d", len(tr.Insts), n)
	}
	return tr
}

// TestSimulateZeroAllocsPerInst is the allocation gate: Simulate sizes
// its ROB ring, event wheel, queues and caches once per run, so it allocates
// per run and never per simulated instruction — a trace ten times
// longer must cost exactly as many allocations.
func TestSimulateZeroAllocsPerInst(t *testing.T) {
	long := compressTrace(t, 50_000)
	short := &Trace{Name: long.Name, Insts: long.Insts[:5_000]}
	for _, cfg := range []Config{Conventional(2, 2), Decoupled(3, 3)} {
		allocs := func(tr *Trace) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Simulate(tr, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if s, l := allocs(short), allocs(long); s != l {
			t.Errorf("%s: %.0f allocations for 5k instructions, %.0f for 50k: the engine allocates per instruction",
				cfg.Name, s, l)
		}
	}
}

// TestBuildTraceAllocsPerInst is the trace builder's allocation gate:
// static fields come from per-instruction templates and records are
// collected in fixed chunks, so a build allocates per run and per
// 64Ki-record chunk, never per instruction.
func TestBuildTraceAllocsPerInst(t *testing.T) {
	const n = 200_000
	w, ok := workload.ByName("129.compress")
	if !ok {
		t.Fatal("129.compress missing")
	}
	p, err := w.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := BuildTrace(p, TraceOptions{MaxInsts: n}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / n; per >= 0.001 {
		t.Errorf("%.0f allocations for %d instructions (%.4f per instruction), want under 0.001", allocs, n, per)
	}
}

// TestSimulateCancelled: a context cancelled before the run must stop
// the engine at its next poll and surface context.Canceled, wrapped.
func TestSimulateCancelled(t *testing.T) {
	tr := compressTrace(t, 100_000)
	cfg := Conventional(2, 2)
	full, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cycles <= 0x4000 {
		t.Fatalf("run ends at cycle %d, before the first context poll", full.Cycles)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim, err := New(cfg, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want an error wrapping context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled run returned a result: %+v", res)
	}
}
