package profile

import (
	"reflect"
	"testing"

	"repro/internal/minicc"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/seeded"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// bruteHist recounts every warm window of each size over a region
// stream from scratch: hist[k][r][c] is the number of windows of
// sizes[k] instructions ending at some instruction that held exactly c
// references to region r.
func bruteHist(stream []uint8, sizes []int) [][region.Count][]uint64 {
	hist := make([][region.Count][]uint64, len(sizes))
	for k, size := range sizes {
		for r := range hist[k] {
			hist[k][r] = make([]uint64, size+1)
		}
		for end := size - 1; end < len(stream); end++ {
			var n [region.Count]int
			for _, cur := range stream[end-size+1 : end+1] {
				if cur != noRegion {
					n[cur]++
				}
			}
			for r := range n {
				hist[k][r][n[r]]++
			}
		}
	}
	return hist
}

// TestWindowHistogramMatchesBruteForce: the incremental ring must count
// exactly the windows a full recount finds, on a seeded synthetic
// region stream (with sizes whose ring slots collide) and on a compiled
// kernel's real stream through Run.
func TestWindowHistogramMatchesBruteForce(t *testing.T) {
	for s, sizes := range [][]int{WindowSizes, {1, 3, 8}, {5, 16, 7}} {
		rng := seeded.Stream(uint64(s + 1))
		stream := make([]uint8, 5000)
		for i := range stream {
			// Bursts of one region between stretches of non-memory work.
			switch k := rng.Intn(10); {
			case k < 5:
				stream[i] = noRegion
			case k < 8 && i > 0:
				stream[i] = stream[i-1]
			default:
				stream[i] = uint8(rng.Intn(uint64(region.Count)))
			}
		}
		w, err := newWindowCounter(sizes)
		if err != nil {
			t.Fatal(err)
		}
		for _, cur := range stream {
			w.step(cur)
		}
		if want := bruteHist(stream, sizes); !reflect.DeepEqual(w.hist, want) {
			t.Errorf("sizes %v: incremental histograms differ from the brute-force recount", sizes)
		}
	}

	const n = 20_000
	p, err := minicc.Compile("t.c", threeRegionSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	var stream []uint8
	for !m.Halted() && m.Seq() < n {
		ev, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		cur := noRegion
		if ev.Inst.IsMem() {
			cur = uint8(ev.Region)
		}
		stream = append(stream, cur)
	}
	pr, err := Run(p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := bruteHist(stream, WindowSizes)
	for k, ws := range pr.Windows {
		for r := range ws.Regions {
			if want := stats.FromHist(hist[k][r]); ws.Regions[r] != want {
				t.Errorf("window %d %v: Run gives %v, brute force %v",
					ws.Size, region.Region(r), &ws.Regions[r], &want)
			}
		}
	}
}

func TestWindowCounterRejectsBadSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		if _, err := newWindowCounter([]int{32, size}); err == nil {
			t.Errorf("window size %d accepted", size)
		}
	}
}

// TestRunAllocsIndependentOfLength is the profiler's allocation gate:
// the window ring, histograms and per-instruction table are sized once
// per run, so a run ten times longer costs no more allocations. The
// first run in a process also pays one-time runtime set-up, so the
// short run is measured first.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	p := compress(t)
	allocs := func(n uint64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(p, n, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := allocs(20_000), allocs(200_000); l > s {
		t.Errorf("%.0f allocations for 20k instructions, %.0f for 200k: the profiler allocates per instruction", s, l)
	}
}

func compress(tb testing.TB) *prog.Program {
	tb.Helper()
	w, ok := workload.ByName("129.compress")
	if !ok {
		tb.Fatal("129.compress missing")
	}
	p, err := w.Compile(0)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkProfileRun measures the profiler on the first 200k
// instructions of 129.compress.
func BenchmarkProfileRun(b *testing.B) {
	const n = 200_000
	p := compress(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, n, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inst")
}
