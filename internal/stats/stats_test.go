package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/seeded"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g", r.Mean())
	}
	if math.Abs(r.StdDev()-2) > 1e-12 {
		t.Errorf("stddev = %g", r.StdDev())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.StdDev() != 0 || r.N() != 0 {
		t.Errorf("empty accumulator not zero: %v", &r)
	}
}

func TestRunningMerge(t *testing.T) {
	var a, b, all Running
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i, x := range xs {
		all.Add(x)
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.StdDev()-all.StdDev()) > 1e-9 {
		t.Errorf("merge: got (%g,%g), want (%g,%g)", a.Mean(), a.StdDev(), all.Mean(), all.StdDev())
	}
}

// Property: Running agrees with the two-pass formulas.
func TestRunningMatchesTwoPass(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		var sum float64
		ok := true
		for _, x := range xs {
			// Constrain to sane magnitudes to avoid float blowup noise.
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) {
				continue
			}
			r.Add(x)
			sum += x
		}
		if r.N() == 0 {
			return true
		}
		mean := sum / float64(r.N())
		ok = ok && math.Abs(r.Mean()-mean) < 1e-6*(1+math.Abs(mean))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHist(t *testing.T) {
	h := NewHist()
	for _, v := range []int{1, 2, 2, 3, 3, 3} {
		h.Add(v)
	}
	if h.Total() != 6 || h.Count(3) != 3 || h.Count(9) != 0 {
		t.Errorf("hist counts wrong: %v", h)
	}
	if math.Abs(h.Mean()-14.0/6) > 1e-12 {
		t.Errorf("mean = %g", h.Mean())
	}
	if got := h.Buckets(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("buckets = %v", got)
	}
}

// TestFromHistMatchesRunning: a Running built from a histogram must
// agree with one fed the same observations through Add, to rounding.
func TestFromHistMatchesRunning(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := seeded.Stream(seed)
		width := 2 + rng.Intn(64)     // values 0..width-1, like a window count
		bias := rng.Intn(width)       // skewed toward one value
		n := 1 + rng.Intn(200_000)    // stream length
		hist := make([]uint64, width) // observations per value
		var want Running
		for i := uint64(0); i < n; i++ {
			v := rng.Intn(width)
			if rng.Intn(4) != 0 {
				v = bias
			}
			hist[v]++
			want.Add(float64(v))
		}
		got := FromHist(hist)
		if got.N() != want.N() {
			t.Fatalf("seed %d: n = %d, want %d", seed, got.N(), want.N())
		}
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"mean", got.Mean(), want.Mean()},
			{"variance", got.Variance(), want.Variance()},
			{"stddev", got.StdDev(), want.StdDev()},
		} {
			if d := math.Abs(c.got - c.want); d > 1e-12*math.Abs(c.want) {
				t.Errorf("seed %d: %s = %.17g, Running.Add gives %.17g", seed, c.what, c.got, c.want)
			}
		}
	}
}

func TestFromHistEmpty(t *testing.T) {
	for _, hist := range [][]uint64{nil, {}, make([]uint64, 65)} {
		if r := FromHist(hist); r != (Running{}) {
			t.Errorf("FromHist(%v) = %v, want the empty Running", hist, &r)
		}
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Error("empty ratio")
	}
	r.Add(true)
	r.Add(true)
	r.Add(false)
	if math.Abs(r.Percent()-66.666) > 0.01 {
		t.Errorf("percent = %g", r.Percent())
	}
}
