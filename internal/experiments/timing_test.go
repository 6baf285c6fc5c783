package experiments

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/faultinject"
	"repro/internal/prog"
	"repro/internal/workload"
)

// renderTimingStudies renders the E12 and E13 ablations as arlsim
// prints them and the E15 storm study at arlreport's parameters.
func renderTimingStudies(r *Runner) (string, error) {
	var b strings.Builder
	steer, err := r.SteeringPolicies()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderSteering(steer) + "\n")
	ff, err := r.FastForwardAblation()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderFastForward(ff) + "\n")
	storm, err := r.RecoveryStorm(1, []float64{0, 0.01, 0.05}, []int{2, 8, 16})
	if err != nil {
		return "", err
	}
	b.WriteString(RenderRecoveryStorm(storm))
	return b.String(), nil
}

// TestTimingStudiesGolden pins the E12 steering, E13 fast-forwarding
// and E15 storm tables for all twelve workloads at a 50k-instruction
// truncation. The E12/E13 sections equal arlsim -n 50000
// -ablationsteer -ablationffwd and the E15 section equals that section
// of arlreport -n 50000; after a deliberate semantic change,
// regenerate the golden from those commands' output.
func TestTimingStudiesGolden(t *testing.T) {
	const path = "testdata/timing_50k.golden"
	r := NewRunner()
	r.MaxInsts = 50_000
	got, err := renderTimingStudies(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("timing tables diverge from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTimingStagesHonourWatchdog checks that the E12, E13 and E15
// simulations run as Runner stages: the per-stage watchdog stops them
// and Degrade records the timeout as a WorkloadError naming the stage,
// and a cancelled Runner.Ctx aborts them. The memoized inputs are
// warmed first, unwatched, so only the study's own stage can fail. The
// ffwd-off stage simulates the memo trace: 300k instructions at a
// commit width of 16 take at least 18.75K cycles, past the timing
// loop's first context poll at cycle 16384.
func TestTimingStagesHonourWatchdog(t *testing.T) {
	studies := []struct {
		stage string
		run   func(r *Runner) (rows int, err error)
	}{
		{"steer static-only", func(r *Runner) (int, error) {
			rows, err := r.SteeringPolicies()
			return len(rows), err
		}},
		{"ffwd-off", func(r *Runner) (int, error) {
			rows, err := r.FastForwardAblation()
			return len(rows), err
		}},
		{"storm 0.010", func(r *Runner) (int, error) {
			rows, err := r.RecoveryStorm(1, []float64{0.01}, []int{8})
			return len(rows), err
		}},
	}
	for _, study := range studies {
		t.Run(study.stage, func(t *testing.T) {
			r := quickRunner(t, "compress", "li")
			for _, w := range r.Workloads {
				if _, err := r.Profile(w); err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)} {
					if _, err := r.SimulateConfig(w, cfg); err != nil { // warms the memo trace too
						t.Fatal(err)
					}
				}
			}

			r.MaxInsts = 1 << 40
			r.WorkloadTimeout = time.Nanosecond
			r.Degrade = true
			n, err := study.run(r)
			if err != nil {
				t.Fatalf("degraded batch aborted: %v", err)
			}
			if n != 0 {
				t.Fatalf("got %d rows, want none: every stage should have timed out", n)
			}
			errs := r.Errors()
			if len(errs) != len(r.Workloads) {
				t.Fatalf("recorded %d errors, want one per workload: %v", len(errs), errs)
			}
			for _, we := range errs {
				if !we.Timeout() || we.Stage != study.stage {
					t.Fatalf("error %v: timeout %v, stage %q; want a %q timeout", we, we.Timeout(), we.Stage, study.stage)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			r.Ctx, r.WorkloadTimeout, r.Degrade = ctx, 0, false
			if _, err := study.run(r); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestVariantTimesItsTraceBuild checks that a variant stage's trace
// build counts in RunStats: a fresh Runner that runs only one variant
// stage reports that trace's length and a non-zero build time.
func TestVariantTimesItsTraceBuild(t *testing.T) {
	r := quickRunner(t, "compress")
	r.MaxInsts = 20_000
	tr, _, err := r.variant(r.Workloads[0], "storm 0.010", func(*prog.Program) (cpu.TraceOptions, error) {
		return cpu.TraceOptions{SteerFault: faultinject.Storm(1, 0.01)}, nil
	}, cpu.Decoupled(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	stats := r.RunStats()
	if len(stats) != 1 {
		t.Fatalf("run statistics for %d workloads, want 1", len(stats))
	}
	if s := stats[0]; s.TraceWall <= 0 || s.TraceInsts != uint64(len(tr.Insts)) {
		t.Fatalf("trace build recorded as %d insts in %v; want %d insts in a non-zero time",
			s.TraceInsts, s.TraceWall, len(tr.Insts))
	}
}

// mixedRunner runs one small program whose helper sums a global, a
// stack and a heap array, so its stack work goes through the wrong
// pipeline under static-only steering.
func mixedRunner() *Runner {
	const src = `
int g[128];
int acc;
int mix(int *v, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) s += v[i];
	return s;
}
int main() {
	int a[128];
	int *h = malloc(128 * sizeof(int));
	int it;
	for (it = 0; it < 300; it++) {
		int i;
		for (i = 0; i < 128; i++) { g[i] = i; a[i] = i; h[i] = i; }
		acc += mix(g, 128) + mix(a, 128) + mix(h, 128);
	}
	return acc & 255;
}`
	r := NewRunner()
	r.Workloads = []*workload.Workload{{
		Name: "test.mixed", Short: "mixed", DefaultScale: 1,
		Source: func(int) string { return src },
	}}
	return r
}

// TestSteeringPolicies checks E12's ordering on the mixed program run
// to completion: perfect steering never mispredicts and is not slower
// than static-only steering, and the ARPT lands close to perfect —
// the paper's thesis.
func TestSteeringPolicies(t *testing.T) {
	rows, err := mixedRunner().SteeringPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Results) != len(decouple.AllPolicies) {
		t.Fatalf("steering rows = %+v", rows)
	}
	results := rows[0].Results
	at := map[decouple.Policy]int{}
	for i, res := range results {
		if res.Policy != decouple.AllPolicies[i] {
			t.Errorf("result %d is %v, want %v", i, res.Policy, decouple.AllPolicies[i])
		}
		if res.Cycles == 0 || res.IPC <= 0 {
			t.Errorf("%v: degenerate result %+v", res.Policy, res)
		}
		at[res.Policy] = i
	}
	perfect := results[at[decouple.PolicyPerfect]]
	static := results[at[decouple.PolicyStaticOnly]]
	arpt := results[at[decouple.PolicyARPT]]
	if perfect.Mispredicts != 0 {
		t.Errorf("perfect steering mispredicted %d times", perfect.Mispredicts)
	}
	if perfect.Accuracy != 100 {
		t.Errorf("perfect accuracy = %.2f", perfect.Accuracy)
	}
	if perfect.Cycles > static.Cycles+static.Cycles/50 {
		t.Errorf("perfect (%d cycles) slower than static-only (%d)", perfect.Cycles, static.Cycles)
	}
	if gap := float64(arpt.Cycles) / float64(perfect.Cycles); gap > 1.05 {
		t.Errorf("ARPT steering %.3fx slower than perfect", gap)
	}
}

// TestFastForwardAblation checks E13 on the mixed program run to
// completion: the row's forward count comes from the enabled arm, the
// disabled machine forwards nothing, and forwarding never slows the
// machine down.
func TestFastForwardAblation(t *testing.T) {
	r := mixedRunner()
	rows, err := r.FastForwardAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("ffwd rows = %+v", rows)
	}
	w := r.Workloads[0]
	with, err := r.SimulateConfig(w, cpu.Decoupled(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].FastForwards != with.FastForwards {
		t.Errorf("row counts %d fast forwards, the enabled (3+3) arm %d", rows[0].FastForwards, with.FastForwards)
	}
	tr, err := r.Trace(w)
	if err != nil {
		t.Fatal(err)
	}
	off := cpu.Decoupled(3, 3)
	off.FastForward = false
	without, err := cpu.Simulate(tr, off)
	if err != nil {
		t.Fatal(err)
	}
	if without.FastForwards != 0 {
		t.Errorf("fast forwards counted while disabled: %d", without.FastForwards)
	}
	if got := float64(without.Cycles) / float64(with.Cycles); rows[0].SpeedupFF != got {
		t.Errorf("speedup %v, want cycles(without)/cycles(with) = %v", rows[0].SpeedupFF, got)
	}
	if rows[0].SpeedupFF < 1 {
		t.Errorf("fast forwarding slowed the machine: speedup %.3f", rows[0].SpeedupFF)
	}
}
