package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// renderFunctionalReport renders every functional-pass section of
// arlreport -skip-timing (E1-E6, E8-E10, E14) exactly as the command
// prints them.
func renderFunctionalReport(r *Runner) (string, error) {
	var b strings.Builder
	section := func(title string) { fmt.Fprintf(&b, "\n============ %s ============\n\n", title) }

	section("E1: Table 1")
	t1, err := r.Table1()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderTable1(t1))

	section("E2: Figure 2")
	f2, err := r.Figure2()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderFigure2(f2))

	section("E3: Table 2")
	t2, err := r.Table2()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderTable2(t2))

	section("E4/E5/E6/E9: predictor study")
	study, err := r.RunPredictorStudy()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderFigure4(study.Figure4) + "\n")
	b.WriteString(RenderTable3(study.Table3) + "\n")
	b.WriteString(RenderFigure5(study.Figure5) + "\n")
	b.WriteString(RenderAblation(study.Ablation))

	section("E8: LVC hit rate")
	lvc, err := r.LVCHitRate()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderLVC(lvc))

	section("E10: context sweep")
	ctx, err := r.ContextSweep([]int{0, 8, 16}, []int{0, 7, 24})
	if err != nil {
		return "", err
	}
	b.WriteString(RenderContextSweep(ctx))

	section("E14: binary-level static hints")
	sh, err := r.StaticHintStudy()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderStaticHints(sh))
	return b.String(), nil
}

// TestFunctionalPassesGolden pins every table the functional passes
// produce (profile, predictor study, LVC, context sweep, static hints)
// for all twelve workloads at a 150k-instruction truncation. The
// golden equals the matching sections of arlreport -n 150000
// -skip-timing; after a deliberate semantic change, regenerate it from
// those sections of that command's output.
func TestFunctionalPassesGolden(t *testing.T) {
	const path = "testdata/functional_150k.golden"
	r := NewRunner()
	r.MaxInsts = 150_000
	got, err := renderFunctionalReport(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("functional tables diverge from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestFunctionalPassesHonourWatchdog checks that each functional pass
// runs as a Runner stage: the per-stage watchdog stops it and Degrade
// records the timeout as a WorkloadError naming the pass, and a
// cancelled Runner.Ctx aborts it. The instruction budget is far beyond
// the programs' length, so only the watchdog can produce these errors.
func TestFunctionalPassesHonourWatchdog(t *testing.T) {
	passes := []struct {
		stage string
		run   func(r *Runner) (rows int, err error)
	}{
		{"predictor", func(r *Runner) (int, error) {
			s, err := r.RunPredictorStudy()
			if err != nil {
				return 0, err
			}
			return len(s.Figure4), nil
		}},
		{"contexts", func(r *Runner) (int, error) {
			rows, err := r.ContextSweep([]int{0, 8}, []int{0, 7})
			return len(rows), err
		}},
		{"lvc", func(r *Runner) (int, error) {
			rows, err := r.LVCHitRate()
			return len(rows), err
		}},
		{"static-hints", func(r *Runner) (int, error) {
			rows, err := r.StaticHintStudy()
			return len(rows), err
		}},
	}
	for _, pass := range passes {
		t.Run(pass.stage, func(t *testing.T) {
			r := quickRunner(t, "compress", "li")
			r.MaxInsts = 20_000
			for _, w := range r.Workloads {
				if _, err := r.Profile(w); err != nil { // warms Program and Profile unwatched
					t.Fatal(err)
				}
			}

			r.MaxInsts = 1 << 40
			r.WorkloadTimeout = time.Nanosecond
			r.Degrade = true
			n, err := pass.run(r)
			if err != nil {
				t.Fatalf("degraded batch aborted: %v", err)
			}
			if n != 0 {
				t.Fatalf("got %d rows, want none: every pass should have timed out", n)
			}
			errs := r.Errors()
			if len(errs) != len(r.Workloads) {
				t.Fatalf("recorded %d errors, want one per workload: %v", len(errs), errs)
			}
			for _, we := range errs {
				if !we.Timeout() || we.Stage != pass.stage {
					t.Fatalf("error %v: timeout %v, stage %q; want a %q timeout", we, we.Timeout(), we.Stage, pass.stage)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			r.Ctx, r.WorkloadTimeout, r.Degrade = ctx, 0, false
			if _, err := pass.run(r); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}
