// Command arlreport runs every experiment in DESIGN.md's index (E1-E11
// plus the E14 binary-hint, E15 fault-storm and E16 frontier studies)
// over all twelve workloads and prints the full paper-vs-measured data
// set used to populate EXPERIMENTS.md.
//
// Usage:
//
//	arlreport [-scale N] [-n maxInsts] [-skip-timing] [-parallel N] [-timeout D]
//	          [-metrics file.json] [-cpuprofile f] [-pprof addr]
//	          [-server http://host:port [-tenant name]]
//
// The timing study (E7, E11, E15) dominates the run time; -skip-timing
// restricts the report to the profiling and prediction experiments.
// With -server, the E7/E11 grids are submitted to a running arld
// instead of simulated in-process — the assembled sections are
// byte-identical to a local run — while everything else (including the
// E15 storm study, which instruments the simulation) stays local.
// -timeout arms a per-workload watchdog and degrades gracefully: a
// workload that cannot finish a stage in time is reported in a
// "workload errors" section instead of aborting the whole report.
//
// Every run writes a schema-validated metrics artifact (default
// results/arlreport.metrics.json; -metrics "" disables) holding every
// counter of every simulation performed. The wall-clock run-statistics
// table (per-workload trace build time and simulated cycles per
// second) goes to stderr with the completion line, so stdout holds
// only deterministic tables and compares byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/explore"
)

func main() {
	c := cliutil.New("arlreport")
	skipTiming := flag.Bool("skip-timing", false, "skip the Figure 8 / penalty / storm studies")
	c.WorkloadFlags(0)
	c.RunnerFlags()
	c.SeedFlag(1)
	c.StoreFlags()
	c.ServerFlags()
	c.ObsFlags("results/arlreport.metrics.json")
	flag.Parse()
	c.Start()

	c.HandleSignals()
	r := c.Runner()

	start := time.Now()
	section := func(title string) {
		fmt.Printf("\n============ %s ============\n\n", title)
	}
	// check aborts on a hard failure; an interruption instead flushes
	// the artifacts of the work already finished (a later -resume run
	// picks up from there) and exits with the distinct interrupted
	// status.
	check := func(err error) {
		if err == nil {
			return
		}
		if c.Interrupted() {
			fmt.Fprintf(os.Stderr, "arlreport: interrupted; flushing completed artifacts\n")
			c.Finish(r.Obs)
			os.Exit(cliutil.ExitInterrupted)
		}
		c.Fatalf("%v", err)
	}

	section("E1: Table 1")
	t1, err := r.Table1()
	check(err)
	fmt.Print(experiments.RenderTable1(t1))

	section("E2: Figure 2")
	f2, err := r.Figure2()
	check(err)
	fmt.Print(experiments.RenderFigure2(f2))

	section("E3: Table 2")
	t2, err := r.Table2()
	check(err)
	fmt.Print(experiments.RenderTable2(t2))

	section("E4/E5/E6/E9: predictor study")
	study, err := r.RunPredictorStudy()
	check(err)
	fmt.Print(experiments.RenderFigure4(study.Figure4))
	fmt.Println()
	fmt.Print(experiments.RenderTable3(study.Table3))
	fmt.Println()
	fmt.Print(experiments.RenderFigure5(study.Figure5))
	fmt.Println()
	fmt.Print(experiments.RenderAblation(study.Ablation))

	section("E8: LVC hit rate")
	lvc, err := r.LVCHitRate()
	check(err)
	fmt.Print(experiments.RenderLVC(lvc))

	section("E10: context sweep")
	ctx, err := r.ContextSweep([]int{0, 8, 16}, []int{0, 7, 24})
	check(err)
	fmt.Print(experiments.RenderContextSweep(ctx))

	section("E14: binary-level static hints")
	sh, err := r.StaticHintStudy()
	check(err)
	fmt.Print(experiments.RenderStaticHints(sh))

	if !*skipTiming {
		// The E7/E11 grids are pure (workload, config) simulation units,
		// so -server can shard them across an arld; the shared
		// assemblers keep the sections byte-identical either way.
		section("E7: Figure 8")
		var f8 []experiments.Figure8Row
		if c.Server != "" {
			f8, err = c.ServiceClient().Figure8(c.Scale, c.MaxInsts, c.Seed, r.Workloads, cpu.Figure8Configs())
		} else {
			f8, err = r.Figure8()
		}
		check(err)
		fmt.Print(experiments.RenderFigure8(f8, cpu.Figure8Configs()))

		section("E11: misprediction penalty sweep")
		var pen []experiments.PenaltyRow
		if c.Server != "" {
			pen, err = c.ServiceClient().PenaltySweep(c.Scale, c.MaxInsts, c.Seed, r.Workloads, []int{1, 4, 16})
		} else {
			pen, err = r.PenaltySweep([]int{1, 4, 16})
		}
		check(err)
		fmt.Print(experiments.RenderPenaltySweep(pen))

		section("E15: misprediction storm / recovery penalty study")
		storm, err := r.RecoveryStorm(1, []float64{0, 0.01, 0.05}, []int{2, 8, 16})
		check(err)
		fmt.Print(experiments.RenderRecoveryStorm(storm))

		// E16 generalizes Figure 8 from its eight fixed machines to a
		// ranked design-space frontier; the port grid overlaps the E7
		// configurations, so those points come straight out of the memo.
		section("E16: design-space frontier")
		grid := explore.Grid{L1Ports: []int{2, 3, 4}, LVCPorts: []int{0, 2, 3}}
		var front *explore.Frontier
		if c.Server != "" {
			front, err = c.ServiceClient().Explore(c.Scale, c.MaxInsts, c.Seed, r.Workloads, grid)
		} else {
			front, err = explore.Search(r, grid, c.Seed)
		}
		check(err)
		fmt.Print(explore.RenderFrontier(front))
	}

	if errs := r.Errors(); len(errs) > 0 {
		section("workload errors")
		fmt.Print(experiments.RenderWorkloadErrors(errs))
	}

	c.Finish(r.Obs)
	fmt.Fprintln(os.Stderr)
	experiments.RenderRunStats(os.Stderr, r.RunStats())
	fmt.Fprintf(os.Stderr, "\narlreport: completed in %s\n", time.Since(start).Round(time.Second))
	c.Exit()
}
