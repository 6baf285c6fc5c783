// Command arlfault runs seeded fault-injection campaigns against the
// memory pipeline and differentially validates every run against the
// functional VM's golden digest: timing-level faults (forced ARPT
// mispredictions, predictor bit flips, cache-port drops, latency
// perturbation) must never change architectural results, and injected
// architectural faults must surface as structured vm.FaultErrors.
//
// Output is deterministic: the same seed reproduces the same campaign
// byte for byte. The exit status is 1 if any run diverged.
//
// Usage:
//
//	arlfault [-seed N] [-campaign N] [-faults N] [-w name] [-scale N] [-n maxInsts] [-parallel N]
//	arlfault -server http://host:port [-tenant name] [-seed N] [-campaign N] [-faults N]
//
// The campaigns run through the experiment Runner, so -store-dir,
// -resume, -retries and -timeout behave exactly as in arlsim: each
// workload's campaign is one "faultcampaign" stage, and the watchdog
// stops its golden run, faulted trace builds and simulations. With
// -server they are submitted to a running arld instead, and the
// rendered report is byte-identical to a local run.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

func main() {
	c := cliutil.New("arlfault")
	runs := flag.Int("campaign", 200, "fault runs per workload")
	faults := flag.Int("faults", 6, "planned faults per run")
	c.WorkloadFlags(30_000)
	c.SeedFlag(1)
	c.RunnerFlags()
	c.StoreFlags()
	c.ServerFlags()
	c.ObsFlags("")
	flag.Parse()
	c.Start()
	if *runs <= 0 || *faults <= 0 {
		c.Fatalf("-campaign and -faults must be positive")
	}

	cfg := cpu.Decoupled(3, 3)
	var summaries []*faultinject.Summary
	var reg *obs.Registry

	if c.Server != "" {
		var err error
		summaries, err = c.ServiceClient().FaultSummaries(
			c.Scale, c.MaxInsts, c.Workloads(), c.Seed, *runs, *faults, cfg)
		if err != nil {
			c.Fatalf("%v", err)
		}
		kept := summaries[:0]
		for _, s := range summaries {
			if s != nil {
				kept = append(kept, s)
			}
		}
		summaries = kept
	} else {
		c.HandleSignals()
		r := c.Runner()
		var err error
		summaries, err = r.FaultCampaigns(c.Seed, *runs, *faults, cfg)
		if err != nil {
			if c.Interrupted() {
				fmt.Fprintln(os.Stderr, "arlfault: interrupted; completed campaigns are in the store")
				c.Finish(r.Obs)
				os.Exit(cliutil.ExitInterrupted)
			}
			c.Fatalf("%v", err)
		}
		reg = r.Obs
		if errs := r.Errors(); len(errs) > 0 {
			for _, we := range errs {
				fmt.Fprintf(os.Stderr, "arlfault: %v\n", we)
			}
		}
	}

	fmt.Printf("arlfault: differential fault campaign, seed=%d, %d runs x %d faults per workload, config %s\n\n",
		c.Seed, *runs, *faults, cfg.Name)
	var totalRuns, fired, aborted, divergent int
	var recoveries uint64
	for _, s := range summaries {
		fmt.Print(s)
		totalRuns += s.Runs
		fired += s.Fired
		aborted += s.Aborted
		divergent += s.Divergent
		recoveries += s.Recoveries
		if reg != nil {
			l := obs.Labels{"workload": s.Workload}
			reg.Counter("fault_runs_total", "differential fault runs", l).Add(uint64(s.Runs))
			reg.Counter("fault_fired_runs_total", "runs with at least one fired fault", l).Add(uint64(s.Fired))
			reg.Counter("fault_aborts_total", "correctly-surfaced architectural aborts", l).Add(uint64(s.Aborted))
			reg.Counter("fault_divergent_total", "invariant-breaking runs", l).Add(uint64(s.Divergent))
			reg.Counter("fault_recoveries_total", "completed mispredict recoveries", l).Add(s.Recoveries)
		}
	}
	if totalRuns == 0 {
		c.Fatalf("no campaigns completed")
	}
	fmt.Printf("\ntotal: %d runs, %d fired (%.1f%%), %d structured aborts, %d recoveries, %d divergences\n",
		totalRuns, fired, 100*float64(fired)/float64(totalRuns), aborted, recoveries, divergent)
	c.Finish(reg)
	if divergent > 0 {
		fmt.Println("FAIL: architectural divergence detected")
		os.Exit(1)
	}
	fmt.Println("PASS: all faulted runs architecturally equivalent or cleanly aborted")
	c.Exit()
}
