// Command perfbench is the repository's benchmark. It drives the
// simulator's layers from outside, timing calls into their public
// functions, on one of three workloads:
//
//   - fig8: the E7 sweep, every workload under every Figure-8 machine,
//     over 20k-instruction traces built in set-up (timing engine);
//   - frontend: compile, VM, profile, trace build and trace codec of
//     every workload at full default length (functional front end);
//   - campaign: the same grid as fig8 served by an in-process arld
//     whose store already holds every result (service, journal, store).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fig8 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds, prints the per-layer metrics
// and writes every span to .bench_build/perfbench/. The last line of
// standard output is one JSON object; README.md documents the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/workload"
)

// An untraced run builds its inputs at least minSetups times and until
// set-up has taken setupBudget in all (at most maxSetups times); the
// median is setup_s. Repeating a set-up that takes a fraction of a
// millisecond keeps its median steady.
const (
	minSetups   = 3
	maxSetups   = 1000
	setupBudget = 500 * time.Millisecond
)

// outDir holds the benchmark's scratch state and span files, inside
// the build directory the checkout's .gitignore already excludes.
var outDir = filepath.Join(".bench_build", "perfbench")

// bench is one workload. setup builds its inputs from scratch and round
// makes one pass over them; each returns the time the program spent,
// excluding the benchmark's own checks, and counts its operations.
type bench interface {
	setup(t *tracer, c *tally) (time.Duration, error)
	round(t *tracer, c *tally) (time.Duration, error)
	// work is what one round does: instructions (committed by the
	// simulator, retired by the VM, or carried by the served results)
	// and operations (simulations, layer calls or units).
	work() (insts, ops float64)
	close() error
}

// tally counts operations and the ones that failed: returned an error
// or did not match the identity check.
type tally struct{ attempted, failed int }

func (c *tally) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: fig8, frontend or campaign")
	fs.Uint64Var(&o.seed, "seed", 1, "seed permuting the order of the workload's items")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the measured phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := measure(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func newBench(o options, exp *expectations) (bench, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0x9e3779b97f4a7c15))
	switch o.workload {
	case "fig8":
		return newFig8(rng, exp, workload.All()), nil
	case "frontend":
		return newFrontend(rng, exp, workload.All()), nil
	case "campaign":
		return newCampaign(rng, o.seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want fig8, frontend or campaign)", o.workload)
}

// measure runs one benchmark invocation and prints its result.
func measure(o options) error {
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	mach := describeMachine(o.seed)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("machine %s\n", mach)

	b, err := newBench(o, exp)
	if err != nil {
		return err
	}
	defer b.close() // on error paths; the success path checks close below

	t := newTracer()
	var c tally
	var setups []float64
	var spent time.Duration
	// Only the traced run's set-up spans matter; its time is not
	// reported, so one traced set-up suffices.
	t.setOn(o.trace)
	for {
		d, err := b.setup(t, &c)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
		if o.trace || len(setups) >= maxSetups || (len(setups) >= minSetups && spent >= setupBudget) {
			break
		}
	}
	setupPhase := t.takePhase()

	// Rounds run until the measured phase has lasted --seconds; a
	// traced run alternates untraced and traced rounds and needs one of
	// each.
	var plain, traced []float64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; ; i++ {
		on := o.trace && i%2 == 1
		t.setOn(on)
		d, err := b.round(t, &c)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if on {
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
		if time.Now().After(deadline) && (!o.trace || len(traced) > 0) {
			break
		}
	}
	t.setOn(false)
	if err := b.close(); err != nil {
		return err
	}

	insts, ops := b.work()
	wall := median(plain)
	e2e := []metric{
		{"setup_s", median(setups), "s"},
		{"wall_s", wall, "s"},
		{"minst_per_s", insts / wall / 1e6, "Minst/s"},
		{"ops_per_s", ops / wall, "1/s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
	fmt.Printf("rounds untraced=%d traced=%d setups=%d\n", len(plain), len(traced), len(setups))
	for _, m := range e2e {
		fmt.Printf("e2e %-14s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("e2e %-14s %14.6g ratio (%d of %d operations failed)\n", "error_rate",
		float64(c.failed)/float64(max(c.attempted, 1)), c.failed, c.attempted)

	reported := e2e
	if o.trace {
		layers := layerMetrics(t.spans, setupPhase, t.takePhase(), len(traced))
		layers = append(layers, metric{"bench.trace_overhead_pct", 100 * (median(traced) - wall) / wall, "%"})
		for _, m := range layers {
			fmt.Printf("layer %-26s %14.6g %s\n", m.name, m.value, m.unit)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := t.write(path, mach, o); err != nil {
			return err
		}
		fmt.Printf("spans %s (%d spans)\n", path, len(t.spans))
		reported = layers
	}
	return printResult(c, reported)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// printResult writes the final JSON line.
func printResult(c tally, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{c.failed == 0 && c.attempted > 0, c.attempted, c.failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb)
			return kb / 1024
		}
	}
	return 0
}

// machineInfo is the descriptor every run prints and every span file
// carries.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func (m machineInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d",
		m.NProc, m.GOMAXPROCS, m.CPU, m.Go, m.Commit, m.Seed)
}

func describeMachine(seed uint64) machineInfo {
	m := machineInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// commit names the source the benchmark was built from: run.sh passes
// the git revision when the checkout is a repository, and a digest of
// the Go sources otherwise.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
