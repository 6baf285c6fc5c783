package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand/v2"
	"os"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "re-record testdata/expected.json from the current simulator")

// TestRecordExpectations re-records the identity check's expected
// results. It runs only with -update.
func TestRecordExpectations(t *testing.T) {
	if !*update {
		t.Skip("run with -update to re-record testdata/expected.json")
	}
	e := expectations{Fig8: map[string]simExpect{}, Frontend: map[string]frontExpect{}}
	for _, w := range workload.All() {
		tr, err := buildTrace(&tracer{}, ref{}, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cpu.Figure8Configs() {
			r, err := cpu.Simulate(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Fig8[simKey(w, cfg)] = simExpect{r.Cycles, r.Insts, r.ARPTMispredicts}
		}
		o := pipeline(&tracer{}, ref{}, w.Name, w.Source(w.DefaultScale))
		if o.err != nil {
			t.Fatal(o.err)
		}
		sum := sha256.Sum256(o.enc)
		e.Frontend[w.Name] = frontExpect{o.prof.DynInsts, o.prof.DynLoads, o.prof.DynStores, hex.EncodeToString(sum[:])}
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExpectationsMatchGolden ties the recorded 130.li row to the
// experiments package's Figure-8 golden at the same truncation.
func TestExpectationsMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("../internal/experiments/testdata/figure8_li_20k.golden")
	if err != nil {
		t.Fatal(err)
	}
	e, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	li, _ := workload.ByName("li")
	configs := cpu.Figure8Configs()
	var results []*cpu.Result
	for _, cfg := range configs {
		want, ok := e.Fig8[simKey(li, cfg)]
		if !ok {
			t.Fatalf("no recorded result for %s", simKey(li, cfg))
		}
		results = append(results, &cpu.Result{Config: cfg, Name: li.Name,
			Cycles: want.Cycles, Insts: want.Insts, ARPTMispredicts: want.ARPTMispredicts})
	}
	rows := experiments.AssembleFigure8([]*workload.Workload{li}, configs, results)
	if got := experiments.RenderFigure8(rows, configs); got != string(golden) {
		t.Errorf("recorded 130.li results render differently from the golden:\n got:\n%s\nwant:\n%s", got, golden)
	}
}

// TestPerturbedExpectationFails shows the identity check at work: a
// fig8 round over 130.li passes against the recorded results and
// reports exactly one failed simulation once one expected cycle count
// is off by one.
func TestPerturbedExpectationFails(t *testing.T) {
	e, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	li, _ := workload.ByName("li")
	f := newFig8(rand.New(rand.NewPCG(7, 7)), e, []*workload.Workload{li})
	tr := newTracer()
	var c tally
	if _, err := f.setup(tr, &c); err != nil {
		t.Fatal(err)
	}
	if _, err := f.round(tr, &c); err != nil {
		t.Fatal(err)
	}
	if c.attempted != 8 || c.failed != 0 {
		t.Fatalf("unperturbed round: %d of %d failed, want 0 of 8", c.failed, c.attempted)
	}

	key := simKey(li, cpu.Figure8Configs()[6])
	want := e.Fig8[key]
	want.Cycles++
	e.Fig8[key] = want
	c = tally{}
	if _, err := f.round(tr, &c); err != nil {
		t.Fatal(err)
	}
	if c.attempted != 8 || c.failed != 1 {
		t.Fatalf("perturbed %s: %d of %d failed, want 1 of 8", key, c.failed, c.attempted)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 30 - 5, 20, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i+1, got[i], want[i])
		}
	}
}

// TestCampaignRoundReadsOnly runs the campaign's cold fill and one
// traced round: every unit must match its direct simulation, and the
// round must serve every unit from the store without writing to it.
func TestCampaignRoundReadsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole grid")
	}
	outDir = t.TempDir()
	c, err := newCampaign(rand.New(rand.NewPCG(3, 3)), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	tr := newTracer()
	var tl tally
	if _, err := c.setup(tr, &tl); err != nil {
		t.Fatal(err)
	}
	tr.setOn(true)
	before := c.st.Stats()
	if _, err := c.round(tr, &tl); err != nil {
		t.Fatal(err)
	}
	after := c.st.Stats()
	units := len(c.req.Units)
	if tl.attempted != 2*units || tl.failed != 0 {
		t.Fatalf("%d of %d unit checks failed, want 0 of %d", tl.failed, tl.attempted, 2*units)
	}
	p := tr.takePhase()
	if got := p.counts["store.hits"]; got != float64(units) || p.counts["service.units"] != float64(units) {
		t.Errorf("round: %v store hits and %v units done, want %d of each", got, p.counts["service.units"], units)
	}
	if after.Writes != before.Writes || after.Misses != before.Misses {
		t.Errorf("round wrote %d records and missed %d, want none", after.Writes-before.Writes, after.Misses-before.Misses)
	}
	if len(p.obs["service.queue_wait_ms"]) != units || len(p.obs["service.execute_ms"]) != units {
		t.Errorf("observed %d queue waits and %d executions, want %d each",
			len(p.obs["service.queue_wait_ms"]), len(p.obs["service.execute_ms"]), units)
	}
}
