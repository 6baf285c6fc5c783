package main

import (
	"math/rand/v2"
	"time"

	"repro/internal/cpu"
	"repro/internal/minicc"
	"repro/internal/workload"
)

// fig8MaxInsts truncates the fig8 and campaign traces. The experiments
// package's Figure-8 golden for 130.li is captured at this length, and
// it keeps one pass over all 96 simulations near a second.
const fig8MaxInsts = 20_000

// simItem is one simulation of the E7 sweep.
type simItem struct {
	w   *workload.Workload
	cfg cpu.Config
}

// sweep is every workload under every Figure-8 configuration, in the
// order the seed draws.
func sweep(rng *rand.Rand, wls []*workload.Workload) []simItem {
	var items []simItem
	for _, w := range wls {
		for _, cfg := range cpu.Figure8Configs() {
			items = append(items, simItem{w, cfg})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// buildTrace compiles w at its default scale and builds its truncated
// timing trace, each call under its own span.
func buildTrace(t *tracer, parent ref, w *workload.Workload) (*cpu.Trace, error) {
	s := t.begin("minicc.Compile", parent)
	p, err := minicc.Compile(w.Name, w.Source(w.DefaultScale))
	t.end(s, 0, "")
	if err != nil {
		return nil, err
	}
	s = t.begin("cpu.BuildTrace", parent)
	tr, err := cpu.BuildTrace(p, cpu.TraceOptions{MaxInsts: fig8MaxInsts})
	if err != nil {
		t.end(s, 0, "")
		return nil, err
	}
	t.end(s, int64(len(tr.Insts)), "")
	return tr, nil
}

// fig8 gives the timing engine nearly all of the measured time: set-up
// builds the twelve traces, and a round runs the 96 simulations.
type fig8 struct {
	exp    *expectations
	wls    []*workload.Workload
	items  []simItem
	traces map[string]*cpu.Trace
	insts  uint64 // committed by the last round
}

func newFig8(rng *rand.Rand, exp *expectations, wls []*workload.Workload) *fig8 {
	return &fig8{exp: exp, wls: wls, items: sweep(rng, wls)}
}

func (f *fig8) setup(t *tracer, _ *tally) (time.Duration, error) {
	start := time.Now()
	f.traces = make(map[string]*cpu.Trace, len(f.wls))
	for _, it := range f.items {
		if f.traces[it.w.Name] != nil {
			continue
		}
		r := t.root("setup")
		tr, err := buildTrace(t, r, it.w)
		t.end(r, 0, "")
		if err != nil {
			return 0, err
		}
		f.traces[it.w.Name] = tr
	}
	return time.Since(start), nil
}

func (f *fig8) round(t *tracer, c *tally) (time.Duration, error) {
	var total time.Duration
	f.insts = 0
	for _, it := range f.items {
		r := t.root("fig8.item")
		start := time.Now()
		s := t.begin("cpu.Simulate", r)
		res, err := cpu.Simulate(f.traces[it.w.Name], it.cfg)
		var insts uint64
		if err == nil {
			insts = res.Insts
		}
		t.end(s, int64(insts), it.cfg.Name)
		total += time.Since(start)
		t.end(r, 0, "")
		if err == nil {
			f.insts += insts
			t.add("sim.insts", float64(res.Insts))
			t.add("sim.cycles", float64(res.Cycles))
			t.add("sim.arpt_mispredicts", float64(res.ARPTMispredicts))
			err = f.exp.checkSim(it.w, it.cfg, res)
		}
		c.op(err)
	}
	return total, nil
}

func (f *fig8) work() (insts, ops float64) { return float64(f.insts), float64(len(f.items)) }

func (f *fig8) close() error { return nil }
