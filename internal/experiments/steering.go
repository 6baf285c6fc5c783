package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/prog"
	"repro/internal/workload"
)

// SteeringRow is one cell of the E12 steering-policy ablation: the
// (3+3) machine driven by different dispatch-steering policies.
type SteeringRow struct {
	Name    string
	Results []PolicyResult
}

// PolicyResult is the (3+3) machine under one steering policy.
type PolicyResult struct {
	Policy      decouple.Policy
	Cycles      uint64
	IPC         float64
	Mispredicts uint64
	Accuracy    float64 // steering accuracy over the trace, percent
}

// SteeringPolicies runs E12 over the runner's workloads. The default
// memo trace is exactly the PolicyARPT trace and Figure 8 already
// simulates it on (3+3), so that arm is two memo hits; every other
// policy builds its own trace in a "steer <policy>" stage.
func (r *Runner) SteeringPolicies() ([]SteeringRow, error) {
	cfg := cpu.Decoupled(3, 3)
	return forEach(r, func(w *workload.Workload) (SteeringRow, error) {
		pr, err := r.Profile(w)
		if err != nil {
			return SteeringRow{}, err
		}
		row := SteeringRow{Name: w.Name}
		for _, pol := range decouple.AllPolicies {
			var tr *cpu.Trace
			res := make([]*cpu.Result, 1)
			if pol == decouple.PolicyARPT {
				if tr, err = r.Trace(w); err == nil {
					res[0], err = r.SimulateConfig(w, cfg)
				}
			} else {
				tr, res, err = r.variant(w, "steer "+pol.String(), func(p *prog.Program) (cpu.TraceOptions, error) {
					return decouple.TraceOptions(pol, p, pr)
				}, cfg)
			}
			if err != nil {
				return SteeringRow{}, err
			}
			row.Results = append(row.Results, PolicyResult{
				Policy:      pol,
				Cycles:      res[0].Cycles,
				IPC:         res[0].IPC(),
				Mispredicts: res[0].ARPTMispredicts,
				Accuracy:    tr.PredictorStats.Accuracy(),
			})
		}
		return row, nil
	})
}

// RenderSteering prints E12: cycles of each policy relative to perfect
// steering.
func RenderSteering(rows []SteeringRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: (3+3) steering policy (cycles relative to perfect steering)\n")
	fmt.Fprintf(&b, "%-14s", "Benchmark")
	for _, p := range decouple.AllPolicies {
		fmt.Fprintf(&b, "%15s", p)
	}
	fmt.Fprintln(&b)
	for _, row := range rows {
		var perfect uint64
		for _, res := range row.Results {
			if res.Policy == decouple.PolicyPerfect {
				perfect = res.Cycles
			}
		}
		fmt.Fprintf(&b, "%-14s", row.Name)
		for _, res := range row.Results {
			rel := float64(res.Cycles) / float64(perfect)
			fmt.Fprintf(&b, "%15.3f", rel)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FFRow is one row of the E13 fast-forwarding ablation.
type FFRow struct {
	Name         string
	SpeedupFF    float64 // cycles(without) / cycles(with)
	FastForwards uint64
}

// FastForwardAblation runs E13: (3+3) with and without LVAQ fast
// forwarding. The enabled arm is Figure 8's memoized (3+3) result; the
// disabled arm simulates the memo trace in one "ffwd-off" stage.
func (r *Runner) FastForwardAblation() ([]FFRow, error) {
	off := cpu.Decoupled(3, 3)
	off.FastForward = false
	return forEach(r, func(w *workload.Workload) (FFRow, error) {
		with, err := r.SimulateConfig(w, cpu.Decoupled(3, 3))
		if err != nil {
			return FFRow{}, err
		}
		tr, err := r.Trace(w)
		if err != nil {
			return FFRow{}, err
		}
		r.logf("  %s ffwd-off ...", w.Name)
		var without *cpu.Result
		err = r.stage(w.Name, "ffwd-off", func(ctx context.Context) (err error) {
			without, err = r.run(ctx, tr, off)
			return err
		})
		if err != nil {
			return FFRow{}, err
		}
		return FFRow{
			Name:         w.Name,
			SpeedupFF:    float64(without.Cycles) / float64(with.Cycles),
			FastForwards: with.FastForwards,
		}, nil
	})
}

// RenderFastForward prints E13.
func RenderFastForward(rows []FFRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: LVAQ fast forwarding on the (3+3) machine\n")
	fmt.Fprintf(&b, "%-14s %12s %14s\n", "Benchmark", "speedup", "fast forwards")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.3f %14d\n", r.Name, r.SpeedupFF, r.FastForwards)
	}
	return b.String()
}
