package experiments

import (
	"context"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/prog"
	"repro/internal/workload"
)

// StormRow is one cell of E15: the (3+3) machine riding out an
// injected misprediction storm at one (rate, penalty) point. Speedup
// is against the unstormed (2+0) baseline, so the row reads as "how
// much of the decoupling win survives when steering degrades this
// badly and recovery costs this much".
type StormRow struct {
	Name        string
	Rate        float64 // per-reference misprediction injection probability
	Penalty     int     // recovery penalty, cycles
	Speedup     float64 // vs the unstormed (2+0) baseline
	IPC         float64
	Mispredicts uint64
	Recoveries  uint64
}

// RecoveryStorm runs E15: for every workload and storm rate it builds
// a trace whose steering predictions are inverted with probability
// rate (deterministic in seed; see faultinject.Storm), then simulates
// the (3+3) machine across the recovery penalties. One stormed trace
// is built per (workload, rate), in a "storm <rate>" stage, and shared
// read-only by all penalty points.
func (r *Runner) RecoveryStorm(seed uint64, rates []float64, penalties []int) ([]StormRow, error) {
	if len(rates) == 0 || len(penalties) == 0 {
		return nil, nil
	}
	cfgs := make([]cpu.Config, len(penalties))
	for pi, pen := range penalties {
		cfgs[pi] = cpu.Decoupled(3, 3)
		cfgs[pi].MispredictPenalty = pen
	}
	nr, np := len(rates), len(penalties)
	rows := make([]StormRow, len(r.Workloads)*nr*np)
	err := r.parallelDo(len(r.Workloads)*nr, func(i int) error {
		w, rate := r.Workloads[i/nr], rates[i%nr]
		base, err := r.SimulateConfig(w, cpu.Conventional(2, 2))
		var results []*cpu.Result
		if err == nil {
			_, results, err = r.variant(w, fmt.Sprintf("storm %.3f", rate), func(*prog.Program) (cpu.TraceOptions, error) {
				return cpu.TraceOptions{SteerFault: faultinject.Storm(seed, rate)}, nil
			}, cfgs...)
		}
		if err != nil {
			if r.degraded(err) {
				return nil // the workload's rows stay zero; filtered below
			}
			return err
		}
		for pi, res := range results {
			rows[i*np+pi] = StormRow{
				Name: w.Name, Rate: rate, Penalty: penalties[pi],
				Speedup:     res.Speedup(base),
				IPC:         res.IPC(),
				Mispredicts: res.ARPTMispredicts,
				Recoveries:  res.Recoveries,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	kept := rows[:0]
	for _, row := range rows {
		if row.Name != "" {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// FaultCampaignConfig canonicalizes one differential fault campaign's
// parameters into the store-key Config string. It must stay in sync
// with what cmd/arlfault historically wrote, so records produced by a
// local arlfault run, a resumed one, and an arld service worker all
// address the same artifact.
func FaultCampaignConfig(seed uint64, runs, faults int, cfg cpu.Config) string {
	return fmt.Sprintf("seed=%d runs=%d faults=%d %s", seed, runs, faults, cfg.Key())
}

// FaultCampaign runs (and memoizes) one workload's seeded differential
// fault-injection campaign — the arlfault unit of work — under the
// runner's full resilience policy: store write-through and resume,
// breaker gating, retry pacing, and the per-stage watchdog. The memo
// key covers every campaign parameter, so overlapping submissions of
// the same (workload, seed, runs, faults, config) unit from concurrent
// service clients share one computation.
func (r *Runner) FaultCampaign(w *workload.Workload, seed uint64, runs, faults int, cfg cpu.Config) (*faultinject.Summary, error) {
	campaign := FaultCampaignConfig(seed, runs, faults, cfg)
	return r.campaigns.get(w.Name+"|"+campaign, func() (*faultinject.Summary, error) {
		key := r.storeKey("faultsummary", w.Name, campaign)
		var stored faultinject.Summary
		if r.storeLoad(key, &stored) {
			return &stored, nil
		}
		p, err := r.Program(w)
		if err != nil {
			return nil, err
		}
		r.logf("fault campaign %s (seed %d, %d runs x %d faults) ...", w.Name, seed, runs, faults)
		var sum *faultinject.Summary
		err = r.stage(w.Name, "faultcampaign", func(ctx context.Context) (err error) {
			sum, err = faultinject.RunCampaign(ctx, p, w.Name, seed, runs, faults, r.MaxInsts, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.storePut(key, sum)
		return sum, nil
	})
}

// FaultCampaigns runs the differential campaign over the runner's
// workloads on the worker pool, returning summaries in workload order.
func (r *Runner) FaultCampaigns(seed uint64, runs, faults int, cfg cpu.Config) ([]*faultinject.Summary, error) {
	return forEach(r, func(w *workload.Workload) (*faultinject.Summary, error) {
		return r.FaultCampaign(w, seed, runs, faults, cfg)
	})
}
