package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/service/fleet"
	"repro/internal/store"
	"repro/internal/workload"
)

// Executor is the one place a campaign unit becomes a JSON result.
// arld's in-process pool runs its units through one, and arlworker
// hands Execute to its fleet.Worker, so a unit computes, retries and
// dedupes byte-identically wherever it lands.
type Executor struct {
	store   *store.Store
	reg     *obs.Registry
	timeout time.Duration
	retries int
	logf    func(format string, args ...any)

	mu      sync.Mutex
	runners map[runnerKey]*experiments.Runner

	// testHook, when non-nil, runs before each attempt Execute makes;
	// an error it returns fails that attempt.
	testHook func(u *unit, attempt int) error
}

// runnerKey classes runners by the campaign shaping that participates
// in artifact identity: two units with the same scale and budget share
// one Runner and therefore its in-process memos.
type runnerKey struct {
	scale    int
	maxInsts uint64
}

// NewExecutor builds an executor whose runners share st (nil for none)
// and publish to reg. unitTimeout, when positive, is each runner's
// per-stage watchdog; a failed unit is re-attempted up to retries times
// with deterministic backoff keyed by its job's seed. logf (nil for
// silence) receives one line per retry.
func NewExecutor(st *store.Store, reg *obs.Registry, unitTimeout time.Duration, retries int,
	logf func(format string, args ...any)) *Executor {
	return &Executor{
		store: st, reg: reg, timeout: unitTimeout, retries: retries, logf: logf,
		runners: make(map[runnerKey]*experiments.Runner),
	}
}

// runner returns (creating on first use) the shared Runner for one
// (scale, maxInsts) class. All runners share the executor's store —
// the cross-restart, cross-client cache tier — and its registry.
func (e *Executor) runner(scale int, maxInsts uint64) *experiments.Runner {
	k := runnerKey{scale, maxInsts}
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.runners[k]
	if r == nil {
		r = experiments.NewRunner()
		r.Scale = scale
		r.MaxInsts = maxInsts
		r.Obs = e.reg
		if e.store != nil {
			r.Store = e.store
			r.Resume = true
		}
		if e.timeout > 0 {
			r.WorkloadTimeout = e.timeout
		}
		e.runners[k] = r
	}
	return r
}

// Execute runs one leased unit; it is the fleet.Execute of arlworker
// and the fleet tests. The grant carries the job's scale, budget and
// seed, so the unit's runner class and backoff delays match the ones
// arld's own pool would use.
func (e *Executor) Execute(ctx context.Context, g fleet.LeaseGrant) (json.RawMessage, error) {
	var spec UnitSpec
	if err := json.Unmarshal(g.Spec, &spec); err != nil {
		return nil, fmt.Errorf("bad unit spec: %w", err)
	}
	j := &job{id: g.Job, req: CampaignRequest{Scale: g.Scale, MaxInsts: g.MaxInsts, Seed: g.Seed}}
	u := &unit{job: j, index: g.Unit, spec: spec, key: spec.key(g.Scale, g.MaxInsts)}
	return e.run(ctx, u, e.testHook)
}

// run executes one unit under the retry policy and returns its JSON
// result. ctx bounds the retries; before, when non-nil, runs ahead of
// every attempt, and an error it returns fails that attempt.
func (e *Executor) run(ctx context.Context, u *unit, before func(u *unit, attempt int) error) (json.RawMessage, error) {
	j := u.job
	retry := resilience.Retry{
		Attempts: e.retries + 1,
		Seed:     j.req.Seed,
		OnRetry: func(_ string, attempt int, delay time.Duration, err error) {
			if e.logf != nil {
				e.logf("job %s unit %d: attempt %d failed (%v); next try in %v",
					j.id, u.index, attempt, err, delay)
			}
			e.reg.Counter("service_unit_retries_total", "unit attempts retried after a failure",
				obs.Labels{"tenant": j.tenant}).Inc()
		},
	}
	r := e.runner(j.req.Scale, j.req.MaxInsts)
	var payload any
	attempt := 0
	err := retry.Do(ctx, u.key, func(ctx context.Context) error {
		// The job may have been canceled while this unit waited on the
		// breaker or a backoff sleep; consult the attempt context so a
		// dead job never starts a fresh simulation. (Attempts already
		// running do complete — cancel keeps finished work — but new
		// ones must not begin.)
		if err := ctx.Err(); err != nil {
			return err
		}
		attempt++
		if before != nil {
			if err := before(u, attempt); err != nil {
				return err
			}
		}
		var err error
		payload, err = dispatch(r, u.spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	enc, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %v", err)
	}
	return enc, nil
}

// dispatch runs one unit spec through r: the execution switch over the
// unit kinds.
func dispatch(r *experiments.Runner, spec UnitSpec) (any, error) {
	w, ok := workload.ByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	switch spec.Kind {
	case KindSimulate:
		return r.SimulateConfig(w, *spec.Config)
	case KindFaultCampaign:
		return r.FaultCampaign(w, spec.Seed, spec.Runs, spec.Faults, *spec.Config)
	case KindExplore:
		return r.SimulateConfigARPT(w, spec.ARPT, *spec.Config)
	default:
		return nil, fmt.Errorf("unknown unit kind %q", spec.Kind)
	}
}
