package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
)

// lifecycleRequest is one journaled job of three li units: (2+0), the
// same (2+0) again (a dedupe of the first) and (3+3).
func lifecycleRequest() CampaignRequest {
	c20, c33 := cpu.Conventional(2, 2), cpu.Decoupled(3, 3)
	return CampaignRequest{
		MaxInsts: testMaxInsts, Seed: 5,
		Units: []UnitSpec{
			{Kind: KindSimulate, Workload: "li", Config: &c20},
			{Kind: KindSimulate, Workload: "li", Config: &c20},
			{Kind: KindSimulate, Workload: "li", Config: &c33},
		},
	}
}

// lifecycleEvents is the event stream both dispatch paths must produce
// for lifecycleRequest run one unit at a time: each unit goes running
// then done, and only the repeated (2+0) is a dedupe.
var lifecycleEvents = []Event{
	{Seq: 0, Job: "c0001", Unit: 0, State: StateRunning},
	{Seq: 1, Job: "c0001", Unit: 0, State: StateDone},
	{Seq: 2, Job: "c0001", Unit: 1, State: StateRunning},
	{Seq: 3, Job: "c0001", Unit: 1, State: StateDone, Deduped: true},
	{Seq: 4, Job: "c0001", Unit: 2, State: StateRunning},
	{Seq: 5, Job: "c0001", Unit: 2, State: StateDone},
}

// runLifecycle submits lifecycleRequest, waits for it and checks the
// event stream, the journal's record types and the four lifecycle
// counters.
func runLifecycle(t *testing.T, svc *Service, cl *Client, jrn *journal.Journal,
	wantRecords string, wantCounters map[string]uint64) {
	t.Helper()
	resp, err := cl.Run(lifecycleRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status.State != JobComplete || resp.Status.Done != 3 || resp.Status.Deduped != 1 {
		t.Fatalf("job ended %+v, want complete with 3 done, 1 deduped", resp.Status)
	}
	j, _ := svc.Job(resp.Status.ID)
	events, _, terminal := j.eventsFrom(0)
	if !terminal {
		t.Fatal("job not terminal in its event stream")
	}
	if !reflect.DeepEqual(events, lifecycleEvents) {
		t.Fatalf("events:\n%+v\nwant:\n%+v", events, lifecycleEvents)
	}

	var types []string
	if _, err := jrn.Replay(func(r journal.Record) { types = append(types, r.T) }); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(types, " "); got != wantRecords {
		t.Fatalf("journal records:\n%s\nwant:\n%s", got, wantRecords)
	}

	reg := svc.Registry()
	for name, want := range wantCounters {
		if got := counterValue(reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestUnitLifecycle pins the unit lifecycle both dispatch paths share:
// the same events, journal records and counters, whichever path runs
// the units.
func TestUnitLifecycle(t *testing.T) {
	// The in-process pool: one worker, one retry, and an injected
	// failure on unit 0's first attempt that the retry absorbs without
	// an event.
	t.Run("local", func(t *testing.T) {
		svc, cl := journaledService(t, t.TempDir(), Config{Workers: 1, Retries: 1})
		svc.testHook = func(u *unit, attempt int) error {
			if u.index == 0 && attempt == 1 {
				return errors.New("injected first-attempt failure")
			}
			return nil
		}
		if _, err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
		runLifecycle(t, svc, cl, svc.jrn,
			"job event event event event event event end",
			map[string]uint64{
				"service_units_deduped_total":  1,
				"service_units_failed_total":   0,
				"service_unit_retries_total":   1,
				"service_leases_granted_total": 0,
			})
	})

	// The lease path: a coordinator-only service and one serial
	// fleet.Worker. Each unit's write-ahead lease record precedes its
	// two events.
	t.Run("leased", func(t *testing.T) {
		svc, cl := journaledService(t, t.TempDir(), Config{CoordinatorOnly: true, LeaseTTL: 10_000})
		if _, err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		w := &fleet.Worker{
			Coordinator: cl.Base,
			ID:          "w-lifecycle",
			Execute:     testExecute(svc.store, obs.NewRegistry()),
			RenewEvery:  50 * time.Millisecond,
			Poll:        10 * time.Millisecond,
			Parallel:    1,
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
		defer wg.Wait()
		defer cancel()

		runLifecycle(t, svc, cl, svc.jrn,
			"job lease event event lease event event lease event event end",
			map[string]uint64{
				"service_units_deduped_total":  1,
				"service_units_failed_total":   0,
				"service_unit_retries_total":   0,
				"service_leases_granted_total": 3,
			})
	})
}
