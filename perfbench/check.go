package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/workload"
)

// expectedJSON holds the simulated results recorded when the benchmark
// was defined. The identity check keys them by workload and machine
// configuration, never by run order, so it holds for every seed.
// Regenerate with `go test -run TestRecordExpectations -update` only
// when a change is meant to alter simulated results.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// simExpect is what one fig8 simulation must reproduce.
type simExpect struct {
	Cycles          uint64 `json:"cycles"`
	Insts           uint64 `json:"insts"`
	ARPTMispredicts uint64 `json:"arpt_mispredicts"`
}

// frontExpect is what one frontend item must reproduce.
type frontExpect struct {
	DynInsts    uint64 `json:"dyn_insts"`
	DynLoads    uint64 `json:"dyn_loads"`
	DynStores   uint64 `json:"dyn_stores"`
	TraceSHA256 string `json:"trace_sha256"`
}

type expectations struct {
	// Fig8 is keyed by simKey.
	Fig8 map[string]simExpect `json:"fig8"`
	// Frontend is keyed by workload name.
	Frontend map[string]frontExpect `json:"frontend"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	dec := json.NewDecoder(bytes.NewReader(expectedJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("decoding expected results: %w", err)
	}
	return &e, nil
}

func simKey(w *workload.Workload, cfg cpu.Config) string { return w.Name + " " + cfg.Name }

func (e *expectations) checkSim(w *workload.Workload, cfg cpu.Config, r *cpu.Result) error {
	want, ok := e.Fig8[simKey(w, cfg)]
	got := simExpect{r.Cycles, r.Insts, r.ARPTMispredicts}
	if !ok || got != want {
		return fmt.Errorf("%s: simulated %+v, recorded %+v", simKey(w, cfg), got, want)
	}
	return nil
}

func (e *expectations) front(name string) (frontExpect, error) {
	want, ok := e.Frontend[name]
	if !ok {
		return want, fmt.Errorf("%s: no recorded frontend result", name)
	}
	return want, nil
}

func (e *expectations) checkProfile(name string, p *profile.Profile) error {
	want, err := e.front(name)
	if err != nil {
		return err
	}
	if p.DynInsts != want.DynInsts || p.DynLoads != want.DynLoads || p.DynStores != want.DynStores {
		return fmt.Errorf("%s: profile counted %d/%d/%d insts/loads/stores, recorded %d/%d/%d",
			name, p.DynInsts, p.DynLoads, p.DynStores, want.DynInsts, want.DynLoads, want.DynStores)
	}
	return nil
}
