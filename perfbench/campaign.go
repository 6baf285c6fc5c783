package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cpu"
	"repro/internal/service"
	"repro/internal/service/journal"
	"repro/internal/store"
	"repro/internal/workload"
)

// campaign gives arld's dispatch, journal and store most of the work.
// Set-up runs the E7 grid against an empty store (the write path: every
// unit traces, simulates and is stored). Each round runs the same grid
// on a fresh service instance over that store (the read path: every
// unit is a store hit). A fresh instance is needed because one service
// dedupes repeated units and memoizes results per runner.
//
// The set-up's journal fsyncs every append, as arld's does. The rounds'
// journals append without fsync: on a virtual disk the fsync latency
// drifts by a quarter from one minute to the next and, at two fsyncs per
// unit, would set the round time, hiding the service's own cost.
type campaign struct {
	req  service.CampaignRequest
	want map[string][]byte // JSON of a direct cpu.Simulate per unit, keyed by simKey

	sfs, jfs timedFS
	dir      string // this set-up's store and journals
	st       *store.Store
	rounds   int
	insts    uint64 // carried by the last round's results
}

func newCampaign(rng *rand.Rand, seed uint64) (*campaign, error) {
	c := &campaign{
		req:  service.CampaignRequest{Tenant: "perfbench", MaxInsts: fig8MaxInsts, Seed: seed},
		want: make(map[string][]byte),
	}
	// The reference results come from direct calls, before set-up: they
	// are the identity check, not part of the system under test.
	traces := make(map[string]*cpu.Trace)
	for _, it := range sweep(rng, workload.All()) {
		cfg := it.cfg
		c.req.Units = append(c.req.Units, service.UnitSpec{
			Kind: service.KindSimulate, Workload: it.w.Name, Config: &cfg,
		})
		tr := traces[it.w.Name]
		if tr == nil {
			var err error
			if tr, err = buildTrace(&tracer{}, ref{}, it.w); err != nil {
				return nil, err
			}
			traces[it.w.Name] = tr
		}
		res, err := cpu.Simulate(tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", simKey(it.w, cfg), err)
		}
		if c.want[simKey(it.w, cfg)], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *campaign) setup(t *tracer, tl *tally) (time.Duration, error) {
	if err := c.close(); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(outDir, "campaign-")
	if err != nil {
		return 0, err
	}
	c.dir = dir
	c.sfs, c.jfs = newTimedFS("store", t), newTimedFS("journal", t)

	r := t.root("setup")
	t.setAmbient(r)
	start := time.Now()
	s := t.begin("store.OpenFS", r)
	c.st, err = store.OpenFS(filepath.Join(dir, "store"), c.sfs)
	t.end(s, 0, "")
	var resp service.ResultsResponse
	if err == nil {
		resp, err = c.serve(t, r, filepath.Join(dir, "journal-setup"), true)
	}
	d := time.Since(start)
	t.setAmbient(ref{})
	t.end(r, 0, "")
	if err != nil {
		return 0, err
	}
	t.add("store.writes", float64(c.st.Stats().Writes))
	c.check(resp, tl)
	return d, nil
}

func (c *campaign) round(t *tracer, tl *tally) (time.Duration, error) {
	c.rounds++
	before := c.st.Stats()
	r := t.root("campaign.round")
	t.setAmbient(r)
	start := time.Now()
	resp, err := c.serve(t, r, filepath.Join(c.dir, fmt.Sprintf("journal-%d", c.rounds)), false)
	d := time.Since(start)
	t.setAmbient(ref{})
	t.end(r, 0, "")
	if err != nil {
		return 0, err
	}
	t.add("store.hits", float64(c.st.Stats().Hits-before.Hits))
	t.add("service.units", float64(resp.Status.Done))
	c.insts = c.check(resp, tl)
	return d, nil
}

// check compares every unit's result with the direct simulation of the
// same unit and returns the instructions the results carry.
func (c *campaign) check(resp service.ResultsResponse, tl *tally) (insts uint64) {
	for _, u := range resp.Units {
		key := u.Spec.Workload + " " + u.Spec.Config.Name
		var err error
		var res cpu.Result
		switch {
		case u.State != service.StateDone:
			err = fmt.Errorf("%s: unit ended %s: %s", key, u.State, u.Error)
		case json.Unmarshal(u.Result, &res) != nil:
			err = fmt.Errorf("%s: undecodable result", key)
		default:
			insts += res.Insts
			got, _ := json.Marshal(&res) // re-encoding a decoded Result cannot fail
			if string(got) != string(c.want[key]) {
				err = fmt.Errorf("%s: served result differs from a direct cpu.Simulate:\n got %s\nwant %s",
					key, got, c.want[key])
			}
		}
		tl.op(err)
	}
	if len(resp.Units) != len(c.req.Units) {
		tl.op(fmt.Errorf("job returned %d of %d units", len(resp.Units), len(c.req.Units)))
	}
	return insts
}

// serve runs the grid once on a fresh service instance, with its own
// journal in jdir, over the campaign's store and an in-process HTTP
// listener, then drains and stops it.
func (c *campaign) serve(t *tracer, r ref, jdir string, sync bool) (resp service.ResultsResponse, err error) {
	s := t.begin("journal.OpenFS", r)
	jrn, err := journal.OpenFS(c.jfs, jdir)
	t.end(s, 0, "")
	if err != nil {
		return resp, err
	}
	jrn.SetSync(sync)

	s = t.begin("service.Start", r)
	svc := service.New(service.Config{Journal: jrn}, c.st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		t.end(s, 0, "")
		return resp, errors.Join(err, jrn.Close())
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	_, err = svc.Recover()
	t.end(s, 0, "")

	transport := &http.Transport{}
	if err == nil {
		cl := &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: transport}}
		resp, err = c.runJob(t, r, cl)
	}

	s = t.begin("service.Drain", r)
	svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	serr := srv.Shutdown(ctx)
	cancel()
	if e := <-served; !errors.Is(e, http.ErrServerClosed) {
		serr = errors.Join(serr, e)
	}
	transport.CloseIdleConnections()
	t.add("journal.appends", float64(jrn.Appends()))
	err = errors.Join(err, serr, jrn.Close())
	t.end(s, 0, "")
	return resp, err
}

// runJob submits the grid, follows the job's /events stream until it
// ends, and fetches the results.
func (c *campaign) runJob(t *tracer, r ref, cl *service.Client) (service.ResultsResponse, error) {
	submitted := time.Now()
	s := t.begin("Client.Submit", r)
	st, err := cl.Submit(c.req)
	t.end(s, 0, "")
	if err != nil {
		return service.ResultsResponse{}, err
	}
	s = t.begin("Client.Events", r)
	err = followEvents(t, cl, st.ID, submitted)
	t.end(s, 0, "")
	if err != nil {
		return service.ResultsResponse{}, err
	}
	s = t.begin("Client.Results", r)
	resp, err := cl.Results(st.ID)
	t.end(s, 0, "")
	if err == nil && resp.Status.State != service.JobComplete {
		err = fmt.Errorf("job %s ended %s", st.ID, resp.Status.State)
	}
	return resp, err
}

// followEvents reads the job's NDJSON event stream, which the server
// closes once the job is terminal. A unit's queue wait runs from the
// submission to the arrival of its running event, its execution from
// there to the arrival of its done event.
func followEvents(t *tracer, cl *service.Client, id string, submitted time.Time) error {
	resp, err := cl.HTTP.Get(cl.Base + "/api/v1/campaigns/" + id + "/events?from=0")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	running := make(map[int]time.Time)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		var e service.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch e.State {
		case service.StateRunning:
			running[e.Unit] = now
			t.observe("service.queue_wait_ms", now.Sub(submitted))
		case service.StateDone:
			if at, ok := running[e.Unit]; ok {
				t.observe("service.execute_ms", now.Sub(at))
			}
		}
	}
	return sc.Err()
}

func (c *campaign) work() (insts, ops float64) {
	return float64(c.insts), float64(len(c.req.Units))
}

// close removes the set-up's store and journals.
func (c *campaign) close() error {
	if c.dir == "" {
		return nil
	}
	err := os.RemoveAll(c.dir)
	c.dir = ""
	return err
}
