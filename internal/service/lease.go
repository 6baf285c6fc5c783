package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
)

// The fleet side of the service: arld as a coordinator handing units
// to remote arlworker processes under fenced leases (see
// internal/service/fleet for the lease-table semantics). The three
// endpoints are
//
//	POST /api/v1/lease               pull one unit under a new lease
//	POST /api/v1/lease/{id}/renew    heartbeat
//	POST /api/v1/lease/{id}/complete publish the result (fenced)
//
// Leased units count against queue capacity exactly like queued ones
// (the leased count below), so a lease expiry can always requeue its
// unit without blocking. Every grant is journaled write-ahead — a
// grant whose lease record cannot be persisted is retracted before
// the worker learns the token — which is what keeps fencing tokens
// monotonic across a coordinator crash: Recover folds the journaled
// high-water mark back into the table.

// ErrBadLease rejects a complete/renew request that is structurally
// invalid (unknown state, undecodable body).
var ErrBadLease = errors.New("service: bad lease request")

// TickLeases advances the lease clock by n ticks and requeues the
// units of any leases that expired. The serving binary drives this
// from its wall-clock ticker; tests drive it directly, which is what
// keeps lease timing deterministic inside the service.
func (s *Service) TickLeases(n uint64) {
	s.expireLeases(s.leases.Advance(n))
}

// sweepLeases collects expiries caused by arrival-driven clock
// advancement; every lease handler ends with one.
func (s *Service) sweepLeases() { s.expireLeases(s.leases.Advance(0)) }

func (s *Service) expireLeases(expired []fleet.Lease) {
	for _, l := range expired {
		u := l.Unit.(*unit)
		s.counter("service_leases_expired_total", "leases that expired without completion",
			obs.Labels{"worker": l.Worker}).Inc()
		s.logf("lease %s (token %d, worker %q): expired, requeueing unit %s[%d]",
			l.ID, l.Token, l.Worker, u.job.id, u.index)
		s.requeueLeased(u)
	}
	s.workersGauge()
}

func (s *Service) workersGauge() {
	s.gauge("service_workers_live", "distinct workers holding at least one live lease").
		Set(float64(s.leases.Workers()))
}

// requeueLeased returns an expired lease's unit to the queue — or
// cancels it when its job died or the service is draining. The leased
// count keeps the unit's queue-capacity reservation until the send has
// happened, so the send cannot block.
func (s *Service) requeueLeased(u *unit) {
	if u.job.ctx.Err() != nil {
		s.mu.Lock()
		s.leased--
		s.mu.Unlock()
		s.finish(u, StateCanceled, "", nil)
		return
	}
	s.transition(u, StateQueued)
	s.mu.Lock()
	if s.draining {
		s.leased--
		s.mu.Unlock()
		s.cancelDrained(u)
		return
	}
	//arlvet:allow lockheld the unit's queue slot is still reserved by the leased count this mu guards, so the send cannot block
	s.queue <- u
	s.leased--
	s.gauge("service_queue_depth", "units waiting for a worker").Set(float64(len(s.queue)))
	s.mu.Unlock()
}

// leaseNext dequeues one runnable unit and grants it to worker. It
// returns (nil, nil) when no unit is available.
func (s *Service) leaseNext(workerID string) (*fleet.LeaseGrant, error) {
	if !s.Ready() {
		return nil, ErrNotReady
	}
	// Dequeue under s.mu: the non-blocking receive plus the leased
	// increment must be atomic against Submit's capacity check and
	// requeueLeased's send, or a burst of submissions could overrun the
	// queue-capacity invariant that keeps requeues non-blocking.
	var u *unit
	var dead []*unit
	s.mu.Lock()
	for u == nil {
		select {
		//arlvet:allow lockheld non-blocking receive; the default arm exits immediately
		case cand := <-s.queue:
			if cand.job.ctx.Err() != nil {
				dead = append(dead, cand)
				continue
			}
			u = cand
			s.leased++
		default:
			s.mu.Unlock()
			for _, d := range dead {
				s.finish(d, StateCanceled, "", nil)
			}
			return nil, nil
		}
	}
	s.mu.Unlock()
	for _, d := range dead {
		s.finish(d, StateCanceled, "", nil)
	}

	l := s.leases.Grant(workerID, u)
	if s.jrn != nil {
		// Write-ahead like Submit: the fencing token must be durable
		// before the worker learns it, or a crash could reset the fence
		// and let this worker's completion collide with a post-restart
		// regrant. On failure the grant is retracted and the unit goes
		// back — the token is burned, never exposed.
		err := s.jrn.Append(journal.Record{
			T: journal.TypeLease, Job: u.job.id, Unit: u.index,
			Token: l.Token, Worker: workerID,
		})
		if err != nil {
			s.counter("service_journal_errors_total", "journal appends that failed", nil).Inc()
			s.logf("lease: journal append failed, retracting grant for %s[%d]: %v",
				u.job.id, u.index, err)
			s.leases.Retract(l.ID)
			s.mu.Lock()
			//arlvet:allow lockheld the unit's queue slot is still reserved by the leased count this mu guards, so the send cannot block
			s.queue <- u
			s.leased--
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}

	s.begin(u)
	s.counter("service_leases_granted_total", "units leased to remote workers",
		obs.Labels{"worker": workerID}).Inc()
	s.workersGauge()
	s.logf("lease %s (token %d): unit %s[%d] -> worker %q",
		l.ID, l.Token, u.job.id, u.index, workerID)

	spec, err := json.Marshal(u.spec)
	if err != nil {
		// Cannot happen for specs that expanded from JSON, but never
		// hand out a grant the worker cannot decode.
		return nil, fmt.Errorf("encoding unit spec: %v", err)
	}
	return &fleet.LeaseGrant{
		LeaseID:  l.ID,
		Token:    l.Token,
		TTL:      s.leases.TTL(),
		Job:      u.job.id,
		Unit:     u.index,
		Spec:     spec,
		Scale:    u.job.req.Scale,
		MaxInsts: u.job.req.MaxInsts,
		Seed:     u.job.req.Seed,
	}, nil
}

// completeLease validates the fencing token and lands the worker's
// result. A fenced or unknown lease is the zombie-writer rejection:
// the unit belongs to someone else (or already finished) and the
// published result is discarded.
func (s *Service) completeLease(id string, req fleet.CompleteRequest) error {
	if req.State != StateDone && req.State != StateFailed {
		return fmt.Errorf("%w: state %q", ErrBadLease, req.State)
	}
	v, err := s.leases.Complete(id, req.Token)
	if err != nil {
		s.counter("service_leases_fenced_rejects_total",
			"completions rejected for a stale or unknown lease (zombie writers)",
			obs.Labels{"worker": req.Worker}).Inc()
		s.logf("lease %s: rejected completion from worker %q (token %d): %v",
			id, req.Worker, req.Token, err)
		return err
	}
	u := v.(*unit)
	s.mu.Lock()
	s.leased--
	s.mu.Unlock()

	// A remote failure arrives as text, which is never Transient, so
	// settle finishes it failed even when its job was canceled.
	var execErr error
	switch {
	case req.State == StateFailed && req.Error == "":
		execErr = errors.New("worker reported failure")
	case req.State == StateFailed:
		execErr = errors.New(req.Error)
	case len(req.Result) == 0:
		req.Result = json.RawMessage("null")
	}
	s.settle(u, execErr, req.Result)
	s.workersGauge()
	return nil
}

// HTTP handlers.

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	defer s.sweepLeases()
	var req fleet.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding lease request: %v", err))
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	g, err := s.leaseNext(req.Worker)
	switch {
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case g == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, g)
	}
}

func (s *Service) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	defer s.sweepLeases()
	var req fleet.RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding renew request: %v", err))
		return
	}
	l, err := s.leases.Renew(r.PathValue("id"), req.Token)
	switch {
	case errors.Is(err, fleet.ErrNoLease):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, fleet.ErrFenced):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, fleet.RenewReply{Deadline: l.Deadline})
	}
}

func (s *Service) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	defer s.sweepLeases()
	var req fleet.CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding complete request: %v", err))
		return
	}
	err := s.completeLease(r.PathValue("id"), req)
	switch {
	case errors.Is(err, fleet.ErrNoLease):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, fleet.ErrFenced):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrBadLease):
		writeError(w, http.StatusBadRequest, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
	}
}
