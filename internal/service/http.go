package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the service's HTTP API (see the package doc for the
// route table).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/explorations", s.handleExplore)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("POST /api/v1/campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/v1/lease", s.handleLease)
	mux.HandleFunc("POST /api/v1/lease/{id}/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /api/v1/lease/{id}/complete", s.handleLeaseComplete)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Liveness vs readiness: /healthz is "the process is up" — true
	// from the first accepted connection, through journal replay,
	// through drain. /readyz is "route traffic here" — false while the
	// journal replays and false again the moment Drain begins, so load
	// balancers stop sending work to a server that would only 503 it.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, req)
}

// handleExplore accepts a design-space exploration: the grid expands
// into explore units server-side and submits as an ordinary campaign,
// sharing handleSubmit's idempotency and status mapping.
func (s *Service) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExplorationRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	creq, err := req.Campaign()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, creq)
}

// submit submits one campaign and writes the answer: 202 with the job
// status, 503 while the service cannot take work (draining, replaying
// its journal, journal write failed), 429 over the queue or tenant
// bound, and 400 for a request that does not validate.
func (s *Service) submit(w http.ResponseWriter, req CampaignRequest) {
	status, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotReady), errors.Is(err, ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuota):
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, status)
	}
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, s.results(j))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Cancel(id) {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	j, _ := s.Job(id)
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleEvents streams the job's per-unit events as NDJSON: a replay
// from ?from=N (default 0, by sequence number), then a live tail until
// the job reaches a terminal state or the client goes away. Each write
// runs under a deadline: a subscriber that stops reading (its socket
// buffers full) is dropped after Config.EventWriteTimeout instead of
// wedging this handler — and, through it, a goroutine per dead client
// — forever. A dropped subscriber re-attaches with ?from=N.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errors.New("bad from parameter"))
			return
		}
		from = n
	}
	timeout := s.cfg.EventWriteTimeout
	if timeout <= 0 {
		timeout = DefaultEventWriteTimeout
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for {
		events, more, terminal := j.eventsFrom(from)
		if len(events) > 0 {
			// One deadline covers the whole batch: a reader draining at
			// any reasonable rate never hits it, a stopped one does.
			rc.SetWriteDeadline(time.Now().Add(timeout))
			for _, e := range events {
				if enc.Encode(e) != nil {
					s.dropSubscriber(e.Job)
					return
				}
			}
			from = events[len(events)-1].Seq + 1
			if rc.Flush() != nil {
				s.dropSubscriber(events[0].Job)
				return
			}
		}
		if terminal {
			return
		}
		// Every terminal transition — including a drain canceling the
		// queued units — emits an event, so waiting on the notify
		// channel alone cannot miss the end of the job.
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// dropSubscriber counts one /events stream ended by a write failure or
// deadline — the slow-subscriber guard firing.
func (s *Service) dropSubscriber(jobID string) {
	s.counter("service_events_dropped_subscribers_total",
		"event subscribers dropped after a failed or timed-out write", nil).Inc()
	s.logf("events %s: subscriber dropped (write failed or timed out)", jobID)
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.WriteMetrics(w); err != nil {
		s.logf("metrics: %v", err)
	}
}
