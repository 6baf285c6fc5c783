package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config shapes one Service.
type Config struct {
	// Workers bounds the pool executing units (0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds the unit queue; a submission that does not fit
	// is rejected with 429 (0 = DefaultQueueCap).
	QueueCap int
	// TenantCap bounds one tenant's queued+running units; a submission
	// that would exceed it is rejected with 429 (0 = QueueCap).
	TenantCap int
	// UnitTimeout, when positive, is the per-stage watchdog handed to
	// the runners (see experiments.Runner.WorkloadTimeout).
	UnitTimeout time.Duration
	// Retries re-attempts a failed unit up to this many times with
	// deterministic backoff keyed by the request seed.
	Retries int
	// Journal, when non-nil, makes the service crash-restartable: every
	// accepted job and unit state transition is written ahead to it,
	// and the service stays not-ready (submissions rejected with
	// ErrNotReady, /readyz 503) until Recover has replayed it.
	Journal *journal.Journal
	// EventWriteTimeout bounds one write to an /events subscriber; a
	// subscriber that stops reading past its socket buffers is dropped
	// after this long instead of wedging the handler forever (0 =
	// DefaultEventWriteTimeout). A dropped subscriber re-attaches with
	// ?from=N.
	EventWriteTimeout time.Duration
	// LeaseTTL is the remote-worker lease lifetime in lease-clock ticks
	// (0 = fleet.DefaultTTL). The lease clock advances on lease-API
	// arrivals and explicit TickLeases calls, never on the wall clock.
	LeaseTTL int
	// CoordinatorOnly suppresses the in-process worker pool: every unit
	// must be pulled by a remote arlworker through the lease API. The
	// queue, journal, dedupe and event machinery are unchanged.
	CoordinatorOnly bool
	// Log receives one line per notable event (nil for silence).
	Log io.Writer
}

// DefaultQueueCap bounds the unit queue when Config.QueueCap is zero.
const DefaultQueueCap = 1024

// DefaultEventWriteTimeout bounds one /events write when
// Config.EventWriteTimeout is zero.
const DefaultEventWriteTimeout = 30 * time.Second

// Submission rejections, mapped onto HTTP statuses by the handler.
var (
	ErrDraining  = errors.New("service: draining, not accepting campaigns")
	ErrQueueFull = errors.New("service: unit queue full")
	ErrQuota     = errors.New("service: tenant quota exceeded")
	// ErrNotReady rejects submissions between startup and the end of
	// journal replay; clients retry (the window is one Recover call).
	ErrNotReady = errors.New("service: recovering journal, not ready")
	// ErrJournal rejects a submission whose write-ahead record could
	// not be persisted: accepting it would break the crash-restart
	// guarantee, so the client must retry.
	ErrJournal = errors.New("service: journal write failed")
)

// unit is one queued piece of work.
type unit struct {
	job     *job
	index   int
	spec    UnitSpec
	key     string
	state   string // guarded by job.mu
	deduped bool
	errText string
	result  json.RawMessage
}

// job is one accepted campaign.
type job struct {
	id     string
	tenant string
	req    CampaignRequest
	units  []*unit

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	events   []Event       // ascending by Seq; contiguous except after corrupt-journal recovery
	nextSeq  int           // next event sequence number (survives restarts)
	notify   chan struct{} // closed and replaced on every event
	state    string
	drained  bool // ended by a server drain, not by its own units
	counts   map[string]int
	deduped  int
	done     chan struct{}
	finished bool
}

// Service is the sharded campaign engine behind arld.
type Service struct {
	cfg   Config
	store *store.Store
	reg   *obs.Registry

	queue chan *unit
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	nextJob  int
	leased   int                 // units out on remote leases; they keep their queue-capacity slot
	seen     map[string]struct{} // unit keys computed (or claimed) by this process
	tenant   map[string]int      // queued+running units per tenant
	idem     map[string]string   // tenant-scoped idempotency key -> job id

	leases *fleet.Table
	exec   *Executor

	jrn   *journal.Journal
	ready atomic.Bool // false while the journal replays and once draining

	breaker  *resilience.Breaker
	inflight atomic.Int64

	// testHook, when non-nil, runs before each unit execution attempt;
	// an error it returns fails that attempt. Tests use it to simulate
	// worker crashes and slow units.
	testHook func(u *unit, attempt int) error
}

// New starts a Service: its worker pool runs until Drain.
func New(cfg Config, st *store.Store) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.TenantCap <= 0 {
		cfg.TenantCap = cfg.QueueCap
	}
	s := &Service{
		cfg:     cfg,
		store:   st,
		reg:     obs.NewRegistry(),
		queue:   make(chan *unit, cfg.QueueCap),
		stop:    make(chan struct{}),
		jobs:    make(map[string]*job),
		seen:    make(map[string]struct{}),
		tenant:  make(map[string]int),
		idem:    make(map[string]string),
		jrn:     cfg.Journal,
		breaker: resilience.NewBreaker(0),
		leases:  fleet.NewTable(cfg.LeaseTTL),
	}
	s.exec = NewExecutor(st, s.reg, cfg.UnitTimeout, cfg.Retries, s.logf)
	// A journal-less service has nothing to replay; a journaled one
	// stays not-ready until Recover walks the log.
	s.ready.Store(cfg.Journal == nil)
	if !cfg.CoordinatorOnly {
		for i := 0; i < cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	return s
}

// Ready reports whether the service is accepting submissions: journal
// replay has finished (or no journal is configured) and Drain has not
// begun. /readyz serves this; /healthz stays true the whole time.
func (s *Service) Ready() bool { return s.ready.Load() }

// Registry exposes the service metrics registry (for /metrics and
// tests).
func (s *Service) Registry() *obs.Registry { return s.reg }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "arld: "+format+"\n", args...)
	}
}

// expand resolves the request into concrete, validated units: explicit
// units first, then the workloads × configs grid.
func expand(req CampaignRequest) ([]UnitSpec, error) {
	units := make([]UnitSpec, 0, len(req.Units))
	for i, u := range req.Units {
		if u.Kind == "" {
			u.Kind = KindSimulate
		}
		w, ok := workload.ByName(u.Workload)
		if !ok {
			return nil, fmt.Errorf("unit %d: unknown workload %q", i, u.Workload)
		}
		// Canonicalize: the unit key embeds the workload name, so "li"
		// and "130.li" must not mint two keys for one simulation.
		u.Workload = w.Name
		switch u.Kind {
		case KindSimulate:
			if u.Config == nil {
				return nil, fmt.Errorf("unit %d: simulate unit without a config", i)
			}
			if err := u.Config.Validate(); err != nil {
				return nil, fmt.Errorf("unit %d: %v", i, err)
			}
		case KindFaultCampaign:
			if u.Config == nil || u.Runs <= 0 || u.Faults <= 0 {
				return nil, fmt.Errorf("unit %d: faultcampaign unit needs config, runs and faults", i)
			}
		case KindExplore:
			if u.Config == nil {
				return nil, fmt.Errorf("unit %d: explore unit without a config", i)
			}
			if err := u.Config.Validate(); err != nil {
				return nil, fmt.Errorf("unit %d: %v", i, err)
			}
			if u.ARPT < 0 {
				return nil, fmt.Errorf("unit %d: negative ARPT size %d", i, u.ARPT)
			}
			if u.ARPT == 0 {
				// Default ARPT means the plain simulation: normalize the
				// kind so the unit dedupes against simulate campaigns.
				u.Kind = KindSimulate
			}
		default:
			return nil, fmt.Errorf("unit %d: unknown kind %q", i, u.Kind)
		}
		units = append(units, u)
	}
	if len(req.Configs) > 0 {
		names := req.Workloads
		if len(names) == 0 {
			for _, w := range workload.All() {
				names = append(names, w.Name)
			}
		}
		for _, name := range names {
			w, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			for _, cn := range req.Configs {
				cfg, err := ParseConfigName(cn)
				if err != nil {
					return nil, err
				}
				units = append(units, UnitSpec{Kind: KindSimulate, Workload: w.Name, Config: &cfg})
			}
		}
	}
	if len(units) == 0 {
		return nil, errors.New("campaign holds no units")
	}
	return units, nil
}

// Submit validates and enqueues one campaign. The rejection errors
// (ErrDraining, ErrNotReady, ErrJournal, ErrQueueFull, ErrQuota) map
// onto 503/429; anything else is a 400-shaped validation failure. A
// request repeating an already-seen idempotency key returns the
// original job's status instead of a new job.
func (s *Service) Submit(req CampaignRequest) (JobStatus, error) {
	specs, err := expand(req)
	if err != nil {
		return JobStatus{}, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	idemKey := ""
	if req.IdempotencyKey != "" {
		idemKey = tenant + "\x00" + req.IdempotencyKey
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(tenant, "draining")
		return JobStatus{}, ErrDraining
	}
	if !s.ready.Load() {
		s.mu.Unlock()
		s.reject(tenant, "not-ready")
		return JobStatus{}, ErrNotReady
	}
	if idemKey != "" {
		if id, ok := s.idem[idemKey]; ok {
			j := s.jobs[id]
			s.counter("service_idempotent_replays_total",
				"submissions answered by an existing job via idempotency key",
				obs.Labels{"tenant": tenant}).Inc()
			s.mu.Unlock()
			s.logf("job %s: idempotent replay for tenant %q", id, tenant)
			return s.status(j), nil
		}
	}
	if s.tenant[tenant]+len(specs) > s.cfg.TenantCap {
		s.mu.Unlock()
		s.reject(tenant, "quota")
		return JobStatus{}, fmt.Errorf("%w: tenant %q has %d units in flight, cap %d",
			ErrQuota, tenant, s.tenant[tenant], s.cfg.TenantCap)
	}
	// len(queue) only shrinks concurrently (workers dequeue; enqueues
	// all happen under mu), so this check is conservative and the
	// sends below cannot block. Leased units keep their queue slot
	// reserved — an expired lease must always be able to requeue its
	// unit without blocking.
	if len(s.queue)+s.leased+len(specs) > s.cfg.QueueCap {
		s.mu.Unlock()
		s.reject(tenant, "queue")
		return JobStatus{}, fmt.Errorf("%w: %d queued, %d leased, %d requested, cap %d",
			ErrQueueFull, len(s.queue), s.leased, len(specs), s.cfg.QueueCap)
	}
	id := fmt.Sprintf("c%04d", s.nextJob+1)
	if s.jrn != nil {
		// Write-ahead: the job record must be durable before the job is
		// visible or any unit can run; a failed append rejects the
		// submission rather than accepting work a crash would lose.
		reqEnc, err := json.Marshal(req)
		if err != nil {
			s.mu.Unlock()
			return JobStatus{}, fmt.Errorf("encoding request: %v", err)
		}
		//arlvet:allow lockheld the job record must hit the journal before the job becomes visible; the ID allocation and idempotency registration it orders live under this mu
		jerr := s.jrn.Append(journal.Record{
			T: journal.TypeJob, Job: id, Tenant: tenant,
			IdemKey: req.IdempotencyKey, Req: reqEnc,
		})
		if jerr != nil {
			s.counter("service_journal_errors_total", "journal appends that failed", nil).Inc()
			s.mu.Unlock()
			s.reject(tenant, "journal")
			s.logf("job %s: rejected, journal append failed: %v", id, jerr)
			return JobStatus{}, fmt.Errorf("%w: %v", ErrJournal, jerr)
		}
	}
	s.nextJob++
	j := newJob(id, tenant, req, specs)
	s.jobs[j.id] = j
	if idemKey != "" {
		s.idem[idemKey] = j.id
	}
	s.tenant[tenant] += len(specs)
	for _, u := range j.units {
		//arlvet:allow lockheld capacity was checked under this same mu above and only workers shrink the queue, so these sends cannot block
		s.queue <- u
		s.counter("service_units_total", "campaign units accepted",
			obs.Labels{"tenant": tenant, "kind": u.spec.Kind}).Inc()
	}
	s.counter("service_jobs_total", "campaigns accepted", obs.Labels{"tenant": tenant}).Inc()
	s.gauge("service_queue_depth", "units waiting for a worker").Set(float64(len(s.queue)))
	s.mu.Unlock()

	s.logf("job %s: %d units from tenant %q", j.id, len(specs), tenant)
	return s.status(j), nil
}

// newJob builds an accepted campaign whose units all start queued.
func newJob(id, tenant string, req CampaignRequest, specs []UnitSpec) *job {
	j := &job{
		id:     id,
		tenant: tenant,
		req:    req,
		notify: make(chan struct{}),
		state:  StateRunning,
		counts: map[string]int{StateQueued: len(specs)},
		done:   make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	for i, spec := range specs {
		j.units = append(j.units, &unit{
			job: j, index: i, spec: spec,
			key:   spec.key(req.Scale, req.MaxInsts),
			state: StateQueued,
		})
	}
	return j
}

func (s *Service) counter(name, help string, labels obs.Labels) *obs.Counter {
	return s.reg.Counter(name, help, labels)
}

func (s *Service) gauge(name, help string) *obs.Gauge {
	return s.reg.Gauge(name, help, nil)
}

func (s *Service) reject(tenant, reason string) {
	s.counter("service_rejected_total", "campaign submissions rejected",
		obs.Labels{"tenant": tenant, "reason": reason}).Inc()
}

// Job looks a job up by id.
func (s *Service) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists job statuses, newest first.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id > jobs[k].id })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	return out
}

// Cancel cancels a job: its queued units end as canceled (workers skip
// them), while already-running units complete and keep their results —
// finished work stays in the shared store either way.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.cancel()
	s.logf("job %s: canceled", id)
	return true
}

// status snapshots one job's wire status.
func (s *Service) status(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		Tenant:   j.tenant,
		State:    j.state,
		Units:    len(j.units),
		Queued:   j.counts[StateQueued],
		Running:  j.counts[StateRunning],
		Done:     j.counts[StateDone],
		Failed:   j.counts[StateFailed],
		Canceled: j.counts[StateCanceled],
		Deduped:  j.deduped,
	}
}

// results snapshots the full per-unit outcome.
func (s *Service) results(j *job) ResultsResponse {
	resp := ResultsResponse{Status: s.status(j)}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, u := range j.units {
		resp.Units = append(resp.Units, UnitStatus{
			Index: u.index, Spec: u.spec, State: u.state,
			Deduped: u.deduped, Error: u.errText, Result: u.result,
		})
	}
	return resp
}

// worker pulls units until the service drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case u := <-s.queue:
			s.gauge("service_queue_depth", "units waiting for a worker").Set(float64(len(s.queue)))
			s.run(u)
		}
	}
}

// run executes one unit from the in-process pool: the workload's
// circuit breaker gates entry, the executor runs it under the retry
// policy, and settle publishes the outcome.
func (s *Service) run(u *unit) {
	j := u.job
	if j.ctx.Err() != nil {
		s.finish(u, StateCanceled, "", nil)
		return
	}
	s.begin(u)
	s.inflight.Add(1)
	s.gauge("service_inflight_units", "units currently executing").Set(float64(s.inflight.Load()))
	defer func() {
		s.inflight.Add(-1)
		s.gauge("service_inflight_units", "units currently executing").Set(float64(s.inflight.Load()))
	}()
	if err := s.breaker.Allow(u.spec.Workload); err != nil {
		s.finish(u, StateFailed, err.Error(), nil)
		return
	}
	result, err := s.exec.run(j.ctx, u, s.testHook)
	s.settle(u, err, result)
}

// begin starts a unit on either dispatch path. The first claim of a
// key in this process computes; every later unit with the same key —
// same client resubmitting, another tenant's overlapping grid — shares
// that computation through the runner memo and the store, and is
// counted as a dedupe hit. The write happens under j.mu: results()
// snapshots u.deduped under that lock concurrently. The unit then goes
// Running.
func (s *Service) begin(u *unit) {
	j := u.job
	s.mu.Lock()
	_, deduped := s.seen[u.key]
	s.seen[u.key] = struct{}{}
	s.mu.Unlock()
	j.mu.Lock()
	u.deduped = deduped
	j.mu.Unlock()
	if deduped {
		s.counter("service_units_deduped_total", "units satisfied by work another unit already did",
			obs.Labels{"tenant": j.tenant}).Inc()
	}
	s.transition(u, StateRunning)
}

// settle lands a unit's outcome on either dispatch path: the breaker
// records it, and the unit finishes done with its result or failed —
// canceled instead when its job was canceled under it.
func (s *Service) settle(u *unit, err error, result json.RawMessage) {
	s.breaker.Record(u.spec.Workload, err)
	if err == nil {
		s.finish(u, StateDone, "", result)
		return
	}
	state := StateFailed
	if u.job.ctx.Err() != nil && resilience.Transient(err) {
		// The job was canceled under the unit; it did not fail on its
		// own terms.
		state = StateCanceled
	}
	s.counter("service_units_failed_total", "units that failed permanently",
		obs.Labels{"tenant": u.job.tenant}).Inc()
	s.finish(u, state, err.Error(), nil)
}

// transition moves a unit between non-terminal states and emits (and
// journals) the event.
func (s *Service) transition(u *unit, state string) {
	j := u.job
	j.mu.Lock()
	j.counts[u.state]--
	u.state = state
	j.counts[state]++
	e := j.emitLocked(Event{Job: j.id, Unit: u.index, State: state})
	s.journalEventLocked(e, nil)
	j.mu.Unlock()
}

// journalEventLocked appends one event record to the journal. Called
// under the job's mu: the journal must record events in the same order
// their sequence numbers were assigned, and the event only becomes
// visible to streamers when that mu is released — so writing inside
// the lock is what makes "journaled" and "observable" atomic. An
// append failure is counted and logged, not fatal: the event still
// flows to live subscribers; a crash before the next successful append
// would replay the unit from its previous state, and the store memo
// absorbs the recompute.
func (s *Service) journalEventLocked(e Event, result json.RawMessage) {
	if s.jrn == nil {
		return
	}
	//arlvet:allow lockheld WAL ordering: the journal must see events in seq order, which only holding the job mu guarantees
	err := s.jrn.Append(journal.Record{
		T: journal.TypeEvent, Job: e.Job, Seq: e.Seq, Unit: e.Unit,
		State: e.State, Deduped: e.Deduped, Error: e.Error, Result: result,
	})
	if err != nil {
		s.counter("service_journal_errors_total", "journal appends that failed", nil).Inc()
		s.logf("journal: event %s/%d: %v", e.Job, e.Seq, err)
	}
}

// finish moves a unit to a terminal state, releases its tenant quota,
// emits the event, and finalizes the job when it was the last one.
func (s *Service) finish(u *unit, state, errText string, result json.RawMessage) {
	j := u.job
	j.mu.Lock()
	j.counts[u.state]--
	u.state = state
	u.errText = errText
	u.result = result
	j.counts[state]++
	if u.deduped && state == StateDone {
		j.deduped++
	}
	e := j.emitLocked(Event{Job: j.id, Unit: u.index, State: state, Deduped: u.deduped, Error: errText})
	// The result payload rides in the journal record (not the event
	// wire form), so /results serves finished units after a restart
	// without re-executing them.
	s.journalEventLocked(e, result)
	terminal := j.terminal()
	if terminal && !j.finished {
		j.finished = true
		j.state = j.outcome()
		if s.jrn != nil {
			//arlvet:allow lockheld the end record must be ordered after the final unit event, which this mu serializes
			if err := s.jrn.Append(journal.Record{T: journal.TypeEnd, Job: j.id, State: j.state}); err != nil {
				s.counter("service_journal_errors_total", "journal appends that failed", nil).Inc()
				s.logf("journal: end %s: %v", j.id, err)
			}
		}
		close(j.done)
	}
	final := j.state
	j.mu.Unlock()

	s.mu.Lock()
	s.tenant[j.tenant]--
	if s.tenant[j.tenant] <= 0 {
		delete(s.tenant, j.tenant)
	}
	s.mu.Unlock()
	if terminal {
		s.logf("job %s: %s", j.id, final)
	}
}

// terminal reports whether every unit has reached a terminal state.
// Callers hold j.mu, or own the job outright as Recover does before
// publishing it.
func (j *job) terminal() bool {
	return j.counts[StateDone]+j.counts[StateFailed]+j.counts[StateCanceled] == len(j.units)
}

// outcome is the final state of a terminal job: interrupted by a drain,
// canceled by its client, else failed, canceled or complete by its unit
// counts. Callers hold j.mu, as for terminal.
func (j *job) outcome() string {
	switch {
	case j.drained:
		return JobInterrupted
	case j.ctx.Err() != nil:
		return JobCanceled
	case j.counts[StateFailed] > 0:
		return JobFailed
	case j.counts[StateCanceled] > 0:
		return JobCanceled
	default:
		return JobComplete
	}
}

// emitLocked stamps the next sequence number on the event, appends it
// and wakes the streamers, returning the stamped event. Callers hold
// j.mu. Sequence numbers continue across restarts (Recover seeds
// nextSeq past the replayed events), which is what keeps a client's
// ?from=N resume point valid on the restarted server.
func (j *job) emitLocked(e Event) Event {
	e.Seq = j.nextSeq
	j.nextSeq++
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	return e
}

// eventsFrom returns the events with sequence number ≥ from, plus a
// channel that closes when more arrive and whether the job is
// terminal. The slice is ascending by Seq (contiguous except when
// corrupt-journal recovery dropped records), so the cut point is a
// binary search, not an index.
func (j *job) eventsFrom(from int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq >= from })
	var evs []Event
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.notify, j.finished
}

// RecoverStats summarizes one journal recovery.
type RecoverStats struct {
	Jobs     int // jobs reconstructed from the journal
	Finished int // of those, jobs already terminal (nothing to run)
	Requeued int // incomplete units re-enqueued
	Replayed int // intact journal records applied
	Corrupt  int // journal lines dropped by checksum/framing
	Torn     int // torn segment tails (crash-mid-append signatures)
}

// Recover replays the journal and restores the service to the state
// the previous process crashed out of: every accepted job exists again
// with its event history (same sequence numbers), finished units keep
// their results, and incomplete units are re-enqueued — they recompute
// through the store memo, so no finished work re-executes. Submissions
// are rejected with ErrNotReady until Recover returns; call it once,
// after New, before (or concurrently with) serving traffic. With no
// journal configured it only flips the service ready.
func (s *Service) Recover() (RecoverStats, error) {
	var rs RecoverStats
	if s.jrn == nil {
		s.ready.Store(true)
		return rs, nil
	}
	// Fold the log into per-job state: the last writer wins record by
	// record, exactly the order the previous process applied them.
	type replayJob struct {
		rec    journal.Record
		events []journal.Record
		end    *journal.Record
	}
	byJob := make(map[string]*replayJob)
	var maxToken uint64
	stats, err := s.jrn.Replay(func(r journal.Record) {
		switch r.T {
		case journal.TypeJob:
			byJob[r.Job] = &replayJob{rec: r}
		case journal.TypeEvent:
			if rj := byJob[r.Job]; rj != nil {
				rj.events = append(rj.events, r)
			}
		case journal.TypeEnd:
			if rj := byJob[r.Job]; rj != nil {
				end := r
				rj.end = &end
			}
		case journal.TypeLease:
			// Leases die with the coordinator (their units replay as
			// Running and requeue below), but the fencing high-water
			// mark must not: a pre-crash zombie's token has to stay
			// stale against every post-restart grant.
			if r.Token > maxToken {
				maxToken = r.Token
			}
		}
	})
	if err != nil {
		return rs, err
	}
	s.leases.SetFence(maxToken)
	rs.Replayed, rs.Corrupt, rs.Torn = stats.Records, stats.Corrupt, stats.Torn
	s.counter("service_journal_replayed_records_total", "journal records replayed intact at startup", nil).Add(uint64(stats.Records))
	s.counter("service_journal_corrupt_records_total", "journal lines dropped as corrupt at startup", nil).Add(uint64(stats.Corrupt))
	if stats.Torn > 0 {
		s.counter("service_journal_torn_tails_total", "torn journal segment tails (crash mid-append)", nil).Add(uint64(stats.Torn))
	}

	ids := make([]string, 0, len(byJob))
	for id := range byJob {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var requeue []*unit // units to re-enqueue, in job order
	var reset []*unit   // of those, units that were mid-run at the crash
	s.mu.Lock()
	for _, id := range ids {
		rj := byJob[id]
		var req CampaignRequest
		if err := json.Unmarshal(rj.rec.Req, &req); err != nil {
			s.logf("recover: job %s: undecodable request, dropping: %v", id, err)
			continue
		}
		specs, err := expand(req)
		if err != nil {
			s.logf("recover: job %s: request no longer expands, dropping: %v", id, err)
			continue
		}
		tenant := rj.rec.Tenant
		if tenant == "" {
			tenant = "anonymous"
		}
		j := newJob(id, tenant, req, specs)
		// Replay the event history in sequence order. Corruption may
		// have dropped records, so later events always win: each one
		// carries the unit's full state at that point.
		sort.Slice(rj.events, func(a, b int) bool { return rj.events[a].Seq < rj.events[b].Seq })
		for _, ev := range rj.events {
			if ev.Unit < 0 || ev.Unit >= len(j.units) {
				continue
			}
			u := j.units[ev.Unit]
			j.counts[u.state]--
			u.state = ev.State
			j.counts[ev.State]++
			u.deduped = ev.Deduped
			u.errText = ev.Error
			if len(ev.Result) > 0 {
				u.result = ev.Result
			}
			if ev.State == StateDone && ev.Deduped {
				j.deduped++
			}
			j.events = append(j.events, Event{
				Seq: ev.Seq, Job: id, Unit: ev.Unit, State: ev.State,
				Deduped: ev.Deduped, Error: ev.Error,
			})
			if ev.Seq >= j.nextSeq {
				j.nextSeq = ev.Seq + 1
			}
		}
		if rj.end != nil || j.terminal() {
			j.finished = true
			j.state = j.outcome()
			if rj.end != nil {
				j.state = rj.end.State
			}
			close(j.done)
			rs.Finished++
		} else {
			n := 0
			for _, u := range j.units {
				switch u.state {
				case StateQueued:
					requeue = append(requeue, u)
					n++
				case StateRunning:
					// Mid-run at the crash: the attempt died with the
					// process. Re-queue; transition() below emits (and
					// journals) the queued event so stream followers see
					// the reset.
					requeue = append(requeue, u)
					reset = append(reset, u)
					n++
				}
			}
			s.tenant[tenant] += n
		}
		// Done units' keys count as computed for dedupe accounting, and
		// their artifacts sit in the store for the memo to find.
		for _, u := range j.units {
			if u.state == StateDone {
				s.seen[u.key] = struct{}{}
			}
		}
		if rj.rec.IdemKey != "" {
			s.idem[tenant+"\x00"+rj.rec.IdemKey] = id
		}
		s.jobs[id] = j
		var num int
		if _, err := fmt.Sscanf(id, "c%04d", &num); err == nil && num > s.nextJob {
			s.nextJob = num
		}
		rs.Jobs++
	}
	s.mu.Unlock()

	for _, u := range reset {
		s.transition(u, StateQueued)
	}
	rs.Requeued = len(requeue)
	s.counter("service_journal_recovered_jobs_total", "jobs reconstructed from the journal", nil).Add(uint64(rs.Jobs))
	s.counter("service_units_requeued_total", "incomplete units re-enqueued after recovery", nil).Add(uint64(rs.Requeued))
	s.logf("recovered %d jobs (%d finished) from journal: %d records, %d corrupt, %d torn; re-enqueueing %d units",
		rs.Jobs, rs.Finished, rs.Replayed, rs.Corrupt, rs.Torn, rs.Requeued)

	// Open for business before the (possibly queue-capacity-blocking)
	// re-enqueue: workers are already draining the channel, and new
	// submissions interleave safely with recovered units.
	s.ready.Store(true)
	for _, u := range requeue {
		s.queue <- u
	}
	s.gauge("service_queue_depth", "units waiting for a worker").Set(float64(len(s.queue)))
	return rs, nil
}

// Drain gracefully shuts the service down: new submissions get
// ErrDraining, in-flight units run to completion (their artifacts
// flush through the store's atomic writes), and still-queued units end
// as canceled with their jobs marked interrupted. Blocks until the
// pool is idle.
func (s *Service) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()
	// Readiness drops the instant draining starts, so a load balancer
	// stops routing while in-flight units finish.
	s.ready.Store(false)
	s.logf("draining: %d units in flight, %d queued", s.inflight.Load(), len(s.queue))
	close(s.stop)
	s.wg.Wait()
	for {
		select {
		case u := <-s.queue:
			s.cancelDrained(u)
		default:
			s.gauge("service_queue_depth", "units waiting for a worker").Set(0)
			// Outstanding remote leases are canceled too: their workers'
			// completions will find no lease (404) and move on, and the
			// units end interrupted like drained queued ones. Finished
			// remote work already flushed through the workers' stores.
			for _, l := range s.leases.DrainAll() {
				s.mu.Lock()
				s.leased--
				s.mu.Unlock()
				s.cancelDrained(l.Unit.(*unit))
			}
			s.workersGauge()
			return
		}
	}
}

// cancelDrained ends a unit that a drain caught before it ran; its job
// ends interrupted.
func (s *Service) cancelDrained(u *unit) {
	u.job.mu.Lock()
	u.job.drained = true
	u.job.mu.Unlock()
	s.finish(u, StateCanceled, "server draining", nil)
}

// WriteMetrics renders the service metrics — queue and worker gauges,
// per-tenant counters, every simulation's published metrics, and the
// shared store's counters — in the obs text form.
func (s *Service) WriteMetrics(w io.Writer) error {
	// The store publishes by *adding* its totals, so each scrape
	// merges into a fresh scratch registry rather than double-counting
	// the live one.
	scratch := obs.NewRegistry()
	if err := scratch.ImportSamples(s.reg.Snapshot()); err != nil {
		return err
	}
	if s.store != nil {
		s.store.Publish(scratch)
	}
	return obs.WriteText(w, scratch.Snapshot())
}
