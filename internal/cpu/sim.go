package cpu

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/obs"
)

// ErrInvariant marks a violated internal pipeline invariant: the
// simulation's bookkeeping contradicted itself (e.g. a memory queue
// head out of program order). It is returned, wrapped, by Simulate —
// never panicked — so an embedding process survives a corrupted run.
var ErrInvariant = errors.New("cpu: pipeline invariant violated")

// MemFaulter perturbs the timing model's memory pipeline. It is the
// simulation-level fault-injection hook: implementations must be
// deterministic functions of their arguments and internal seeded
// state, never of wall-clock or map order. Faults injected here may
// change cycle counts only; the committed instruction stream is fixed
// by the trace, which the differential harness verifies.
type MemFaulter interface {
	// PortDenied reports whether the n-th cache-port grant of the run
	// should be denied; a denied access retries on a later cycle.
	// lvc distinguishes the LVC port pool from the L1 pool.
	PortDenied(n uint64, lvc bool) bool
	// ExtraLatency reports extra cycles to add to the n-th granted
	// load access (0 for none; a negative count is taken as 0).
	ExtraLatency(n uint64) int
}

// RecoveryObserver witnesses the ARPT misprediction-recovery state
// machine as the simulator drives it: every detected wrong-queue
// dispatch must be cancelled from the mispredicted queue and replayed
// into the correct one at the configured penalty. A non-nil error
// from any method aborts the simulation — observers validate protocol
// order (see decouple.Recovery) and turn sequencing bugs into hard
// failures instead of silent mis-modelling.
type RecoveryObserver interface {
	Detect(seq int64) error
	Cancel(seq int64) error
	Replay(seq int64, penalty int) error
}

// Result is the outcome of one timing simulation.
type Result struct {
	Config Config
	Name   string // trace name

	Cycles uint64
	Insts  uint64

	// PartStats holds per-partition first-level statistics in partition
	// order. L1Stats and LVCStats mirror partitions 0 and 1 for the
	// paper's two-partition reports (LVCStats stays zero with a single
	// partition).
	PartStats []cache.Stats
	L1Stats   cache.Stats
	LVCStats  cache.Stats
	L2Stats   cache.Stats

	ARPTMispredicts uint64
	Recoveries      uint64 // completed detect→cancel→replay sequences
	Forwards        uint64 // store-to-load forwards (both queues)
	FastForwards    uint64 // LVAQ offset-based forwards
	VPUsed          uint64 // results supplied by the value predictor
	StallROB        uint64 // dispatch cycles lost to a full ROB
	StallQueue      uint64 // dispatch cycles lost to a full LSQ/LVAQ
}

// IPC reports committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Speedup reports this result's performance relative to a baseline.
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Entry states.
const (
	stWaiting = iota // operands outstanding
	stReady          // in the ready queue
	stIssued         // executing / in the memory pipeline
	stDone           // result available, retirable
)

const (
	qNone = iota
	qLSQ
	qLVAQ
)

// Dependence mask bits: bit 0 is the first source (the address base for
// memory operations), bit 1 the second (the store data).
const (
	depA = 1 << 0
	depB = 1 << 1
)

// robEntry is one ROB slot. It caches the trace fields the pipeline
// reads every cycle, so only dispatch and address generation touch the
// trace itself.
type robEntry struct {
	readyAt int64 // earliest cycle the cache access may start (recovery)
	// fwd memoizes a load's youngest older matching store (-1: none)
	// while fwdEpoch equals its queue's epoch.
	fwd      int64
	fwdEpoch uint64
	addr     uint32 // effective address (memory instructions)
	ti       int32  // trace index
	part     int32  // steered first-level partition, set at address generation
	cons     int32  // head of this producer's consumer list in simulator.links, -1 if empty
	class    isa.Class
	flags    uint8 // TraceInst flags
	state    uint8
	queue    uint8
	mask     uint8 // outstanding source operands
	event    uint8 // kind of the pending event, if any
}

// link is one node of a producer's consumer list. Node 2*slot+bit
// belongs to the entry in ROB slot slot, reading the producer as operand
// bit; an entry cannot retire before its producers complete, so a node
// is never reused while it is still linked.
type link struct {
	seq  int64 // consumer seq<<1 | operand bit
	next int32
}

type simulator struct {
	cfg Config
	tr  *Trace
	res *Result

	// rob is a ring of a power-of-two size >= ROBSize, indexed by
	// seq&mask; dispatch still holds the window to ROBSize.
	rob      []robEntry
	mask     int64
	links    []link
	headSeq  int64 // oldest in-flight
	tailSeq  int64 // next to allocate
	nextDisp int   // next trace index to dispatch

	lastWriter [numDepRegs]int64

	ready  readySet
	events eventWheel
	now    int64

	// The steering queues; entries leave at commit.
	lsq  memQueue
	lvaq memQueue

	// Memory entries past address generation, awaiting disambiguation
	// and a cache port, in program order.
	memPending []int64

	// First-level partitions plus shared L2, with the per-partition
	// timing parameters the hierarchy leaves to the pipeline model.
	hier   *cache.Hierarchy
	ports  []int // static per-partition port counts
	plats  []int // per-partition hit latencies
	budget []int // ports left this cycle, refilled by memScan

	ctx      context.Context
	faults   MemFaulter
	recovery RecoveryObserver
	nGrant   uint64 // cache-port grant ordinal (MemFaulter hook index)

	// trc is nil for uninstrumented runs: every emission site is behind
	// a nil check, so the no-op path does no interface calls.
	trc obs.Tracer

	// Per-cycle occupancy histograms, nil without WithMetrics.
	occLSQ  *obs.Hist
	occLVAQ *obs.Hist
}

func (s *simulator) emit(seq int64, kind obs.EventKind, arg int64) {
	s.trc.Emit(obs.Event{Cycle: s.now, Seq: seq, Kind: kind, Arg: arg})
}

func (s *simulator) slot(seq int64) *robEntry { return &s.rob[seq&s.mask] }

func (s *simulator) queue(q uint8) *memQueue {
	if q == qLVAQ {
		return &s.lvaq
	}
	return &s.lsq
}

// Simulate runs trace tr on configuration cfg with no instrumentation
// attached. All mutable machine state (ROB, queues, caches, statistics)
// lives in the per-call simulator; tr is never written, so concurrent
// Simulate calls may share one trace.
func Simulate(tr *Trace, cfg Config) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.run(tr)
}

// run is the simulation engine behind Sim.Run (which adds metrics
// publication on top).
func (sm *Sim) run(tr *Trace) (*Result, error) {
	cfg := sm.cfg
	if len(tr.Insts) == 0 {
		return nil, fmt.Errorf("cpu: empty trace %q", tr.Name)
	}
	parts, policy, err := cfg.ResolvePartitions()
	if err != nil {
		return nil, fmt.Errorf("cpu config %q: %w", cfg.Name, err)
	}
	steer, err := cache.NewSteer(policy, len(parts))
	if err != nil {
		return nil, fmt.Errorf("cpu config %q: %w", cfg.Name, err)
	}
	hier, err := cache.NewHierarchy(cache.HierarchyConfig{Partitions: parts, Steer: steer})
	if err != nil {
		return nil, fmt.Errorf("cpu config %q: %w", cfg.Name, err)
	}
	// Every in-flight entry sits in the ROB window, so the ring bounds
	// the event wheel, the queues and the pending list: sized here, none
	// grows during the run. 64 slots or more keep the ready set whole words.
	ring := 64
	for ring < cfg.ROBSize {
		ring <<= 1
	}
	s := &simulator{
		cfg:        cfg,
		tr:         tr,
		res:        &Result{Config: cfg, Name: tr.Name},
		rob:        make([]robEntry, ring),
		mask:       int64(ring - 1),
		links:      make([]link, 2*ring),
		ready:      make(readySet, ring/64),
		events:     newEventWheel(ring),
		lsq:        newMemQueue(2 * ring),
		lvaq:       newMemQueue(2 * ring),
		memPending: make([]int64, 0, ring),
		hier:       hier,
		ports:      make([]int, len(parts)),
		plats:      make([]int, len(parts)),
		budget:     make([]int, len(parts)),
		ctx:        sm.ctx,
		faults:     sm.faults,
		recovery:   sm.recovery,
		trc:        sm.tracer,
	}
	for i, p := range parts {
		s.ports[i] = p.Ports
		s.plats[i] = p.HitLatency
	}
	if sm.reg != nil {
		l := sm.labels.With(obs.Labels{"workload": tr.Name, "config": cfg.Name})
		s.occLSQ = sm.reg.Hist("sim_lsq_occupancy", "LSQ entries per cycle", l)
		if cfg.Decoupled() {
			s.occLVAQ = sm.reg.Hist("sim_lvaq_occupancy", "LVAQ entries per cycle", l)
		}
	}
	for i := range s.lastWriter {
		s.lastWriter[i] = -1
	}

	total := int64(len(tr.Insts))
	idle := 0
	for s.headSeq < total {
		s.now++
		if s.ctx != nil && s.now&0x3FFF == 0 {
			if err := s.ctx.Err(); err != nil {
				return nil, fmt.Errorf("cpu: simulate %s: %w", tr.Name, err)
			}
		}
		c, err := s.commit()
		if err != nil {
			return nil, err
		}
		if err := s.processEvents(); err != nil {
			return nil, err
		}
		s.memScan()
		i := s.issue()
		d := s.dispatch()
		if s.occLSQ != nil {
			s.occLSQ.Observe(int64(s.lsq.len()))
			if s.occLVAQ != nil {
				s.occLVAQ.Observe(int64(s.lvaq.len()))
			}
		}
		if c == 0 && i == 0 && d == 0 && s.events.n == 0 {
			idle++
			if idle > 10_000 {
				return nil, fmt.Errorf("cpu: simulation wedged at cycle %d (retired %d/%d, pending %d)",
					s.now, s.headSeq, total, len(s.memPending))
			}
		} else {
			idle = 0
		}
	}
	s.res.Cycles = uint64(s.now)
	s.res.Insts = uint64(total)
	s.res.PartStats = make([]cache.Stats, s.hier.NumPartitions())
	for i := range s.res.PartStats {
		s.res.PartStats[i] = s.hier.Partition(i).Stats()
	}
	s.res.L1Stats = s.res.PartStats[0]
	if len(s.res.PartStats) > 1 {
		s.res.LVCStats = s.res.PartStats[1]
	}
	s.res.L2Stats = s.hier.L2().Stats()
	return s.res, nil
}

// commit retires up to the commit width of completed entries from the
// ROB head.
func (s *simulator) commit() (int, error) {
	n := 0
	for n < s.cfg.IssueWidth && s.headSeq < s.tailSeq {
		e := s.slot(s.headSeq)
		if e.state != stDone {
			break
		}
		if e.queue != qNone {
			if err := s.queue(e.queue).popHead(s.headSeq, e.flags&FlagLoad == 0); err != nil {
				return n, err
			}
		}
		if s.trc != nil {
			s.emit(s.headSeq, obs.EvCommit, 0)
		}
		s.headSeq++
		n++
	}
	return n, nil
}

func (s *simulator) processEvents() error {
	for seq, ok := s.events.pop(s.now); ok; seq, ok = s.events.pop(s.now) {
		switch s.slot(seq).event {
		case evComplete:
			s.finish(seq)
		case evAddrDone:
			if err := s.addrReady(seq); err != nil {
				return err
			}
		}
	}
	return nil
}

// addrReady handles a memory entry's address generation: the address
// becomes known to disambiguation, the entry is steered to its cache
// partition (a pure function of the access, so computed once here), and
// it joins the pending list.
func (s *simulator) addrReady(seq int64) error {
	e := s.slot(seq)
	ti := &s.tr.Insts[e.ti]
	if s.trc != nil {
		s.emit(seq, obs.EvAddrReady, 0)
	}
	// The extended TLB verifies the steering prediction at address
	// translation; a mismatch starts recovery and the access is
	// re-steered to the correct pipeline.
	if s.cfg.Decoupled() && ti.Mispredicted() {
		if err := s.recoverSteering(seq, e); err != nil {
			return err
		}
	} else if !ti.IsLoad() {
		s.queue(e.queue).addrKnown(seq)
	}
	e.part = int32(s.hier.Steer(ti.AccessInfo()))
	s.memPending = insertSeq(s.memPending, seq)
	return nil
}

// recoverSteering runs the misprediction-recovery state machine for one
// wrong-queue dispatch: detect the mismatch at address translation,
// cancel the entry from the mispredicted queue, and replay it into the
// correct queue with the configured penalty before it may touch a cache
// port. The destination queue may transiently exceed its size limit —
// hardware reserves a recovery slot; dispatch still observes the limit,
// so occupancy self-corrects.
func (s *simulator) recoverSteering(seq int64, e *robEntry) error {
	s.res.ARPTMispredicts++
	rec := s.recovery
	if s.trc != nil {
		s.emit(seq, obs.EvRecoveryDetect, 0)
	}
	if rec != nil {
		if err := rec.Detect(seq); err != nil {
			return err
		}
	}
	from, to := &s.lsq, &s.lvaq
	toQ := uint8(qLVAQ)
	if e.queue == qLVAQ {
		from, to = &s.lvaq, &s.lsq
		toQ = qLSQ
	}
	store := e.flags&FlagLoad == 0
	if !from.remove(seq, store) {
		return fmt.Errorf("%w: seq %d absent from its steering queue during recovery",
			ErrInvariant, seq)
	}
	if s.trc != nil {
		s.emit(seq, obs.EvRecoveryCancel, 0)
	}
	if rec != nil {
		if err := rec.Cancel(seq); err != nil {
			return err
		}
	}
	to.insert(seq, e.addr>>2, store)
	e.queue = toQ
	e.readyAt = s.now + int64(s.cfg.MispredictPenalty)
	s.res.Recoveries++
	if s.trc != nil {
		s.emit(seq, obs.EvRecoveryReplay, int64(s.cfg.MispredictPenalty))
		queueArg := int64(obs.QueueLVAQ)
		if toQ == qLSQ {
			queueArg = obs.QueueLSQ
		}
		s.emit(seq, obs.EvQueueEnter, queueArg)
	}
	if rec != nil {
		if err := rec.Replay(seq, s.cfg.MispredictPenalty); err != nil {
			return err
		}
	}
	return nil
}

// finish marks an entry done and wakes its consumers.
func (s *simulator) finish(seq int64) {
	e := s.slot(seq)
	e.state = stDone
	if s.trc != nil {
		s.emit(seq, obs.EvComplete, 0)
	}
	for l := e.cons; l >= 0; l = s.links[l].next {
		c := s.links[l].seq
		cseq, bit := c>>1, uint8(depA)
		if c&1 != 0 {
			bit = depB
		}
		if cseq < s.headSeq {
			continue
		}
		ce := s.slot(cseq)
		ce.mask &^= bit
		s.maybeWake(cseq, ce)
	}
	e.cons = -1
}

// maybeWake moves a waiting entry to the ready queue once its issue
// condition holds: all operands for ALU operations, the address base
// for memory operations (a store's data may arrive after its address
// generation, as in the paper's pipeline).
func (s *simulator) maybeWake(seq int64, e *robEntry) {
	if e.state != stWaiting {
		return
	}
	ok := e.mask == 0
	if e.flags&FlagMem != 0 {
		ok = e.mask&depA == 0
	}
	if ok {
		e.state = stReady
		s.ready.add(seq)
	}
}

// memScan walks pending memory operations oldest-first, resolving
// store-to-load forwarding and granting cache ports.
func (s *simulator) memScan() {
	if len(s.memPending) == 0 {
		return
	}
	copy(s.budget, s.ports)

	keep := s.memPending[:0]
	for _, seq := range s.memPending {
		e := s.slot(seq)
		if e.readyAt > s.now {
			keep = append(keep, seq)
			continue
		}
		load := e.flags&FlagLoad != 0
		if !load && e.mask&depB != 0 {
			keep = append(keep, seq) // store data not produced yet
			continue
		}
		pi := int(e.part)

		if load {
			switch s.resolveLoad(seq, e) {
			case loadBlocked:
				keep = append(keep, seq)
				continue
			case loadForwarded:
				if s.trc != nil {
					s.emit(seq, obs.EvForward, 0)
				}
				s.schedule(evComplete, seq, s.now+1)
				continue
			}
		}
		pool := int64(obs.PoolL1)
		if pi != 0 {
			pool = obs.PoolLVC
		}
		if s.budget[pi] == 0 {
			if s.trc != nil {
				s.emit(seq, obs.EvPortStall, pool)
			}
			keep = append(keep, seq)
			continue
		}
		grant := s.nGrant
		s.nGrant++
		if s.faults != nil && s.faults.PortDenied(grant, pi != 0) {
			// Injected port fault: the grant is withdrawn this cycle and
			// the access retries later under a fresh grant ordinal.
			if s.trc != nil {
				s.emit(seq, obs.EvPortStall, pool)
			}
			keep = append(keep, seq)
			continue
		}
		s.budget[pi]--
		lat, level := s.accessLatency(e.addr, !load, pi)
		if s.trc != nil {
			s.emit(seq, obs.EvCacheAccess, obs.CacheArg(pi != 0, !load, level))
		}
		if load {
			if s.faults != nil {
				lat += max(0, s.faults.ExtraLatency(grant))
			}
			s.schedule(evComplete, seq, s.now+int64(lat))
		} else {
			// Stores complete into the write buffer once they own a
			// port; the cache content is already updated above.
			s.finish(seq)
		}
	}
	s.memPending = keep
}

const (
	loadProceed = iota
	loadBlocked
	loadForwarded
)

// resolveLoad applies the disambiguation rules of §4.3: a load waits
// until every older store in its queue has a known address, forwards
// from the youngest matching older store whose data is ready, and
// blocks on a matching store whose data is not. With fast forwarding,
// LVAQ store addresses (frame+offset) count as known from dispatch.
//
// The queue's store index answers without visiting loads: it tracks the
// oldest store with an unknown address, and the matching store is found
// by comparing older stores only. A load waiting for a port asks again
// every cycle, so the match is memoized: the stores older than a load
// change only by retirement from the head — a retired match leaves no
// older match behind it — or by recovery, which moves the queue's epoch.
func (s *simulator) resolveLoad(seq int64, e *robEntry) int {
	q := s.queue(e.queue)
	if q.unknownBefore(seq) {
		return loadBlocked
	}
	if e.fwdEpoch != q.epoch {
		e.fwd, e.fwdEpoch = q.youngestMatch(seq, e.addr>>2), q.epoch
	}
	if e.fwd < s.headSeq {
		return loadProceed // no match, or it retired
	}
	if s.slot(e.fwd).mask&depB != 0 {
		return loadBlocked // store data not produced yet
	}
	s.res.Forwards++
	if e.queue == qLVAQ && s.cfg.FastForward {
		s.res.FastForwards++
	}
	return loadForwarded
}

// accessLatency charges the hierarchy: the steered partition first,
// then the shared L2, then memory. It also reports the level that
// satisfied the access (obs.LevelFirst / LevelL2 / LevelMem).
func (s *simulator) accessLatency(addr uint32, write bool, pi int) (lat, level int) {
	lat = s.plats[pi]
	switch s.hier.Access(pi, addr, write) {
	case cache.LevelFirst:
		return lat, obs.LevelFirst
	case cache.LevelL2:
		return lat + LatL2, obs.LevelL2
	}
	return lat + LatL2 + LatMem, obs.LevelMem
}

// issue moves ready entries to the function units, oldest first,
// bounded by the issue width and per-class FU counts. A ready entry
// that finds no free unit stays ready for the next cycle. Memory
// instructions spend their issue slot on address generation.
func (s *simulator) issue() int {
	intALU, fpALU := s.cfg.IntALU, s.cfg.FPALU
	intMD, fpMD := s.cfg.IntMulDiv, s.cfg.FPMulDiv

	issued, width, end := 0, s.cfg.IssueWidth, s.tailSeq
	for seq := s.ready.next(s.headSeq, end); seq < end && issued < width; seq = s.ready.next(seq+1, end) {
		e := s.slot(seq)
		var unit *int // the function-unit pool the class draws from
		var lat int
		switch e.class {
		case isa.ClassIntMul:
			unit, lat = &intMD, LatIntMul
		case isa.ClassIntDiv:
			unit, lat = &intMD, LatIntDiv
		case isa.ClassFPALU:
			unit, lat = &fpALU, LatFPALU
		case isa.ClassFPMul:
			unit, lat = &fpMD, LatFPMul
		case isa.ClassFPDiv:
			unit, lat = &fpMD, LatFPDiv
		default:
			// Integer ALU, branches, jumps, syscalls and memory AGU
			// share the integer ALU pool.
			unit, lat = &intALU, LatIntALU
		}
		if *unit == 0 {
			continue
		}
		*unit--
		issued++
		e.state = stIssued
		s.ready.remove(seq)
		if s.trc != nil {
			s.emit(seq, obs.EvIssue, 0)
		}
		if e.flags&FlagMem != 0 {
			s.schedule(evAddrDone, seq, s.now+1)
			continue
		}
		s.schedule(evComplete, seq, s.now+int64(lat))
	}
	return issued
}

func (s *simulator) schedule(kind uint8, seq, cycle int64) {
	s.slot(seq).event = kind
	s.events.push(s.now, event{cycle: cycle, seq: seq})
}

// dispatch brings new trace instructions into the ROB (and LSQ/LVAQ),
// in order, bounded by the decode width and structural space.
func (s *simulator) dispatch() int {
	n := 0
	for n < s.cfg.IssueWidth && s.nextDisp < len(s.tr.Insts) {
		if s.tailSeq-s.headSeq >= int64(s.cfg.ROBSize) {
			s.res.StallROB++
			break
		}
		ti := &s.tr.Insts[s.nextDisp]
		queue := uint8(qNone)
		if ti.IsMem() {
			queue = qLSQ
			if s.cfg.Decoupled() && ti.PredStack() {
				queue = qLVAQ
			}
			if queue == qLSQ && s.lsq.len() >= s.cfg.LSQSize {
				s.res.StallQueue++
				break
			}
			if queue == qLVAQ && s.lvaq.len() >= s.cfg.LVAQSize {
				s.res.StallQueue++
				break
			}
		}

		seq := s.tailSeq
		s.tailSeq++
		e := s.slot(seq)
		*e = robEntry{addr: ti.Addr, ti: int32(s.nextDisp), cons: -1,
			class: ti.Class, flags: ti.Flags, queue: queue}
		s.nextDisp++
		n++
		if s.trc != nil {
			s.emit(seq, obs.EvDispatch, obs.DispatchArg(ti.IsMem(), ti.IsLoad()))
			switch queue {
			case qLSQ:
				s.emit(seq, obs.EvQueueEnter, obs.QueueLSQ)
			case qLVAQ:
				s.emit(seq, obs.EvQueueEnter, obs.QueueLVAQ)
			}
		}

		s.depend(seq, e, ti.Src1, 0)
		s.depend(seq, e, ti.Src2, 1)
		if ti.Dest != noReg {
			if ti.Flags&FlagVPHit != 0 {
				// The stride value predictor supplies the result at
				// dispatch; consumers need not wait. The producer still
				// executes to verify.
				s.lastWriter[ti.Dest] = -1
				s.res.VPUsed++
			} else {
				s.lastWriter[ti.Dest] = seq
			}
		}
		if queue != qNone {
			// A store's address counts as known from dispatch when it is
			// manifest in the addressing mode, or (fast forwarding) when
			// it is an LVAQ frame offset.
			store := !ti.IsLoad()
			known := store && (ti.Flags&FlagEarlyAddr != 0 || (queue == qLVAQ && s.cfg.FastForward))
			s.queue(queue).push(seq, ti.Addr>>2, store, known)
		}
		s.maybeWake(seq, e)
	}
	return n
}

// depend makes operand bit (0 or 1) of the entry seq wait on register
// src while the register's last writer has not delivered its value. A
// retired writer (or none, -1) has.
func (s *simulator) depend(seq int64, e *robEntry, src int8, bit int) {
	if src == noReg {
		return
	}
	w := s.lastWriter[src]
	if w < s.headSeq || s.slot(w).state == stDone {
		return
	}
	e.mask |= depA << bit
	we := s.slot(w)
	l := int32(seq&s.mask)<<1 | int32(bit)
	s.links[l] = link{seq: seq<<1 | int64(bit), next: we.cons}
	we.cons = l
}
