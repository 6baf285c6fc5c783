package cpu

// refsim_test.go is a frozen copy of the timing engine as it stood
// before the allocation-free rewrite: boxed container/heap queues, a
// modulo-indexed ROB ring, and load disambiguation that rescans the
// whole LSQ/LVAQ per pending load. It is the independent oracle the
// differential tests compare the production engine against; keep it
// byte-for-byte in behaviour, not in speed. Its only change since is
// the event heap's order, (cycle, seq, kind): the engine's defined
// order for events due in the same cycle.

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Entry states.
const (
	refStWaiting = iota // operands outstanding
	refStReady          // in the ready queue
	refStIssued         // executing / in the memory pipeline
	refStDone           // result available, retirable
)

const (
	refQNone = iota
	refQLSQ
	refQLVAQ
)

// Dependence mask bits: bit 0 is the first source (the address base for
// memory operations), bit 1 the second (the store data).
const (
	refDepA = 1 << 0
	refDepB = 1 << 1
)

type refROBEntry struct {
	ti        int // trace index
	state     uint8
	queue     uint8
	mask      uint8 // outstanding source operands
	addrDone  bool
	earlyAddr bool  // LVAQ fast forwarding: address usable from dispatch
	readyAt   int64 // earliest cycle the cache access may start (recovery)
	consumers []int64
}

// event kinds.
const (
	refEvComplete = iota
	refEvAddrDone
)

type refEvent struct {
	cycle int64
	seq   int64
	kind  uint8
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.kind < b.kind
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refSeqHeap []int64

func (h refSeqHeap) Len() int           { return len(h) }
func (h refSeqHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refSeqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refSeqHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *refSeqHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refSimulator struct {
	cfg Config
	tr  *Trace
	res *Result

	rob      []refROBEntry
	headSeq  int64 // oldest in-flight
	tailSeq  int64 // next to allocate
	nextDisp int   // next trace index to dispatch

	lastWriter [numDepRegs]int64

	ready  refSeqHeap
	events refEventHeap
	now    int64

	// Queue contents in program order (seqs); entries leave at commit.
	lsq  []int64
	lvaq []int64

	// Memory entries past address generation, awaiting disambiguation
	// and a cache port.
	memPending []int64
	pendDirty  bool

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

func (s *refSimulator) emit(seq int64, kind obs.EventKind, arg int64) {
	s.trc.Emit(obs.Event{Cycle: s.now, Seq: seq, Kind: kind, Arg: arg})
}

func (s *refSimulator) slot(seq int64) *refROBEntry { return &s.rob[seq%int64(len(s.rob))] }

func (s *refSimulator) inst(seq int64) *TraceInst { return &s.tr.Insts[s.slot(seq).ti] }

// writerOutstanding reports whether the producer at seq has not yet
// delivered its value.
func (s *refSimulator) writerOutstanding(seq int64) bool {
	if seq < 0 || seq < s.headSeq {
		return false // retired: value architecturally available
	}
	return s.slot(seq).state != refStDone
}

// refRun is the reference counterpart of Sim.run: it simulates tr on
// sm's configuration with sm's context, faulter, recovery observer,
// tracer and occupancy histograms attached.
func refRun(sm *Sim, tr *Trace) (*Result, error) {
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
	s := &refSimulator{
		cfg:      cfg,
		tr:       tr,
		res:      &Result{Config: cfg, Name: tr.Name},
		rob:      make([]refROBEntry, cfg.ROBSize),
		hier:     hier,
		ports:    make([]int, len(parts)),
		plats:    make([]int, len(parts)),
		budget:   make([]int, len(parts)),
		ctx:      sm.ctx,
		faults:   sm.faults,
		recovery: sm.recovery,
		trc:      sm.tracer,
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
			s.occLSQ.Observe(int64(len(s.lsq)))
			if s.occLVAQ != nil {
				s.occLVAQ.Observe(int64(len(s.lvaq)))
			}
		}
		if c == 0 && i == 0 && d == 0 && len(s.events) == 0 {
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
func (s *refSimulator) commit() (int, error) {
	n := 0
	for n < s.cfg.IssueWidth && s.headSeq < s.tailSeq {
		e := s.slot(s.headSeq)
		if e.state != refStDone {
			break
		}
		var err error
		switch e.queue {
		case refQLSQ:
			s.lsq, err = refPopHead(s.lsq, s.headSeq)
		case refQLVAQ:
			s.lvaq, err = refPopHead(s.lvaq, s.headSeq)
		}
		if err != nil {
			return n, err
		}
		if s.trc != nil {
			s.emit(s.headSeq, obs.EvCommit, 0)
		}
		s.headSeq++
		n++
	}
	return n, nil
}

// refPopHead removes seq from the front of a program-ordered queue. A
// mismatched head means the refSimulator's queue bookkeeping is corrupt;
// the wrapped ErrInvariant surfaces through Simulate's error return.
func refPopHead(q []int64, seq int64) ([]int64, error) {
	if len(q) == 0 || q[0] != seq {
		head := int64(-1)
		if len(q) > 0 {
			head = q[0]
		}
		return q, fmt.Errorf("%w: memory queue head %d, expected retiring seq %d",
			ErrInvariant, head, seq)
	}
	copy(q, q[1:])
	return q[:len(q)-1], nil
}

func (s *refSimulator) processEvents() error {
	for len(s.events) > 0 && s.events[0].cycle <= s.now {
		ev := heap.Pop(&s.events).(refEvent)
		e := s.slot(ev.seq)
		switch ev.kind {
		case refEvComplete:
			s.finish(ev.seq)
		case refEvAddrDone:
			e.addrDone = true
			ti := s.inst(ev.seq)
			if s.trc != nil {
				s.emit(ev.seq, obs.EvAddrReady, 0)
			}
			// The extended TLB verifies the steering prediction at
			// address translation; a mismatch starts recovery and the
			// access is re-steered to the correct pipeline.
			if s.cfg.Decoupled() && ti.Mispredicted() {
				if err := s.recoverSteering(ev.seq, e, ti); err != nil {
					return err
				}
			}
			s.memPending = append(s.memPending, ev.seq)
			s.pendDirty = true
		}
	}
	return nil
}

// recoverSteering runs the misprediction-recovery state machine for one
// wrong-queue dispatch: detect the mismatch at address translation,
// cancel the entry from the mispredicted queue, and replay it into the
// correct queue with the configured penalty before it may touch a cache
// port. The destination queue may transiently exceed its size limit —
// hardware reserves a recovery slot; dispatch still observes the limit,
// so occupancy self-corrects.
func (s *refSimulator) recoverSteering(seq int64, e *refROBEntry, ti *TraceInst) error {
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
	toQ := uint8(refQLVAQ)
	if e.queue == refQLVAQ {
		from, to = &s.lvaq, &s.lsq
		toQ = refQLSQ
	}
	var ok bool
	if *from, ok = refRemoveSeq(*from, seq); !ok {
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
	*to = refInsertSeq(*to, seq)
	e.queue = toQ
	e.earlyAddr = !ti.IsLoad() &&
		(ti.Flags&FlagEarlyAddr != 0 || (toQ == refQLVAQ && s.cfg.FastForward))
	e.readyAt = s.now + int64(s.cfg.MispredictPenalty)
	s.res.Recoveries++
	if s.trc != nil {
		s.emit(seq, obs.EvRecoveryReplay, int64(s.cfg.MispredictPenalty))
		queueArg := int64(obs.QueueLVAQ)
		if toQ == refQLSQ {
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

// refRemoveSeq deletes seq from a program-ordered queue, reporting whether
// it was present.
func refRemoveSeq(q []int64, seq int64) ([]int64, bool) {
	for i, v := range q {
		if v == seq {
			copy(q[i:], q[i+1:])
			return q[:len(q)-1], true
		}
		if v > seq {
			break
		}
	}
	return q, false
}

// refInsertSeq adds seq to a program-ordered queue, keeping the order.
func refInsertSeq(q []int64, seq int64) []int64 {
	i := sort.Search(len(q), func(i int) bool { return q[i] >= seq })
	q = append(q, 0)
	copy(q[i+1:], q[i:])
	q[i] = seq
	return q
}

// finish marks an entry done and wakes its consumers.
func (s *refSimulator) finish(seq int64) {
	e := s.slot(seq)
	e.state = refStDone
	if s.trc != nil {
		s.emit(seq, obs.EvComplete, 0)
	}
	for _, c := range e.consumers {
		cseq, bit := c>>1, uint8(refDepA)
		if c&1 != 0 {
			bit = refDepB
		}
		if cseq < s.headSeq {
			continue
		}
		ce := s.slot(cseq)
		ce.mask &^= bit
		s.maybeWake(cseq, ce)
	}
	e.consumers = e.consumers[:0]
}

// maybeWake moves a waiting entry to the ready queue once its issue
// condition holds: all operands for ALU operations, the address base
// for memory operations (a store's data may arrive after its address
// generation, as in the paper's pipeline).
func (s *refSimulator) maybeWake(seq int64, e *refROBEntry) {
	if e.state != refStWaiting {
		return
	}
	ti := s.inst(seq)
	ok := e.mask == 0
	if ti.IsMem() {
		ok = e.mask&refDepA == 0
	}
	if ok {
		e.state = refStReady
		heap.Push(&s.ready, seq)
	}
}

// memScan walks pending memory operations oldest-first, resolving
// store-to-load forwarding and granting cache ports.
func (s *refSimulator) memScan() {
	if len(s.memPending) == 0 {
		return
	}
	if s.pendDirty {
		sort.Slice(s.memPending, func(i, j int) bool { return s.memPending[i] < s.memPending[j] })
		s.pendDirty = false
	}
	copy(s.budget, s.ports)

	keep := s.memPending[:0]
	for _, seq := range s.memPending {
		e := s.slot(seq)
		ti := s.inst(seq)
		if e.readyAt > s.now {
			keep = append(keep, seq)
			continue
		}
		if !ti.IsLoad() && e.mask&refDepB != 0 {
			keep = append(keep, seq) // store data not produced yet
			continue
		}
		pi := s.hier.Steer(ti.AccessInfo())

		if ti.IsLoad() {
			switch s.resolveLoad(seq, e, ti) {
			case refLoadBlocked:
				keep = append(keep, seq)
				continue
			case refLoadForwarded:
				if s.trc != nil {
					s.emit(seq, obs.EvForward, 0)
				}
				s.schedule(refEvComplete, seq, s.now+1)
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
		lat, level := s.accessLatency(ti.Addr, !ti.IsLoad(), pi)
		if s.trc != nil {
			s.emit(seq, obs.EvCacheAccess, obs.CacheArg(pi != 0, !ti.IsLoad(), level))
		}
		if ti.IsLoad() {
			if s.faults != nil {
				lat += s.faults.ExtraLatency(grant)
			}
			s.schedule(refEvComplete, seq, s.now+int64(lat))
		} else {
			// Stores complete into the write buffer once they own a
			// port; the cache content is already updated above.
			s.finish(seq)
		}
	}
	s.memPending = keep
}

const (
	refLoadProceed = iota
	refLoadBlocked
	refLoadForwarded
)

// resolveLoad applies the disambiguation rules of §4.3: a load waits
// until every older store in its queue has a known address, forwards
// from the youngest matching older store whose data is ready, and
// blocks on a matching store whose data is not. With fast forwarding,
// LVAQ store addresses (frame+offset) count as known from dispatch.
func (s *refSimulator) resolveLoad(seq int64, e *refROBEntry, ti *TraceInst) int {
	q := s.lsq
	if e.queue == refQLVAQ {
		q = s.lvaq
	}
	word := ti.Addr >> 2
	var match int64 = -1
	for _, os := range q {
		if os >= seq {
			break
		}
		oe := s.slot(os)
		oi := s.inst(os)
		if oi.IsLoad() {
			continue
		}
		if !oe.addrDone && !oe.earlyAddr {
			return refLoadBlocked
		}
		if oi.Addr>>2 == word {
			match = os
		}
	}
	if match >= 0 {
		me := s.slot(match)
		if me.mask&refDepB != 0 {
			return refLoadBlocked // store data not produced yet
		}
		s.res.Forwards++
		if e.queue == refQLVAQ && s.cfg.FastForward {
			s.res.FastForwards++
		}
		return refLoadForwarded
	}
	return refLoadProceed
}

// accessLatency charges the hierarchy: the steered partition first,
// then the shared L2, then memory. It also reports the level that
// satisfied the access (obs.LevelFirst / LevelL2 / LevelMem).
func (s *refSimulator) accessLatency(addr uint32, write bool, pi int) (lat, level int) {
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
// bounded by the issue width and per-class FU counts. Memory
// instructions spend their issue slot on address generation.
func (s *refSimulator) issue() int {
	budget := s.cfg.IssueWidth
	intALU, fpALU := s.cfg.IntALU, s.cfg.FPALU
	intMD, fpMD := s.cfg.IntMulDiv, s.cfg.FPMulDiv

	var deferred []int64
	issued := 0
	for budget > 0 && len(s.ready) > 0 {
		seq := heap.Pop(&s.ready).(int64)
		if seq < s.headSeq {
			continue
		}
		e := s.slot(seq)
		if e.state != refStReady {
			continue
		}
		ti := s.inst(seq)
		ok := true
		var lat int
		switch ti.Class {
		case isa.ClassIntMul:
			ok, lat = refTake(&intMD), LatIntMul
		case isa.ClassIntDiv:
			ok, lat = refTake(&intMD), LatIntDiv
		case isa.ClassFPALU:
			ok, lat = refTake(&fpALU), LatFPALU
		case isa.ClassFPMul:
			ok, lat = refTake(&fpMD), LatFPMul
		case isa.ClassFPDiv:
			ok, lat = refTake(&fpMD), LatFPDiv
		default:
			// Integer ALU, branches, jumps, syscalls and memory AGU
			// share the integer ALU pool.
			ok, lat = refTake(&intALU), LatIntALU
		}
		if !ok {
			deferred = append(deferred, seq)
			continue
		}
		budget--
		issued++
		e.state = refStIssued
		if s.trc != nil {
			s.emit(seq, obs.EvIssue, 0)
		}
		if ti.IsMem() {
			s.schedule(refEvAddrDone, seq, s.now+1)
			continue
		}
		s.schedule(refEvComplete, seq, s.now+int64(lat))
	}
	for _, seq := range deferred {
		s.slot(seq).state = refStReady
		heap.Push(&s.ready, seq)
	}
	return issued
}

func refTake(n *int) bool {
	if *n > 0 {
		*n--
		return true
	}
	return false
}

func (s *refSimulator) schedule(kind uint8, seq, cycle int64) {
	heap.Push(&s.events, refEvent{cycle: cycle, seq: seq, kind: kind})
}

// dispatch brings new trace instructions into the ROB (and LSQ/LVAQ),
// in order, bounded by the decode width and structural space.
func (s *refSimulator) dispatch() int {
	n := 0
	for n < s.cfg.IssueWidth && s.nextDisp < len(s.tr.Insts) {
		if s.tailSeq-s.headSeq >= int64(s.cfg.ROBSize) {
			s.res.StallROB++
			break
		}
		ti := &s.tr.Insts[s.nextDisp]
		queue := uint8(refQNone)
		if ti.IsMem() {
			queue = refQLSQ
			if s.cfg.Decoupled() && ti.PredStack() {
				queue = refQLVAQ
			}
			if queue == refQLSQ && len(s.lsq) >= s.cfg.LSQSize {
				s.res.StallQueue++
				break
			}
			if queue == refQLVAQ && len(s.lvaq) >= s.cfg.LVAQSize {
				s.res.StallQueue++
				break
			}
		}

		seq := s.tailSeq
		s.tailSeq++
		e := s.slot(seq)
		*e = refROBEntry{ti: s.nextDisp, queue: queue, consumers: e.consumers[:0]}
		s.nextDisp++
		n++
		if s.trc != nil {
			s.emit(seq, obs.EvDispatch, obs.DispatchArg(ti.IsMem(), ti.IsLoad()))
			switch queue {
			case refQLSQ:
				s.emit(seq, obs.EvQueueEnter, obs.QueueLSQ)
			case refQLVAQ:
				s.emit(seq, obs.EvQueueEnter, obs.QueueLVAQ)
			}
		}

		for bit, src := range []int8{ti.Src1, ti.Src2} {
			if src == noReg {
				continue
			}
			w := s.lastWriter[src]
			if w >= 0 && s.writerOutstanding(w) {
				e.mask |= refDepA << bit
				we := s.slot(w)
				we.consumers = append(we.consumers, seq<<1|int64(bit))
			}
		}
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
		switch queue {
		case refQLSQ:
			s.lsq = append(s.lsq, seq)
		case refQLVAQ:
			s.lvaq = append(s.lvaq, seq)
			if s.cfg.FastForward && !ti.IsLoad() {
				e.earlyAddr = true
			}
		}
		if queue != refQNone && !ti.IsLoad() && ti.Flags&FlagEarlyAddr != 0 {
			e.earlyAddr = true
		}
		s.maybeWake(seq, e)
	}
	return n
}
