package cpu

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// The timing engine's data structures. Sim.run sizes every one of them
// for the worst case the ROB ring allows, so none grows after set-up
// and a simulation allocates per run, never per instruction.

// event kinds.
const (
	evComplete = iota
	evAddrDone
)

type event struct {
	cycle int64
	seq   int64
}

// wheelSize is the event wheel's horizon in cycles. It covers the
// modelled machines' latencies (a memory access takes its hit latency
// plus at most LatL2+LatMem), so in practice only injected delays
// overflow.
const wheelSize = 128

// eventWheel is the event queue: a timing wheel whose bucket
// cycle&(wheelSize-1) holds the events due that cycle in seq order,
// which gives the engine's (cycle, seq, kind) order. An entry has at
// most one pending event (address-done, then complete; its kind is in
// the ROB slot), so a bucket is a list linked through the ROB slots.
// Events due wheelSize or more cycles out wait in far until the turn
// of the wheel that holds them.
type eventWheel struct {
	bucket [wheelSize]struct{ head, tail int64 } // head -1: empty
	next   []int64                               // per ROB slot: the next seq in its bucket
	mask   int64                                 // ROB ring mask
	far    []event
	n      int // pending events, far ones included
}

func newEventWheel(ring int) eventWheel {
	w := eventWheel{next: make([]int64, ring), mask: int64(ring - 1), far: make([]event, 0, ring)}
	for i := range w.bucket {
		w.bucket[i].head = -1
	}
	return w
}

// push schedules ev, due after the current cycle now.
func (w *eventWheel) push(now int64, ev event) {
	w.n++
	if ev.cycle-now >= wheelSize {
		w.far = append(w.far, ev)
		return
	}
	w.insert(ev)
}

// insert links ev into its bucket at its seq position. Most events
// join the tail: the engine schedules oldest first within a cycle.
func (w *eventWheel) insert(ev event) {
	b := &w.bucket[ev.cycle&(wheelSize-1)]
	if b.head < 0 || b.tail < ev.seq {
		if b.head < 0 {
			b.head = ev.seq
		} else {
			w.next[b.tail&w.mask] = ev.seq
		}
		b.tail, w.next[ev.seq&w.mask] = ev.seq, -1
		return
	}
	p := &b.head
	for *p < ev.seq {
		p = &w.next[*p&w.mask]
	}
	w.next[ev.seq&w.mask], *p = *p, ev.seq
}

// pop removes and returns the seq of the next event due at now; ok is
// false when none is left. At the start of each turn it first moves the
// far events due within the turn into their buckets: each joined far at
// least a whole turn before its cycle, so no turn passes one by.
func (w *eventWheel) pop(now int64) (seq int64, ok bool) {
	if len(w.far) > 0 && now&(wheelSize-1) == 0 {
		keep := w.far[:0]
		for _, ev := range w.far {
			if ev.cycle-now < wheelSize {
				w.insert(ev)
			} else {
				keep = append(keep, ev)
			}
		}
		w.far = keep
	}
	b := &w.bucket[now&(wheelSize-1)]
	if seq = b.head; seq < 0 {
		return 0, false
	}
	b.head = w.next[seq&w.mask]
	w.n--
	return seq, true
}

// readySet is the ready queue: one bit per ROB slot, set while the
// entry is ready to issue. The ring has at least 64 slots, so the set
// is whole words.
type readySet []uint64

func (r readySet) word(seq int64) *uint64 { return &r[(seq>>6)&int64(len(r)-1)] }

func (r readySet) add(seq int64)    { *r.word(seq) |= 1 << (seq & 63) }
func (r readySet) remove(seq int64) { *r.word(seq) &^= 1 << (seq & 63) }

// next returns the oldest ready seq in [from, end), or end when there
// is none. end-from must not exceed the ring.
func (r readySet) next(from, end int64) int64 {
	base, w := from&^63, *r.word(from)&(^uint64(0)<<(from&63))
	for w == 0 {
		if base += 64; base >= end {
			return end
		}
		w = *r.word(base)
	}
	return min(base+int64(bits.TrailingZeros64(w)), end)
}

// fifo is a program-ordered queue over a fixed backing array: popping
// the head advances an index, and a push that finds the array full
// slides the live items down rather than growing it.
type fifo[T any] struct {
	buf  []T
	head int
}

func newFifo[T any](capacity int) fifo[T] { return fifo[T]{buf: make([]T, 0, capacity)} }

// items returns the live items, oldest first.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() { f.head++ }

// insert places v at index i of items().
func (f *fifo[T]) insert(i int, v T) {
	var zero T
	f.push(zero)
	it := f.items()
	copy(it[i+1:], it[i:])
	it[i] = v
}

// remove deletes index i of items().
func (f *fifo[T]) remove(i int) {
	it := f.items()
	copy(it[i:], it[i+1:])
	f.buf = f.buf[:len(f.buf)-1]
}

// storeRef is one entry of a queue's store index: a store's seq with
// its word address and address-known state cached beside it, so
// disambiguation reads neither the ROB nor the trace.
type storeRef struct {
	seq   int64
	word  uint32
	known bool // address generated, or manifest from dispatch
}

// memQueue is one steering queue, the LSQ or the LVAQ: every entry in
// program order plus the store index that load disambiguation scans.
type memQueue struct {
	seqs   fifo[int64]
	stores fifo[storeRef]
	// unk bounds the oldest store whose address is unknown: every
	// stores.items()[i] with i < unk has a known address.
	unk int
	// epoch counts recovery insertions and removals: the only events
	// that can change which stores are older than a pending load other
	// than retirement from the head.
	epoch uint64
}

func newMemQueue(capacity int) memQueue {
	return memQueue{seqs: newFifo[int64](capacity), stores: newFifo[storeRef](capacity), epoch: 1}
}

func (q *memQueue) len() int { return len(q.seqs.items()) }

// push appends a newly dispatched entry.
func (q *memQueue) push(seq int64, word uint32, store, known bool) {
	q.seqs.push(seq)
	if store {
		q.stores.push(storeRef{seq: seq, word: word, known: known})
	}
}

// popHead removes the retiring seq from the head. A mismatched head
// means the queue bookkeeping is corrupt; the wrapped ErrInvariant
// surfaces through Simulate's error return.
func (q *memQueue) popHead(seq int64, store bool) error {
	seqs := q.seqs.items()
	if len(seqs) == 0 || seqs[0] != seq {
		head := int64(-1)
		if len(seqs) > 0 {
			head = seqs[0]
		}
		return fmt.Errorf("%w: memory queue head %d, expected retiring seq %d",
			ErrInvariant, head, seq)
	}
	q.seqs.pop()
	if !store {
		return nil
	}
	if st := q.stores.items(); len(st) == 0 || st[0].seq != seq {
		return fmt.Errorf("%w: store index out of step with its queue at retiring seq %d",
			ErrInvariant, seq)
	}
	q.stores.pop()
	if q.unk > 0 {
		q.unk--
	}
	return nil
}

// olderStores counts the stores older than seq: the index in
// stores.items() where seq's own store would sit.
func (q *memQueue) olderStores(seq int64) int {
	i, _ := slices.BinarySearchFunc(q.stores.items(), seq,
		func(r storeRef, seq int64) int { return cmp.Compare(r.seq, seq) })
	return i
}

// unknownBefore reports whether a store older than seq has an unknown
// address. The bound on the oldest unknown store only moves forward
// between stores, so the check is amortized O(1).
func (q *memQueue) unknownBefore(seq int64) bool {
	st := q.stores.items()
	for q.unk < len(st) && st[q.unk].known {
		q.unk++
	}
	return q.unk < len(st) && st[q.unk].seq < seq
}

// youngestMatch returns the youngest store older than seq whose word
// address is word, or -1 when there is none.
func (q *memQueue) youngestMatch(seq int64, word uint32) int64 {
	st := q.stores.items()
	for i := q.olderStores(seq) - 1; i >= 0; i-- {
		if st[i].word == word {
			return st[i].seq
		}
	}
	return -1
}

// addrKnown records that the store seq has generated its address.
func (q *memQueue) addrKnown(seq int64) {
	st := q.stores.items()
	if i := q.olderStores(seq); i < len(st) && st[i].seq == seq {
		st[i].known = true
	}
}

// remove deletes seq, reporting whether it (and, for a store, its
// store-index entry) was present.
func (q *memQueue) remove(seq int64, store bool) bool {
	i, ok := slices.BinarySearch(q.seqs.items(), seq)
	if !ok {
		return false
	}
	q.seqs.remove(i)
	q.epoch++
	if !store {
		return true
	}
	j := q.olderStores(seq)
	if st := q.stores.items(); j == len(st) || st[j].seq != seq {
		return false
	}
	q.stores.remove(j)
	if j < q.unk {
		q.unk--
	}
	return true
}

// insert adds a replayed entry at its program-order position. Replay
// follows address generation, so a replayed store's address is known.
func (q *memQueue) insert(seq int64, word uint32, store bool) {
	i, _ := slices.BinarySearch(q.seqs.items(), seq)
	q.seqs.insert(i, seq)
	q.epoch++
	if !store {
		return
	}
	j := q.olderStores(seq)
	q.stores.insert(j, storeRef{seq: seq, word: word, known: true})
	if j < q.unk {
		q.unk++
	}
}

// insertSeq adds seq to an ascending slice, keeping the order. Callers
// insert mostly near the tail, so the search runs from there.
func insertSeq(q []int64, seq int64) []int64 {
	i := len(q)
	for i > 0 && q[i-1] > seq {
		i--
	}
	q = append(q, 0)
	copy(q[i+1:], q[i:])
	q[i] = seq
	return q
}
