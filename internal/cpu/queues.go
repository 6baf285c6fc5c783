package cpu

import (
	"cmp"
	"fmt"
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
	kind  uint8
}

// eventHeap is a binary min-heap of events keyed by cycle alone, so
// events due in the same cycle leave in whatever order the sift steps
// produce. That order is observable — it orders the tracer stream and
// the RecoveryObserver calls — so push and pop repeat container/heap's
// up and down step for step, without boxing every event in an any.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].cycle >= q[i].cycle {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].cycle < q[j].cycle {
			j = j2
		}
		if q[j].cycle >= q[i].cycle {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// seqHeap is the ready queue: a binary min-heap of distinct seqs, so
// issue always sees the oldest ready entry first.
type seqHeap []int64

func (h *seqHeap) push(seq int64) {
	*h = append(*h, seq)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j] >= q[i] {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *seqHeap) pop() int64 {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2] < q[j] {
			j = j2
		}
		if q[j] >= q[i] {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
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
