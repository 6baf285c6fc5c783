package seeded

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Fault is one planned injection addressed by (kind, operation
// ordinal): the Op-th operation (0-based) of the kind's operation
// class fails with the fault's kind. K is the caller's kind table.
type Fault[K ~uint8] struct {
	Kind K
	Op   uint64
}

func (f Fault[K]) String() string { return fmt.Sprintf("%v@op%d", f.Kind, f.Op) }

// Plan is a seeded set of faults.
type Plan[K ~uint8] struct {
	Seed   uint64
	Faults []Fault[K]
}

// NewPlan expands seed into n faults, each addressing an operation
// ordinal in [0, window) of a kind drawn uniformly from [0, numKinds).
// The expansion is a pure function of its arguments, so a chaos run is
// reproducible from (seed, n, window) alone. A zero window is treated
// as 1.
func NewPlan[K ~uint8](seed uint64, n int, window uint64, numKinds K) *Plan[K] {
	if window == 0 {
		window = 1
	}
	p := &Plan[K]{Seed: seed, Faults: make([]Fault[K], 0, n)}
	s := Stream(seed)
	for i := 0; i < n; i++ {
		p.Faults = append(p.Faults, Fault[K]{
			Kind: K(s.Next() % uint64(numKinds)),
			Op:   s.Next() % window,
		})
	}
	return p
}

// ParsePlan parses a "seed:count:window" spec — exactly three decimal
// fields, count below 2^31 and window at least 1 — into a plan. It is
// the grammar of the -store-faults and -net-faults flags.
func ParsePlan[K ~uint8](spec string, numKinds K) (*Plan[K], error) {
	if f := strings.Split(spec, ":"); len(f) == 3 {
		seed, err1 := strconv.ParseUint(f[0], 10, 64)
		n, err2 := strconv.ParseUint(f[1], 10, 31)
		window, err3 := strconv.ParseUint(f[2], 10, 64)
		if err1 == nil && err2 == nil && err3 == nil && window >= 1 {
			return NewPlan(seed, int(n), window, numKinds), nil
		}
	}
	return nil, fmt.Errorf(`seeded: bad plan %q, want "seed:count:window" with window >= 1, like "7:4:64"`, spec)
}

// Armed realizes a plan against a live stream of operations split into
// classes, each class counting its own ordinals. Per-class ordinals
// keep addresses meaningful — a plan targets "the 4th fsync", not
// "whatever the 17th syscall happens to be". Each address fires at
// most once, so a retried operation succeeds. Safe for concurrent
// use: the ordinals are atomic, so the set of injected faults is
// stable under concurrency even when which caller draws each ordinal
// is not.
type Armed[K ~uint8] struct {
	name  string
	log   func(format string, args ...any)
	ops   []atomic.Uint64
	fired atomic.Uint64

	mu      sync.Mutex
	pending map[Fault[K]]bool
}

// Arm arms plan's addresses over the given number of operation
// classes. A nil plan arms nothing. log (optional) receives one
// "<name>: injecting <fault>" line per injected fault.
func Arm[K ~uint8](name string, plan *Plan[K], classes int, log func(format string, args ...any)) *Armed[K] {
	a := &Armed[K]{name: name, log: log, ops: make([]atomic.Uint64, classes), pending: make(map[Fault[K]]bool)}
	if plan != nil {
		for _, f := range plan.Faults {
			a.pending[f] = true
		}
	}
	return a
}

// Fired reports how many planned faults have been injected so far.
func (a *Armed[K]) Fired() uint64 { return a.fired.Load() }

// Trip advances class's ordinal and reports which of the given kinds,
// tried in order, is planned for this operation. The log runs outside
// the lock.
func (a *Armed[K]) Trip(class int, kinds ...K) (K, bool) {
	op := a.ops[class].Add(1) - 1
	for _, kind := range kinds {
		f := Fault[K]{Kind: kind, Op: op}
		a.mu.Lock()
		planned := a.pending[f]
		delete(a.pending, f)
		a.mu.Unlock()
		if planned {
			a.fired.Add(1)
			if a.log != nil {
				a.log("%s: injecting %v", a.name, f)
			}
			return kind, true
		}
	}
	return 0, false
}
