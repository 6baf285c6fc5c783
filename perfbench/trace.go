package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one workload item or
// campaign round share a trace ID; Parent is the ID of the enclosing
// span (0 for the item's root).
type span struct {
	Name   string `json:"name"`
	Trace  int32  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is what the call processed: instructions, or bytes for the
	// codec and storage calls.
	Work int64 `json:"work,omitempty"`
	// Tag is the machine configuration of a simulation.
	Tag string `json:"tag,omitempty"`
	// Allocs and GCs are the heap objects allocated and the GC cycles
	// completed, process-wide, while the span was open.
	Allocs uint64 `json:"allocs"`
	GCs    uint64 `json:"gcs"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// ref names an open span; the zero ref is "not recording".
type ref struct{ trace, id int32 }

// tracer keeps spans and counts in memory while on; while off every
// call returns at once, so untraced rounds pay only an uncontended lock.
type tracer struct {
	mu      sync.Mutex
	on      bool
	epoch   time.Time
	spans   []span
	traces  int32
	ambient ref // parent of spans opened by service goroutines
	counts  map[string]float64
	// obs holds latencies the benchmark observes without a span of
	// its own: the queue wait and execution time of campaign units.
	obs    map[string][]float64
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		counts: map[string]float64{},
		obs:    map[string][]float64{},
		sample: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) readLocked() (allocs, gcs uint64) {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64(), t.sample[1].Value.Uint64()
}

// root opens the first span of a new trace.
func (t *tracer) root(name string) ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return ref{}
	}
	t.traces++
	return t.openLocked(name, ref{trace: t.traces})
}

// begin opens a child of parent.
func (t *tracer) begin(name string, parent ref) ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on || parent.trace == 0 {
		return ref{}
	}
	return t.openLocked(name, parent)
}

// beginAmbient opens a child of the ambient span: calls made by the
// service's own goroutines, which the benchmark cannot hand a parent.
func (t *tracer) beginAmbient(name string) ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on || t.ambient.trace == 0 {
		return ref{}
	}
	return t.openLocked(name, t.ambient)
}

func (t *tracer) setAmbient(r ref) {
	t.mu.Lock()
	t.ambient = r
	t.mu.Unlock()
}

func (t *tracer) openLocked(name string, parent ref) ref {
	allocs, gcs := t.readLocked()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		Name: name, Trace: parent.trace, ID: id, Parent: parent.id,
		Start: int64(time.Since(t.epoch)), Allocs: allocs, GCs: gcs,
	})
	return ref{trace: parent.trace, id: id}
}

// end closes r, recording the work the call did and its tag.
func (t *tracer) end(r ref, work int64, tag string) {
	if r.id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[r.id-1]
	s.End = int64(time.Since(t.epoch))
	allocs, gcs := t.readLocked()
	s.Allocs, s.GCs = allocs-s.Allocs, gcs-s.GCs
	s.Work, s.Tag = work, tag
}

// add accumulates a count while the tracer is on.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	if t.on {
		t.counts[name] += v
	}
	t.mu.Unlock()
}

// observe records one latency sample while the tracer is on.
func (t *tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	if t.on {
		t.obs[name] = append(t.obs[name], d.Seconds()*1e3)
	}
	t.mu.Unlock()
}

// phase is what the tracer counted and sampled in one phase of a run.
type phase struct {
	counts map[string]float64
	obs    map[string][]float64
}

// takePhase returns the counts and samples so far and starts afresh, so
// set-up and rounds each report their own.
func (t *tracer) takePhase() phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := phase{t.counts, t.obs}
	t.counts, t.obs = map[string]float64{}, map[string][]float64{}
	return p
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// write saves the spans with the machine descriptor.
func (t *tracer) write(path string, m machineInfo, o options) error {
	self := selfTimes(t.spans)
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	doc := struct {
		Machine  machineInfo `json:"machine"`
		Workload string      `json:"workload"`
		Seconds  int         `json:"seconds"`
		Spans    []out       `json:"spans"`
	}{m, o.workload, o.seconds, make([]out, len(t.spans))}
	for i, s := range t.spans {
		doc.Spans[i] = out{s, int64(self[i])}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
