// Package stats provides the small statistics toolkit used throughout the
// simulator: counters, running mean/standard deviation accumulators and
// integer histograms.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates a stream of float64 observations and reports count,
// mean, variance and standard deviation using Welford's online algorithm,
// which is numerically stable for the long streams the profiler produces.
type Running struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// AddN records the same observation n times.
func (r *Running) AddN(x float64, n uint64) {
	for i := uint64(0); i < n; i++ {
		r.Add(x)
	}
}

// FromHist returns the Running that observing value k hist[k] times,
// for every k, would accumulate. It sums in integers where it can and
// takes the second moment about the exact-sum mean, so it matches
// Welford's running result to rounding, not bit for bit.
func FromHist(hist []uint64) Running {
	var n, sum uint64
	for k, h := range hist {
		n += h
		sum += uint64(k) * h
	}
	if n == 0 {
		return Running{}
	}
	mean := float64(sum) / float64(n)
	var m2 float64
	for k, h := range hist {
		d := float64(k) - mean
		m2 += float64(h) * d * d
	}
	return Running{n: n, mean: mean, m2: m2}
}

// N reports the number of observations.
func (r *Running) N() uint64 { return r.n }

// Mean reports the arithmetic mean of the observations (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance reports the population variance of the observations.
func (r *Running) Variance() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev reports the population standard deviation of the observations.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Merge folds other into r, as if every observation fed to other had been
// fed to r as well.
func (r *Running) Merge(other Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = other
		return
	}
	n := r.n + other.n
	d := other.mean - r.mean
	mean := r.mean + d*float64(other.n)/float64(n)
	m2 := r.m2 + other.m2 + d*d*float64(r.n)*float64(other.n)/float64(n)
	r.n, r.mean, r.m2 = n, mean, m2
}

func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f", r.n, r.Mean(), r.StdDev())
}

// runningGobBytes is the fixed wire image of a Running: count, mean
// bits, M2 bits, little-endian.
const runningGobBytes = 24

// GobEncode makes Running durable despite its unexported fields (the
// type guards Welford's invariants): the artifact store's gob payloads
// round-trip it through an explicit fixed-width image.
func (r Running) GobEncode() ([]byte, error) {
	buf := make([]byte, runningGobBytes)
	binary.LittleEndian.PutUint64(buf[0:], r.n)
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.mean))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.m2))
	return buf, nil
}

// GobDecode restores a Running encoded by GobEncode.
func (r *Running) GobDecode(data []byte) error {
	if len(data) != runningGobBytes {
		return fmt.Errorf("stats: Running image is %d bytes, want %d", len(data), runningGobBytes)
	}
	r.n = binary.LittleEndian.Uint64(data[0:])
	r.mean = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	r.m2 = math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	return nil
}

// Hist is a sparse integer histogram.
type Hist struct {
	counts map[int]uint64
	total  uint64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{counts: make(map[int]uint64)} }

// Add increments the bucket for v.
func (h *Hist) Add(v int) { h.counts[v]++; h.total++ }

// Count reports the number of observations equal to v.
func (h *Hist) Count(v int) uint64 { return h.counts[v] }

// Total reports the total number of observations.
func (h *Hist) Total() uint64 { return h.total }

// Mean reports the mean of the observed values. Float addition is not
// associative, so the sum walks the buckets in ascending value order:
// map iteration order must never reach a reported number.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for _, v := range h.Buckets() {
		sum += float64(v) * float64(h.counts[v])
	}
	return sum / float64(h.total)
}

// StdDev reports the population standard deviation of the observed
// values, accumulated in ascending bucket order for the same
// determinism reason as Mean.
func (h *Hist) StdDev() float64 {
	if h.total == 0 {
		return 0
	}
	m := h.Mean()
	var sq float64
	for _, v := range h.Buckets() {
		d := float64(v) - m
		sq += d * d * float64(h.counts[v])
	}
	return math.Sqrt(sq / float64(h.total))
}

// Buckets returns the observed values in ascending order.
func (h *Hist) Buckets() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

func (h *Hist) String() string {
	var b strings.Builder
	for _, v := range h.Buckets() {
		fmt.Fprintf(&b, "%d:%d ", v, h.counts[v])
	}
	return strings.TrimSpace(b.String())
}

// Ratio is a convenience pair of counters reporting hits/total.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Add records one trial.
func (r *Ratio) Add(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value reports hits/total in [0,1]; 0 when empty.
func (r *Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Percent reports the ratio as a percentage.
func (r *Ratio) Percent() float64 { return r.Value() * 100 }

func (r *Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.2f%%)", r.Hits, r.Total, r.Percent())
}
