package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/minicc"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workload"
)

// frontend gives the functional front end all of the measured time and
// the timing engine none: a round takes every workload at full default
// length through compile, VM, profile, trace build and trace codec.
type frontend struct {
	exp   *expectations
	wls   []*workload.Workload
	srcs  []string
	insts uint64 // retired by the last round's VM passes
}

func newFrontend(rng *rand.Rand, exp *expectations, wls []*workload.Workload) *frontend {
	wls = append([]*workload.Workload(nil), wls...)
	rng.Shuffle(len(wls), func(i, j int) { wls[i], wls[j] = wls[j], wls[i] })
	return &frontend{exp: exp, wls: wls}
}

func (f *frontend) setup(t *tracer, _ *tally) (time.Duration, error) {
	start := time.Now()
	r := t.root("setup")
	f.srcs = make([]string, len(f.wls))
	for i, w := range f.wls {
		f.srcs[i] = w.Source(w.DefaultScale)
	}
	t.end(r, 0, "")
	return time.Since(start), nil
}

// frontOut is what one item's layer calls returned; step is the number
// of calls that succeeded before err.
type frontOut struct {
	vmInsts uint64
	prof    *profile.Profile
	tr      *cpu.Trace
	enc     []byte
	dec     cpu.Trace
	step    int
	err     error
}

// pipeline runs the six layer calls of one item, each under its own
// span, and stops at the first error.
func pipeline(t *tracer, r ref, name, src string) (o frontOut) {
	s := t.begin("minicc.Compile", r)
	p, err := minicc.Compile(name, src)
	t.end(s, 0, "")
	if o.err = err; err != nil {
		return o
	}
	o.step++

	s = t.begin("vm.Run", r)
	m, err := vm.New(vm.Config{Program: p})
	if err == nil {
		err = m.Run(nil)
		o.vmInsts = m.Seq()
	}
	t.end(s, int64(o.vmInsts), "")
	if o.err = err; err != nil {
		return o
	}
	o.step++

	s = t.begin("profile.Run", r)
	o.prof, o.err = profile.Run(p, 0, nil)
	if o.err != nil {
		t.end(s, 0, "")
		return o
	}
	t.end(s, int64(o.prof.DynInsts), "")
	o.step++

	s = t.begin("cpu.BuildTrace", r)
	o.tr, o.err = cpu.BuildTrace(p, cpu.TraceOptions{})
	if o.err != nil {
		t.end(s, 0, "")
		return o
	}
	t.end(s, int64(len(o.tr.Insts)), "")
	o.step++

	s = t.begin("Trace.MarshalBinary", r)
	o.enc, o.err = o.tr.MarshalBinary()
	t.end(s, int64(len(o.enc)), "")
	if o.err != nil {
		return o
	}
	o.step++

	s = t.begin("Trace.UnmarshalBinary", r)
	o.err = o.dec.UnmarshalBinary(o.enc)
	t.end(s, int64(len(o.enc)), "")
	if o.err == nil {
		o.step++
	}
	return o
}

func (f *frontend) round(t *tracer, c *tally) (time.Duration, error) {
	var total time.Duration
	f.insts = 0
	for i, w := range f.wls {
		r := t.root("frontend.item")
		start := time.Now()
		o := pipeline(t, r, w.Name, f.srcs[i])
		total += time.Since(start)
		t.end(r, 0, "")
		f.insts += o.vmInsts
		for _, err := range f.check(w.Name, o) {
			c.op(err)
		}
		// Collect this item's trace and encodings, which the check kept
		// alive, so every item starts from the same heap whatever order
		// the seed drew: peak memory then depends on the items, not on
		// their order.
		runtime.GC()
	}
	return total, nil
}

// check returns one outcome per layer call the item attempted: its
// error, or a mismatch against the recorded results.
func (f *frontend) check(name string, o frontOut) []error {
	errs := make([]error, o.step, o.step+1)
	if o.err != nil {
		errs = append(errs, fmt.Errorf("%s: layer call %d: %w", name, o.step+1, o.err))
	}
	want, err := f.exp.front(name)
	if err != nil {
		return append(errs[:0], err)
	}
	if o.step > 1 && o.vmInsts != want.DynInsts {
		errs[1] = fmt.Errorf("%s: VM retired %d instructions, recorded %d", name, o.vmInsts, want.DynInsts)
	}
	if o.step > 2 {
		errs[2] = f.exp.checkProfile(name, o.prof)
	}
	if o.step > 3 && uint64(len(o.tr.Insts)) != want.DynInsts {
		errs[3] = fmt.Errorf("%s: trace holds %d instructions, recorded %d", name, len(o.tr.Insts), want.DynInsts)
	}
	if o.step > 4 {
		if sum := sha256.Sum256(o.enc); hex.EncodeToString(sum[:]) != want.TraceSHA256 {
			errs[4] = fmt.Errorf("%s: trace encoding SHA-256 %x, recorded %s", name, sum, want.TraceSHA256)
		}
	}
	if o.step > 5 && (o.dec.Name != o.tr.Name || len(o.dec.Insts) != len(o.tr.Insts)) {
		errs[5] = fmt.Errorf("%s: decoded trace %q holds %d instructions, encoded %q held %d",
			name, o.dec.Name, len(o.dec.Insts), o.tr.Name, len(o.tr.Insts))
	}
	return errs
}

func (f *frontend) work() (insts, ops float64) {
	return float64(f.insts), float64(6 * len(f.wls))
}

func (f *frontend) close() error { return nil }
