package cpu

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "126.gcc",
		Insts: []TraceInst{
			{Addr: 0x7FFF_0000, Index: 3, Class: 2, Src1: 4, Src2: -1, Dest: 7, Flags: FlagMem | FlagLoad | FlagStack},
			{Addr: 0x1000_0040, Index: 9, Class: 1, Src1: -1, Src2: -1, Dest: 40, Flags: FlagMem | FlagFPMem},
			{Index: 10, Class: 5, Src1: 63, Src2: 12, Dest: -1},
		},
		PredictorStats: core.ClassifyStats{
			Total: 100, Correct: 97, StaticCovered: 40,
			HintCovered: 10, HintCorrect: 9, TableLookups: 50, TableCorrect: 48,
		},
	}
}

func TestTraceCodecRoundTrip(t *testing.T) {
	want := sampleTrace()
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cap(data) {
		t.Errorf("encoding is %d bytes in a %d-byte buffer: the size formula is off", len(data), cap(data))
	}
	var got Trace
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", &got, want)
	}

	// Deterministic byte image: encoding the same trace twice agrees.
	again, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatal("non-deterministic encoding")
	}

	// Empty trace round-trips too.
	empty := &Trace{Name: ""}
	data, err = empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(back.Insts) != 0 {
		t.Fatalf("empty trace decoded to %d insts", len(back.Insts))
	}
}

func TestTraceCodecRejectsMangledInput(t *testing.T) {
	data, err := sampleTrace().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated record", func(b []byte) []byte { return b[:len(b)-1] }},
		{"name overruns", func(b []byte) []byte { b[5] = 0xFF; return b }},
		{"count overruns", func(b []byte) []byte { b[len(b)-3*13-8] = 0xFF; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mangle(append([]byte(nil), data...))
			var tr Trace
			if err := tr.UnmarshalBinary(in); err == nil {
				t.Fatal("mangled input decoded without error")
			}
		})
	}
}
