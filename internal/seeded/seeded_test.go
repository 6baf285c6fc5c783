package seeded

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStreamKnownAnswer checks the stream against the reference
// SplitMix64 outputs from state 0.
func TestStreamKnownAnswer(t *testing.T) {
	s := Stream(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.Next(); got != want {
			t.Fatalf("output %d = %#x, want %#x", i, got, want)
		}
	}
	if got := Mix(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("Mix(0) = %#x, want the stream's first output", got)
	}
}

func TestIntn(t *testing.T) {
	s := Stream(9)
	if got := s.Intn(0); got != 0 || s != 9 {
		t.Fatalf("Intn(0) = %d with state %d, want 0 without advancing", got, s)
	}
	ref := Stream(9)
	for i := 0; i < 100; i++ {
		if got, want := s.Intn(10), ref.Next()%10; got != want {
			t.Fatalf("draw %d: Intn(10) = %d, want %d", i, got, want)
		}
	}
}

func TestDerive(t *testing.T) {
	// Derive(seed, i) is the first output of a stream started at
	// seed ^ (i+1)*golden.
	for i := uint64(0); i < 4; i++ {
		s := Stream(5 ^ (i+1)*golden)
		if got, want := Derive(5, i), s.Next(); got != want {
			t.Fatalf("Derive(5, %d) = %#x, want %#x", i, got, want)
		}
	}
	if Derive(5, 0) == Derive(5, 1) || Derive(5, 0) == Derive(6, 0) {
		t.Fatal("Derive collides across indices or seeds")
	}
}

// kind is a four-entry kind table, like a caller's.
type kind uint8

const numKinds kind = 4

func (k kind) String() string { return fmt.Sprintf("k%d", uint8(k)) }

func TestNewPlan(t *testing.T) {
	a, b := NewPlan(7, 16, 64, numKinds), NewPlan(7, 16, 64, numKinds)
	if a.Seed != 7 || len(a.Faults) != 16 || !reflect.DeepEqual(a, b) {
		t.Fatalf("NewPlan(7, 16, 64) not a deterministic 16-fault plan: %+v vs %+v", a, b)
	}
	for _, f := range a.Faults {
		if f.Op >= 64 || f.Kind >= numKinds {
			t.Fatalf("fault %v outside window 64 or kind table", f)
		}
	}
	if c := NewPlan(8, 16, 64, numKinds); reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical plans")
	}
	// The expansion draws kind then op from one stream.
	s := Stream(7)
	for i, f := range a.Faults {
		if want := (Fault[kind]{Kind: kind(s.Next() % 4), Op: s.Next() % 64}); f != want {
			t.Fatalf("fault %d = %v, want %v", i, f, want)
		}
	}
	if got := (Fault[kind]{Kind: 2, Op: 5}).String(); got != "k2@op5" {
		t.Fatalf("Fault.String = %q, want %q", got, "k2@op5")
	}
}

func TestParsePlan(t *testing.T) {
	for _, tc := range []struct {
		spec          string
		seed, n, wind uint64
	}{
		{"7:4:64", 7, 4, 64},
		{"0:0:1", 0, 0, 1},
		{"18446744073709551615:3:18446744073709551615", 1<<64 - 1, 3, 1<<64 - 1},
	} {
		p, err := ParsePlan(tc.spec, numKinds)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", tc.spec, err)
		}
		if want := NewPlan(tc.seed, int(tc.n), tc.wind, numKinds); !reflect.DeepEqual(p, want) {
			t.Fatalf("ParsePlan(%q) = %+v, want %+v", tc.spec, p, want)
		}
	}
	for _, bad := range []string{
		"", "x", "7:4", "1:2", "7:-1:64", "1:-2:3",
		"7:4:64x",                   // trailing input
		"7:4:64:9",                  // a fourth field
		"7:4:0",                     // an empty window
		"+7:4:64",                   // a sign
		" 7:4:64",                   // whitespace
		"0x7:4:64",                  // not decimal
		"7::64",                     // an empty field
		"7:1e3:64",                  // not an integer
		"18446744073709551616:4:64", // seed overflows uint64
		"7:2147483648:64",           // count beyond 2^31-1
	} {
		if p, err := ParsePlan(bad, numKinds); err == nil {
			t.Errorf("ParsePlan(%q) accepted as %+v", bad, p)
		}
	}
}

func TestArmedFiresOnce(t *testing.T) {
	plan := &Plan[kind]{Faults: []Fault[kind]{{Kind: 1, Op: 1}, {Kind: 2, Op: 1}, {Kind: 3, Op: 0}}}
	var lines []string
	a := Arm("test", plan, 2, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	type trip struct {
		class int
		kinds []kind
		want  kind
		ok    bool
	}
	for i, tc := range []trip{
		{0, []kind{1, 2}, 0, false}, // class 0 op 0: only kind 3 is planned there
		{0, []kind{2, 1}, 2, true},  // op 1: kinds are tried in the given order
		{0, []kind{1, 2}, 0, false}, // op 2: nothing planned
		{1, []kind{3}, 3, true},     // class 1 counts its own ordinals: op 0
		{1, []kind{3}, 0, false},
	} {
		if k, ok := a.Trip(tc.class, tc.kinds...); k != tc.want || ok != tc.ok {
			t.Fatalf("trip %d = %v, %v; want %v, %v", i, k, ok, tc.want, tc.ok)
		}
	}
	if a.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", a.Fired())
	}
	if want := []string{"test: injecting k2@op1", "test: injecting k3@op0"}; !reflect.DeepEqual(lines, want) {
		t.Fatalf("log = %q, want %q", lines, want)
	}

	// A nil plan and a nil log arm nothing and stay quiet.
	quiet := Arm[kind]("quiet", nil, 1, nil)
	if _, ok := quiet.Trip(0, 0, 1, 2, 3); ok || quiet.Fired() != 0 {
		t.Fatal("nil plan injected a fault")
	}
}

// TestArmedConcurrent trips one class from several goroutines: each of
// the 16 planned ordinals fires exactly once, whichever caller draws it.
func TestArmedConcurrent(t *testing.T) {
	plan := &Plan[kind]{}
	for op := uint64(0); op < 64; op += 4 {
		plan.Faults = append(plan.Faults, Fault[kind]{Kind: kind(op % 3), Op: op})
	}
	a := Arm("test", plan, 1, nil)
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, ok := a.Trip(0, 0, 1, 2); ok {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if fired.Load() != 16 || a.Fired() != 16 {
		t.Fatalf("fired %d (Fired %d) of 16 planned faults over 64 draws", fired.Load(), a.Fired())
	}
}
