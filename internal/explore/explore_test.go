package explore

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func quickRunner(t *testing.T, names ...string) *experiments.Runner {
	t.Helper()
	r := experiments.NewRunner()
	r.MaxInsts = 200_000
	r.Workloads = nil
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		r.Workloads = append(r.Workloads, w)
	}
	return r
}

func TestEnumerate(t *testing.T) {
	g := Grid{
		L1Ports:   []int{2, 3},
		LVCPorts:  []int{0, 2},
		LVCSizeKB: []int{4, 8},
		Penalties: []int{1, 4},
	}
	pts, dropped, err := g.Enumerate(1)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
	// Per l1 port count: 1 collapsed conventional point + 2*2 decoupled
	// points = 5; two l1 values = 10.
	if len(pts) != 10 {
		names := make([]string, len(pts))
		for i, p := range pts {
			names[i] = p.Name
		}
		t.Fatalf("enumerated %d points, want 10: %v", len(pts), names)
	}
	want := map[string]bool{
		"(2+0)": true, "(2+2)": true, "(2+2,pen4)": true,
		"(2+2,lvc8K)": true, "(2+2,lvc8K,pen4)": true,
		"(3+0)": true, "(3+2)": true, "(3+2,pen4)": true,
		"(3+2,lvc8K)": true, "(3+2,lvc8K,pen4)": true,
	}
	for _, p := range pts {
		if !want[p.Name] {
			t.Errorf("unexpected point %q", p.Name)
		}
	}
}

func TestEnumerateEmptyGrid(t *testing.T) {
	if _, _, err := (Grid{}).Enumerate(1); err == nil {
		t.Error("empty grid enumerated")
	}
}

func TestEnumerateMaxPointsDeterministic(t *testing.T) {
	g := Grid{
		L1Ports:   []int{1, 2, 3, 4},
		LVCPorts:  []int{1, 2, 3},
		Penalties: []int{1, 2, 4},
		MaxPoints: 10,
	}
	a, droppedA, err := g.Enumerate(42)
	if err != nil {
		t.Fatal(err)
	}
	b, droppedB, err := g.Enumerate(42)
	if err != nil {
		t.Fatal(err)
	}
	if droppedA != 36-10 || droppedB != droppedA {
		t.Errorf("dropped = %d, %d; want %d", droppedA, droppedB, 36-10)
	}
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("sampled %d and %d points, want 10", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("same seed sampled different points at %d: %q vs %q", i, a[i].Name, b[i].Name)
		}
	}
	c, _, err := g.Enumerate(43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Name != c[i].Name {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds sampled identical point sets (possible but wildly unlikely)")
	}
}

// TestEnumerateMaxPointsKnownAnswer pins one seeded sample: which
// points "arlexplore -max-points 5 -seed 42" keeps from a 36-point
// grid.
func TestEnumerateMaxPointsKnownAnswer(t *testing.T) {
	g := Grid{L1Ports: []int{1, 2, 3, 4}, LVCPorts: []int{1, 2, 3}, Penalties: []int{1, 2, 4}, MaxPoints: 5}
	pts, dropped, err := g.Enumerate(42)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pts {
		got = append(got, p.Name)
	}
	want := []string{"(1+1)", "(1+1,pen4)", "(1+2,pen2)", "(4+2,pen2)", "(4+2,pen4)"}
	if !reflect.DeepEqual(got, want) || dropped != 31 {
		t.Fatalf("sample = %q (dropped %d), want %q (dropped 31)", got, dropped, want)
	}
}

func TestParetoRanking(t *testing.T) {
	pts := []Point{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	evals := []Eval{
		{Point: pts[0], IPC: 2.0, TotalKB: 64, Ports: 2},
		{Point: pts[1], IPC: 1.5, TotalKB: 64, Ports: 2}, // dominated by a
		{Point: pts[2], IPC: 1.8, TotalKB: 32, Ports: 2}, // pareto: cheaper
	}
	if dominates(evals[1], evals[0]) || !dominates(evals[0], evals[1]) {
		t.Fatal("dominance backwards")
	}
	if dominates(evals[0], evals[2]) || dominates(evals[2], evals[0]) {
		t.Fatal("incomparable points reported as dominated")
	}
	e := evals[0]
	if dominates(e, e) {
		t.Fatal("a point dominates itself")
	}
}

// TestSearchDeterministic is the explorer's load-bearing guarantee:
// the same grid and seed produce a byte-identical encoded frontier,
// run twice in one process (fresh runner each time, so nothing rides
// on memo state).
func TestSearchDeterministic(t *testing.T) {
	g := Grid{L1Ports: []int{2}, LVCPorts: []int{0, 2}, Penalties: []int{1, 4}}
	run := func() []byte {
		r := quickRunner(t, "compress", "li")
		r.Parallel = 4
		f, err := Search(r, g, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different frontiers:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if err := ValidateFrontier(a); err != nil {
		t.Errorf("frontier artifact fails its schema: %v", err)
	}
}

func TestSearchFrontierShape(t *testing.T) {
	r := quickRunner(t, "compress")
	r.Parallel = 4
	f, err := Search(r, Grid{L1Ports: []int{2}, LVCPorts: []int{0, 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 2 {
		t.Fatalf("frontier holds %d points, want 2", len(f.Points))
	}
	for i, e := range f.Points {
		if e.Rank != i+1 {
			t.Errorf("point %d has rank %d", i, e.Rank)
		}
		if e.IPC <= 0 || e.TotalKB <= 0 || e.Ports <= 0 {
			t.Errorf("point %s objectives: IPC %.3f KB %.1f ports %d", e.Name, e.IPC, e.TotalKB, e.Ports)
		}
		if e.IPCByWorkload["129.compress"] != e.IPC {
			t.Errorf("single-workload mean IPC %.4f != per-workload %.4f", e.IPC, e.IPCByWorkload["129.compress"])
		}
	}
	// The (2+2) machine carries the LVC and the ARPT: more capacity and
	// more ports than (2+0).
	var conv, dec *Eval
	for i := range f.Points {
		switch f.Points[i].Name {
		case "(2+0)":
			conv = &f.Points[i]
		case "(2+2)":
			dec = &f.Points[i]
		}
	}
	if conv == nil || dec == nil {
		t.Fatal("expected points missing from frontier")
	}
	if dec.TotalKB <= conv.TotalKB || dec.Ports <= conv.Ports {
		t.Errorf("decoupled cost (%f KB, %d ports) not above conventional (%f KB, %d ports)",
			dec.TotalKB, dec.Ports, conv.TotalKB, conv.Ports)
	}
}

func TestFrontierMatchesSchema(t *testing.T) {
	f := &Frontier{
		Schema:    FrontierSchema,
		Grid:      Grid{L1Ports: []int{2}, LVCPorts: []int{2}, Steer: "region"},
		Seed:      1,
		Workloads: []string{"compress"},
		Scale:     1,
		MaxInsts:  1000,
		Points: []Eval{{
			Point: Point{Name: "(2+2)@arpt1024", ARPTEntries: 1024},
			IPC:   1.0, IPCByWorkload: map[string]float64{"compress": 1.0},
			TotalKB: 72, Ports: 4, Pareto: true, Rank: 1,
		}},
	}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFrontier(b); err != nil {
		t.Errorf("hand-built frontier fails schema: %v", err)
	}
	// The schema must actually reject drift, not rubber-stamp.
	if err := ValidateFrontier([]byte(`{"schema":"arl-frontier/v2"}`)); err == nil {
		t.Error("schema accepted a wrong schema tag")
	}
	bad := bytes.Replace(b, []byte(`"(2+2)@arpt1024"`), []byte(`"bogus name"`), 1)
	if err := ValidateFrontier(bad); err == nil {
		t.Error("schema accepted a malformed point name")
	}
}
