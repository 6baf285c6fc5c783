package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/store"
)

func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(42, 16, 64)
	b := NewPlan(42, 16, 64)
	if len(a.Faults) != 16 {
		t.Fatalf("plan has %d faults, want 16", len(a.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs across same-seed plans: %v vs %v", i, a.Faults[i], b.Faults[i])
		}
		if a.Faults[i].Op >= 64 {
			t.Fatalf("fault %d op %d outside window 64", i, a.Faults[i].Op)
		}
	}
	c := NewPlan(43, 16, 64)
	same := true
	for i := range a.Faults {
		if a.Faults[i] != c.Faults[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("7:4:64")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 7 || len(p.Faults) != 4 {
		t.Fatalf("got seed %d, %d faults; want 7, 4", p.Seed, len(p.Faults))
	}
	want := NewPlan(7, 4, 64)
	for i := range p.Faults {
		if p.Faults[i] != want.Faults[i] {
			t.Fatalf("ParsePlan fault %d = %v, want %v", i, p.Faults[i], want.Faults[i])
		}
	}
	for _, bad := range []string{"", "x", "1:2", "1:-2:3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestNewPlanKnownAnswer pins the expansion of one -store-faults spec:
// a chaos run must inject the same faults for the same seed forever.
func TestNewPlanKnownAnswer(t *testing.T) {
	want := []Fault{
		{Kind: ShortWrite, Op: 3},
		{Kind: WriteEIO, Op: 20},
		{Kind: RenameDrop, Op: 6},
		{Kind: ShortWrite, Op: 36},
		{Kind: ShortWrite, Op: 46},
		{Kind: ReadEIO, Op: 62},
		{Kind: WriteENOSPC, Op: 55},
		{Kind: WriteENOSPC, Op: 50},
		{Kind: ReadEIO, Op: 29},
		{Kind: SyncFail, Op: 32},
		{Kind: WriteEIO, Op: 25},
		{Kind: SyncFail, Op: 17},
		{Kind: WriteENOSPC, Op: 17},
		{Kind: ShortWrite, Op: 31},
		{Kind: ShortWrite, Op: 3},
		{Kind: ShortWrite, Op: 30},
	}
	p := NewPlan(42, 16, 64)
	if p.Seed != 42 || !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("NewPlan(42, 16, 64) = seed %d %v\nwant seed 42 %v", p.Seed, p.Faults, want)
	}
}

// TestEachKindFiresOnce walks every fault kind through a real write
// path and checks the fault fires at its exact ordinal, exactly once.
func TestEachKindFiresOnce(t *testing.T) {
	dir := t.TempDir()

	t.Run("write-eio", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: WriteEIO, Op: 1}}}, t.Logf)
		f := mustAppend(t, fs, filepath.Join(dir, "w1"))
		if _, err := f.Write([]byte("op0")); err != nil {
			t.Fatalf("op0 should pass: %v", err)
		}
		_, err := f.Write([]byte("op1"))
		if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("op1 err = %v, want injected EIO", err)
		}
		if _, err := f.Write([]byte("op2")); err != nil {
			t.Fatalf("address fired once, op2 should pass: %v", err)
		}
		f.Close()
		if fs.Fired() != 1 {
			t.Fatalf("Fired = %d, want 1", fs.Fired())
		}
	})

	t.Run("short-write", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: ShortWrite, Op: 0}}}, t.Logf)
		path := filepath.Join(dir, "w2")
		f := mustAppend(t, fs, path)
		n, err := f.Write([]byte("abcdefgh"))
		if !errors.Is(err, ErrInjected) || n != 4 {
			t.Fatalf("short write: n=%d err=%v, want 4 bytes then injected error", n, err)
		}
		f.Close()
		data, _ := os.ReadFile(path)
		if string(data) != "abcd" {
			t.Fatalf("file holds %q, want the torn half %q", data, "abcd")
		}
	})

	t.Run("enospc", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: WriteENOSPC, Op: 0}}}, t.Logf)
		f := mustAppend(t, fs, filepath.Join(dir, "w3"))
		_, err := f.Write([]byte("x"))
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("err = %v, want ENOSPC", err)
		}
		f.Close()
	})

	t.Run("sync-fail", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: SyncFail, Op: 0}}}, t.Logf)
		f := mustAppend(t, fs, filepath.Join(dir, "w4"))
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("sync err = %v, want injected", err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("second sync should pass: %v", err)
		}
		f.Close()
	})

	t.Run("rename-drop", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: RenameDrop, Op: 0}}}, t.Logf)
		src := filepath.Join(dir, "r-src")
		dst := filepath.Join(dir, "r-dst")
		if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(src, dst); err != nil {
			t.Fatalf("dropped rename must report success, got %v", err)
		}
		if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("destination appeared despite rename drop")
		}
		if _, err := os.Stat(src); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("source survived rename drop")
		}
	})

	t.Run("read-eio", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: ReadEIO, Op: 0}}}, t.Logf)
		path := filepath.Join(dir, "r1")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(path); !errors.Is(err, syscall.EIO) {
			t.Fatalf("read err = %v, want EIO", err)
		}
		if data, err := fs.ReadFile(path); err != nil || string(data) != "x" {
			t.Fatalf("retry after once-only fault: %q, %v", data, err)
		}
	})
}

// TestStoreSurvivesWriteFaults drives the artifact store's atomic-write
// protocol through injected faults: the Put fails cleanly (or the
// rename drop hides it), the store stays consistent, and a retried Put
// lands.
func TestStoreSurvivesWriteFaults(t *testing.T) {
	for _, kind := range []Kind{WriteEIO, ShortWrite, WriteENOSPC, SyncFail, RenameDrop} {
		t.Run(kind.String(), func(t *testing.T) {
			fs := New(nil, &Plan{Faults: []Fault{{Kind: kind, Op: 0}}}, t.Logf)
			st, err := store.OpenFS(t.TempDir(), fs)
			if err != nil {
				t.Fatalf("OpenFS: %v", err)
			}
			key := store.Key{Kind: "result", Workload: "w", Scale: 1}
			err = st.Put(key, "payload")
			if kind == RenameDrop {
				if err != nil {
					t.Fatalf("rename drop is silent, Put reported %v", err)
				}
				var got string
				if ok, err := st.Get(key, &got); ok || err != nil {
					t.Fatalf("dropped rename must degrade to a miss, got ok=%v err=%v", ok, err)
				}
			} else if !errors.Is(err, ErrInjected) {
				t.Fatalf("Put err = %v, want injected", err)
			}
			if err := st.Put(key, "payload"); err != nil {
				t.Fatalf("retried Put: %v", err)
			}
			var got string
			ok, err := st.Get(key, &got)
			if !ok || err != nil || got != "payload" {
				t.Fatalf("Get after retry: ok=%v %q %v", ok, got, err)
			}
		})
	}
}

func mustAppend(t *testing.T, fs *FS, path string) store.File {
	t.Helper()
	f, err := fs.OpenAppend(path, 0o644)
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	return f
}
