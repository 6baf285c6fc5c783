package vm

import (
	"context"
	"errors"
	"testing"
)

func TestRunUntilTruncates(t *testing.T) {
	m := newMachine(t, loopForever, Config{})
	var observed uint64
	if err := m.RunUntil(context.Background(), 5000, func(Event) { observed++ }); err != nil {
		t.Fatalf("truncated run failed: %v", err)
	}
	if m.Seq() != 5000 || observed != 5000 {
		t.Fatalf("seq = %d, observed = %d, want 5000 each", m.Seq(), observed)
	}
	if m.Halted() {
		t.Fatal("truncated run reports halted")
	}
}

func TestRunUntilHaltsBeforeLimit(t *testing.T) {
	m := newMachine(t, `
main:
	li $v0, 7
	jr $ra
`, Config{})
	var observed uint64
	if err := m.RunUntil(context.Background(), 1000, func(Event) { observed++ }); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if !m.Halted() || m.Seq() != observed || observed >= 1000 {
		t.Fatalf("halted = %v, seq = %d, observed = %d", m.Halted(), m.Seq(), observed)
	}
}

func TestRunUntilLimitOverridesMaxInsts(t *testing.T) {
	m := newMachine(t, loopForever, Config{MaxInsts: 100})
	if err := m.RunUntil(context.Background(), 3000, nil); err != nil {
		t.Fatalf("limit above Config.MaxInsts tripped the watchdog: %v", err)
	}
	if m.Seq() != 3000 {
		t.Fatalf("seq = %d, want 3000", m.Seq())
	}
}

func TestRunUntilCancelled(t *testing.T) {
	m := newMachine(t, loopForever, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := m.RunUntil(ctx, 1_000_000, func(ev Event) {
		if ev.Seq == 5000 {
			cancel()
		}
	})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("errors.As(*FaultError) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(context.Canceled) = false for %v", err)
	}
	// The poll runs every 1024 instructions: the first one after the
	// cancellation at 5000 is at 5*1024.
	if fe.Seq != 5120 || m.Seq() != 5120 {
		t.Fatalf("stopped at fault seq %d (machine seq %d), want 5120", fe.Seq, m.Seq())
	}
	if fe.PC != m.PC() {
		t.Fatalf("fault pc = %#x, machine pc = %#x", fe.PC, m.PC())
	}
}

func TestRunUntilPollsBeforeFaultHook(t *testing.T) {
	m := newMachine(t, loopForever, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hookCalls := 0
	m.FaultHook = func(uint64, uint32) error {
		hookCalls++
		return errors.New("hook fault")
	}
	err := m.RunUntil(ctx, 1000, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context's cancellation", err)
	}
	if hookCalls != 0 {
		t.Fatalf("FaultHook ran %d times before the context poll", hookCalls)
	}
}
