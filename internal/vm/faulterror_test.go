package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// faultyRun assembles src, runs it to completion or fault, and returns
// the terminal error (nil if the program halted cleanly).
func faultyRun(t *testing.T, src string, setup func(*Machine)) error {
	t.Helper()
	m := newMachine(t, src, Config{})
	if setup != nil {
		setup(m)
	}
	return m.Run(nil)
}

const loopForever = `
main:
	li $t0, 0
loop:
	addi $t0, $t0, 1
	j loop
`

func TestMaxInstsWatchdog(t *testing.T) {
	err := faultyRun(t, loopForever, func(m *Machine) { m.MaxInsts = 1000 })
	if err == nil {
		t.Fatal("runaway loop did not trip the watchdog")
	}
	if !errors.Is(err, ErrMaxInsts) {
		t.Fatalf("errors.Is(err, ErrMaxInsts) = false for %v", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("errors.As(*FaultError) = false for %v", err)
	}
	if fe.Seq != 1000 {
		t.Fatalf("fault seq = %d, want exactly the budget 1000", fe.Seq)
	}
}

func TestFaultHookAbortsWithContext(t *testing.T) {
	sentinel := errors.New("planted fault")
	var hookPC uint32
	err := faultyRun(t, loopForever, func(m *Machine) {
		m.FaultHook = func(seq uint64, pc uint32) error {
			if seq == 37 {
				hookPC = pc
				return fmt.Errorf("wrapped: %w", sentinel)
			}
			return nil
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false for %v", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("errors.As(*FaultError) = false for %v", err)
	}
	if fe.Seq != 37 {
		t.Fatalf("fault seq = %d, want 37 (the hook's abort point)", fe.Seq)
	}
	if fe.PC != hookPC {
		t.Fatalf("fault pc = %#x, hook saw %#x", fe.PC, hookPC)
	}
	if fe.Unwrap() == nil || !errors.Is(fe.Unwrap(), sentinel) {
		t.Fatalf("Unwrap() does not reach the hook's error: %v", fe.Unwrap())
	}
}

func TestFaultErrorMessageHasContext(t *testing.T) {
	fe := &FaultError{PC: 0x1234, Seq: 42, Err: errors.New("boom")}
	msg := fe.Error()
	for _, want := range []string{"0x00001234", "42", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("FaultError message %q missing %q", msg, want)
		}
	}
}

func TestCleanRunAfterWatchdogHeadroom(t *testing.T) {
	// The watchdog must not fire when the budget covers the program.
	err := faultyRun(t, `
main:
	li $v0, 7
	jr $ra
`, func(m *Machine) { m.MaxInsts = 100 })
	if err != nil {
		t.Fatalf("bounded clean run faulted: %v", err)
	}
}
