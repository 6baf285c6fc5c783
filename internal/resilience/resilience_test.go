package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRetrySucceedsAfterFailures(t *testing.T) {
	r := Retry{Attempts: 4, BaseDelay: time.Microsecond, MaxDelay: 4 * time.Microsecond, Seed: 7}
	calls := 0
	var retried []int
	r.OnRetry = func(name string, attempt int, delay time.Duration, err error) {
		retried = append(retried, attempt)
	}
	err := r.Do(context.Background(), "op", func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(retried) != 2 {
		t.Fatalf("calls=%d retried=%v", calls, retried)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	r := Retry{Attempts: 3, BaseDelay: time.Microsecond, Seed: 1}
	calls := 0
	sentinel := errors.New("permanent")
	err := r.Do(context.Background(), "op", func(ctx context.Context) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryZeroValueRunsOnce(t *testing.T) {
	var r Retry
	calls := 0
	if err := r.Do(nil, "op", func(ctx context.Context) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls=%d", calls)
	}
}

// TestRetryStopsOnParentCancel proves shutdown wins immediately: a
// cancelled parent context suppresses all remaining attempts.
func TestRetryStopsOnParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Retry{Attempts: 10, BaseDelay: time.Hour, Seed: 3}
	calls := 0
	err := r.Do(ctx, "op", func(c context.Context) error {
		calls++
		cancel()
		return c.Err()
	})
	if calls != 1 {
		t.Fatalf("calls=%d, want 1 (no retry after parent cancel)", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v", err)
	}
}

// TestRetryStopsOnParentDeadline pins the watchdog classification: a
// parent deadline blowing mid-attempt surfaces from fn exactly like a
// per-attempt timeout (context.DeadlineExceeded), but must not be
// retried — shutdown would otherwise burn the whole attempt budget,
// one watchdog period per attempt.
func TestRetryStopsOnParentDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r := Retry{Attempts: 5, BaseDelay: time.Microsecond, Seed: 9}
	calls := 0
	err := r.Do(ctx, "op", func(c context.Context) error {
		calls++
		<-c.Done() // wedged attempt, released only by the parent watchdog
		return c.Err()
	})
	if calls != 1 {
		t.Fatalf("calls=%d, want 1 (no retry after parent watchdog expiry)", calls)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v", err)
	}
	if !Transient(err) {
		t.Fatal("parent watchdog expiry must classify as transient")
	}
}

// TestRetryParentShutdownClassifiesTransient proves that a failure
// observed while the parent is already done is reported as transient
// even when the attempt's own error looks permanent: the teardown may
// have provoked it, so it must never be cached against the workload.
func TestRetryParentShutdownClassifiesTransient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Retry{Attempts: 5, BaseDelay: time.Hour, Seed: 11}
	calls := 0
	err := r.Do(ctx, "op", func(context.Context) error {
		calls++
		cancel()
		return errors.New("torn down under me")
	})
	if calls != 1 {
		t.Fatalf("calls=%d, want 1", calls)
	}
	if !Transient(err) {
		t.Fatalf("err=%v must be transient (wraps the parent's cancellation)", err)
	}
	if !strings.Contains(err.Error(), "torn down under me") {
		t.Fatalf("err=%v lost the attempt's failure", err)
	}
}

// TestRetryAttemptTimeout proves each attempt gets its own deadline
// while the parent survives, so a wedged attempt is retried.
func TestRetryAttemptTimeout(t *testing.T) {
	r := Retry{Attempts: 2, AttemptTimeout: time.Millisecond, BaseDelay: time.Microsecond, Seed: 5}
	calls := 0
	err := r.Do(context.Background(), "op", func(ctx context.Context) error {
		calls++
		if calls == 1 {
			<-ctx.Done() // wedged first attempt, released by its own deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// TestBackoffDeterministic pins the jitter contract: same (seed, name,
// attempt) → same delay; different seeds or names → (almost surely)
// different delays; every delay in [cap/2, cap] bounds.
func TestBackoffDeterministic(t *testing.T) {
	r := Retry{Attempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}
	for attempt := 1; attempt <= 6; attempt++ {
		a := r.backoff("trace/099.go", attempt)
		b := r.backoff("trace/099.go", attempt)
		if a != b {
			t.Fatalf("attempt %d: nondeterministic backoff %v vs %v", attempt, a, b)
		}
		want := r.BaseDelay << (attempt - 1)
		if want > r.MaxDelay {
			want = r.MaxDelay
		}
		if a < want/2 || a > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, a, want/2, want)
		}
	}
	r2 := r
	r2.Seed = 43
	if r.backoff("x", 1) == r2.backoff("x", 1) && r.backoff("x", 2) == r2.backoff("x", 2) {
		t.Fatal("seed does not influence jitter")
	}
}

// TestBackoffKnownAnswer pins the jitter stream: a retried campaign
// must wait the same delays for the same (seed, name, attempt).
func TestBackoffKnownAnswer(t *testing.T) {
	r := Retry{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for _, c := range []struct {
		seed    uint64
		name    string
		attempt int
		want    time.Duration
	}{
		{42, "trace/099.go", 1, 7172612},
		{42, "trace/099.go", 4, 76040434},
		{7, "op", 2, 16206920},
		{0, "", 1, 5702274},
		{1 << 63, "sim/130.li/2p0", 6, 70793378},
	} {
		r.Seed = c.seed
		if got := r.backoff(c.name, c.attempt); got != c.want {
			t.Errorf("backoff(seed %d, %q, attempt %d) = %d, want %d", c.seed, c.name, c.attempt, got, c.want)
		}
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := NewBreaker(3)
	fail := errors.New("boom")
	for i := 0; i < 2; i++ {
		if err := b.Allow("w"); err != nil {
			t.Fatalf("tripped early at %d", i)
		}
		b.Record("w", fail)
	}
	if b.Tripped("w") {
		t.Fatal("tripped below threshold")
	}
	b.Record("w", fail)
	if !b.Tripped("w") || b.Trips() != 1 {
		t.Fatalf("tripped=%v trips=%d", b.Tripped("w"), b.Trips())
	}
	err := b.Allow("w")
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow = %v, want ErrOpen", err)
	}
	if !Transient(err) {
		t.Fatal("breaker-open error must be transient (never memoized)")
	}
	// Other keys are unaffected.
	if err := b.Allow("v"); err != nil {
		t.Fatal(err)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(2)
	fail := errors.New("boom")
	b.Record("w", fail)
	b.Record("w", nil)
	b.Record("w", fail)
	if b.Tripped("w") {
		t.Fatal("streak not reset by success")
	}
}

func TestBreakerIgnoresCancelAndOpen(t *testing.T) {
	b := NewBreaker(1)
	b.Record("w", context.Canceled)
	b.Record("w", fmt.Errorf("wrapped: %w", context.Canceled))
	if b.Tripped("w") {
		t.Fatal("cancellation tripped the breaker")
	}
	b.Record("w", errors.New("real failure"))
	if !b.Tripped("w") {
		t.Fatal("not tripped")
	}
	trips := b.Trips()
	b.Record("w", b.Allow("w")) // feeding the open error back must not re-count
	if b.Trips() != trips {
		t.Fatal("open error re-counted")
	}
}

func TestTransient(t *testing.T) {
	for _, err := range []error{
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("stage: %w", context.DeadlineExceeded),
		fmt.Errorf("skip: %w", ErrOpen),
	} {
		if !Transient(err) {
			t.Fatalf("%v not transient", err)
		}
	}
	if Transient(errors.New("compile error")) || Transient(nil) {
		t.Fatal("misclassified")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := NewBreaker(2)
	b.SetCooldown(3)
	fail := errors.New("boom")
	b.Record("w", fail)
	b.Record("w", fail)
	if !b.Tripped("w") {
		t.Fatal("not tripped at threshold")
	}
	// The cooldown is counted in rejected arrivals, never wall time.
	for i := 0; i < 3; i++ {
		if err := b.Allow("w"); !errors.Is(err, ErrOpen) {
			t.Fatalf("arrival %d during cooldown: %v, want ErrOpen", i, err)
		}
	}
	if err := b.Allow("w"); err != nil {
		t.Fatalf("probe not granted after cooldown: %v", err)
	}
	// Only one probe may be in flight; concurrent arrivals keep rejecting.
	if err := b.Allow("w"); !errors.Is(err, ErrOpen) {
		t.Fatalf("second in-flight probe granted: %v", err)
	}
	// Failed probe: re-open with the cooldown doubled.
	b.Record("w", fail)
	if b.Reopens() != 1 {
		t.Fatalf("Reopens = %d, want 1", b.Reopens())
	}
	for i := 0; i < 6; i++ {
		if err := b.Allow("w"); !errors.Is(err, ErrOpen) {
			t.Fatalf("arrival %d during doubled cooldown: %v, want ErrOpen", i, err)
		}
	}
	if err := b.Allow("w"); err != nil {
		t.Fatalf("second probe not granted after doubled cooldown: %v", err)
	}
	// Successful probe closes the circuit for good.
	b.Record("w", nil)
	if b.Tripped("w") {
		t.Fatal("circuit still open after successful probe")
	}
	if b.Closes() != 1 {
		t.Fatalf("Closes = %d, want 1", b.Closes())
	}
	for i := 0; i < 10; i++ {
		if err := b.Allow("w"); err != nil {
			t.Fatalf("closed circuit rejecting: %v", err)
		}
	}
	// One fresh failure must not instantly re-trip: the streak restarts.
	b.Record("w", fail)
	if b.Tripped("w") {
		t.Fatal("single post-close failure re-tripped the circuit")
	}
}

func TestBreakerProbeCancelRearms(t *testing.T) {
	b := NewBreaker(1)
	b.SetCooldown(1)
	b.Record("w", errors.New("boom"))
	if err := b.Allow("w"); !errors.Is(err, ErrOpen) {
		t.Fatal("cooldown arrival not rejected")
	}
	if err := b.Allow("w"); err != nil {
		t.Fatalf("probe not granted: %v", err)
	}
	// The probe's attempt was cancelled by shutdown: no verdict on the
	// key, so the probe slot is handed to the next arrival unpenalized.
	b.Record("w", context.Canceled)
	if err := b.Allow("w"); err != nil {
		t.Fatalf("probe not re-armed after cancel: %v", err)
	}
	if b.Reopens() != 0 {
		t.Fatalf("cancel counted as a failed probe: Reopens = %d", b.Reopens())
	}
	b.Record("w", nil)
	if b.Tripped("w") {
		t.Fatal("circuit still open after successful re-armed probe")
	}
}

func TestBreakerOpenErrorDuringProbeKeepsProbe(t *testing.T) {
	// Feeding an ErrOpen outcome back (another stage of the same unit
	// rejected) must not consume or fail the in-flight probe.
	b := NewBreaker(1)
	b.SetCooldown(1)
	b.Record("w", errors.New("boom"))
	if err := b.Allow("w"); !errors.Is(err, ErrOpen) {
		t.Fatal("cooldown arrival not rejected")
	}
	if err := b.Allow("w"); err != nil {
		t.Fatalf("probe not granted: %v", err)
	}
	rejected := b.Allow("w")
	if !errors.Is(rejected, ErrOpen) {
		t.Fatal("second arrival not rejected during probe")
	}
	b.Record("w", rejected)
	b.Record("w", nil)
	if b.Tripped("w") {
		t.Fatal("probe lost to a fed-back open error")
	}
}
