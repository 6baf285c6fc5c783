package chaosnet

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestNewPlanDeterministic(t *testing.T) {
	a, b := NewPlan(7, 16, 64), NewPlan(7, 16, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := NewPlan(8, 16, 64)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical plans")
	}
	for _, f := range a.Faults {
		if f.Op >= 64 {
			t.Fatalf("fault %v outside window", f)
		}
		if f.Kind >= numKinds {
			t.Fatalf("fault %v has unknown kind", f)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("7:4:64")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Faults) != 4 {
		t.Fatalf("ParsePlan = %+v", p)
	}
	for _, bad := range []string{"", "x", "7:4", "7:-1:64"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestNewPlanKnownAnswer pins the expansion of one -net-faults spec:
// a chaos run must inject the same faults for the same seed forever.
func TestNewPlanKnownAnswer(t *testing.T) {
	want := []Fault{
		{Kind: Truncate, Op: 28},
		{Kind: HalfOpen, Op: 11},
		{Kind: HalfOpen, Op: 17},
		{Kind: HalfOpen, Op: 62},
		{Kind: Reset, Op: 41},
		{Kind: Truncate, Op: 44},
		{Kind: HalfOpen, Op: 48},
		{Kind: HalfOpen, Op: 56},
		{Kind: Truncate, Op: 7},
		{Kind: Reset, Op: 56},
		{Kind: Truncate, Op: 13},
		{Kind: Reset, Op: 63},
		{Kind: Latency, Op: 41},
		{Kind: HalfOpen, Op: 31},
		{Kind: Truncate, Op: 29},
		{Kind: Latency, Op: 44},
	}
	p := NewPlan(7, 16, 64)
	if p.Seed != 7 || !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("NewPlan(7, 16, 64) = seed %d %v\nwant seed 7 %v", p.Seed, p.Faults, want)
	}
}

// one builds an injector with a single planned fault at the given
// address.
func one(kind Kind, op uint64) *Injector {
	return New(&Plan{Faults: []Fault{{Kind: kind, Op: op}}}, nil)
}

func TestTransportReset(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	inj := one(Reset, 0)
	client := &http.Client{Transport: Transport(nil, inj)}
	_, err := client.Get(srv.URL)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reset round trip error = %v, want injected ECONNRESET", err)
	}
	if hits.Load() != 0 {
		t.Fatal("reset request reached the server")
	}
	// The address fired once: the retry goes through.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" || hits.Load() != 1 {
		t.Fatalf("retry = %q, hits = %d", body, hits.Load())
	}
	if inj.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", inj.Fired())
	}
}

// Half-open is the at-least-once trap: the server does the work, the
// client gets an error and cannot tell the difference from a lost
// request.
func TestTransportHalfOpen(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	client := &http.Client{Transport: Transport(nil, one(HalfOpen, 0))}
	_, err := client.Get(srv.URL)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("half-open error = %v, want injected", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1 (request must be delivered)", hits.Load())
	}
}

func TestTransportTruncate(t *testing.T) {
	big := make([]byte, 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(big)
	}))
	defer srv.Close()

	client := &http.Client{Transport: Transport(nil, one(Truncate, 0))}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read error = %v after %d bytes, want injected unexpected EOF", err, len(body))
	}
	if len(body) >= len(big) {
		t.Fatal("truncate delivered the whole body")
	}
}

func TestTransportLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	inj := one(Latency, 0)
	inj.Delay = time.Millisecond
	client := &http.Client{Transport: Transport(nil, inj)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("latency spike must not fail the round trip: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if inj.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", inj.Fired())
	}
}

// chaosServer serves HTTP through a fault-wrapped listener.
func chaosServer(t *testing.T, inj *Injector, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(Listen(ln, inj))
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

func TestListenerReset(t *testing.T) {
	var hits atomic.Int32
	url := chaosServer(t, one(Reset, 0), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))

	// Fresh connection per request so conn ordinals are predictable.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	if _, err := client.Get(url); err == nil {
		t.Fatal("reset connection served a response")
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("second connection: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1", hits.Load())
	}
}

func TestListenerHalfOpen(t *testing.T) {
	var hits atomic.Int32
	url := chaosServer(t, one(HalfOpen, 0), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))

	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   300 * time.Millisecond,
	}
	_, err := client.Get(url)
	if err == nil {
		t.Fatal("half-open connection delivered a response")
	}
	waitFor(t, func() bool { return hits.Load() == 1 })

	client.Timeout = 5 * time.Second
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("second connection: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if hits.Load() != 2 {
		t.Fatalf("hits = %d, want 2", hits.Load())
	}
}

func TestListenerTruncate(t *testing.T) {
	big := make([]byte, 4096)
	url := chaosServer(t, one(Truncate, 0), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(big)
	}))

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(url)
	if err == nil {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && len(body) >= len(big) {
			t.Fatal("truncate delivered the whole response")
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
