package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeServe builds a stand-in fluxserve serving canned observability
// documents; recorderOff serves /debug/passes as fluxserve does with
// -flightrec 0.
func fakeServe(t *testing.T, recorderOff bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{
			"state": "serving",
			"build": {"version": "v1.2.3", "go_version": "go1.22.0", "revision": "abcdef123456"},
			"uptime_seconds": 95,
			"evals": 7,
			"pool": {"capacity": 8, "in_flight": 2, "rejected": 1}
		}`))
	})
	mux.HandleFunc("GET /debug/passes", func(w http.ResponseWriter, r *http.Request) {
		if recorderOff {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error": "flight recorder disabled (-flightrec 0)", "code": "RECORDER_OFF"}`))
			return
		}
		w.Write([]byte(`{
			"total": 7, "retained": 3, "capacity": 256,
			"rollups": {
				"1m":  {"passes": 2, "errors": 0, "slow": 1, "mbps": 12.5, "p50_ns": 800000, "p95_ns": 2000000, "p99_ns": 2000000, "max_ns": 2000000, "stall_total_ns": 150000},
				"5m":  {"passes": 3, "errors": 1, "slow": 1, "mbps": 11.0, "p50_ns": 900000, "p95_ns": 2100000, "p99_ns": 2100000, "max_ns": 2100000, "stall_total_ns": 200000},
				"all": {"passes": 3, "errors": 1, "slow": 1, "mbps": 11.0, "p50_ns": 900000, "p95_ns": 2100000, "p99_ns": 2100000, "max_ns": 2100000, "stall_total_ns": 200000}
			},
			"passes": [
				{"pass_id": 42, "request_id": "req-latest", "start": "2026-08-08T10:00:02Z", "duration_ns": 1500000,
				 "plans": 2, "input_bytes": 4096, "events": 900, "batches": 4, "mbps": 12.5,
				 "scan_stall_ns": 100000, "dispatch_stall_ns": 50000},
				{"pass_id": 41, "request_id": "req-slow", "start": "2026-08-08T10:00:01Z", "duration_ns": 2000000,
				 "plans": 2, "input_bytes": 4096, "events": 900, "mbps": 9.0, "slow": true},
				{"pass_id": 40, "request_id": "req-bad", "start": "2026-08-08T10:00:00Z", "duration_ns": 500000,
				 "plans": 2, "input_bytes": 1024, "events": 100, "mbps": 2.0,
				 "error": "malformed document", "plan_errors": 1, "cancel_reason": "deadline"}
			]
		}`))
	})
	mux.HandleFunc("GET /top", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("axis") != "cpu" {
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(`{"error": "unknown axis", "code": "BAD_REQUEST"}`))
			return
		}
		w.Write([]byte(`{
			"axis": "cpu", "axes": ["buffer", "bytes", "cpu", "errors", "events", "passes"],
			"queries": [
				{"name": "expensive-query", "passes": 3, "errors": 1, "eval_cpu_ns": 4500000, "events": 2700, "output_bytes": 300000, "peak_buffer_bytes": 65536},
				{"name": "cheap", "passes": 3, "eval_cpu_ns": 900000, "events": 300, "output_bytes": 2048, "peak_buffer_bytes": 512}
			]
		}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestOnceSnapshot: -once renders every dashboard section from the
// polled documents, with no terminal control sequences.
func TestOnceSnapshot(t *testing.T) {
	ts := fakeServe(t, false)
	var out strings.Builder
	if err := run(context.Background(), &out, ts.URL, "cpu", 10, 10, time.Second, true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "\x1b[") {
		t.Error("-once output carries terminal control sequences")
	}
	for _, want := range []string{
		"state=serving",
		"v1.2.3 (go1.22.0, rev abcdef123456)",
		"evals=7",
		"2/8 in flight, 1 rejected",
		"passes total=7 retained=3/256",
		"top queries by cpu",
		"expensive-query",
		"req-latest",
		"req-slow",
		"SLOW",
		"ERR malformed document",
		"(deadline)",
		"scan",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("snapshot lacks %q:\n%s", want, got)
		}
	}
	// Slow/failed passes lead the recent-passes list.
	if strings.Index(got, "req-slow") > strings.Index(got, "req-latest") {
		t.Error("slow pass not surfaced before clean passes")
	}
}

// TestRecorderOffDegrades: a server with -flightrec 0 still renders;
// the pass sections are replaced by a notice.
func TestRecorderOffDegrades(t *testing.T) {
	ts := fakeServe(t, true)
	var out strings.Builder
	if err := run(context.Background(), &out, ts.URL, "cpu", 10, 10, time.Second, true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "flight recorder disabled") {
		t.Errorf("no degradation notice:\n%s", got)
	}
	if !strings.Contains(got, "top queries by cpu") {
		t.Errorf("ledger section missing despite recorder off:\n%s", got)
	}
}

// TestBadAxisFails: an axis the server rejects is a fatal error in
// -once mode (scripts must see the failure).
func TestBadAxisFails(t *testing.T) {
	ts := fakeServe(t, false)
	err := run(context.Background(), &strings.Builder{}, ts.URL, "bogus", 10, 10, time.Second, true)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad axis error = %v", err)
	}
}

// TestLiveModeRedraws: live mode emits clear sequences and stops on
// context cancellation.
func TestLiveModeRedraws(t *testing.T) {
	ts := fakeServe(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	var mu syncWriter
	done := make(chan error, 1)
	go func() { done <- run(ctx, &mu, ts.URL, "cpu", 10, 10, 10*time.Millisecond, false) }()

	deadline := time.Now().Add(2 * time.Second)
	for mu.frames() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no redraw within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not stop on cancel")
	}
	if !strings.Contains(mu.String(), "\x1b[H\x1b[2J") {
		t.Error("live mode never cleared the screen")
	}
}

// syncWriter is a goroutine-safe writer counting rendered frames.
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func (w *syncWriter) frames() int {
	return strings.Count(w.String(), "\x1b[H\x1b[2J")
}

func TestBarAndFormatters(t *testing.T) {
	if got := bar(0.5, 4); got != "██░░" {
		t.Errorf("bar(0.5, 4) = %q", got)
	}
	if got := bar(-1, 3); got != "░░░" {
		t.Errorf("bar(-1, 3) = %q", got)
	}
	if got := bar(2, 3); got != "███" {
		t.Errorf("bar(2, 3) = %q", got)
	}
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0"}, {500 * time.Microsecond, "500µs"}, {2500 * time.Microsecond, "2.5ms"},
		{1500 * time.Millisecond, "1.50s"}, {90 * time.Second, "1m30s"},
	} {
		if got := fmtDur(tc.d); got != tc.want {
			t.Errorf("fmtDur(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{512, "512B"}, {2048, "2.0KiB"}, {3 << 20, "3.0MiB"}, {5 << 30, "5.00GiB"},
	} {
		if got := fmtBytes(tc.n); got != tc.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
