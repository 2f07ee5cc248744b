package fluxquery

import (
	"bytes"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"fluxquery/internal/xmlgen"
)

// TestFlightRecorderDifferential: recorder-on (slow capture armed, so
// every pass builds a span tree) and recorder-off runs must produce
// byte-identical outputs, across sequential and pipelined passes and
// both dispatch modes. Run under -race in CI.
func TestFlightRecorderDifferential(t *testing.T) {
	d, err := ParseDTD(xmlgen.WeakBibDTD)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{paperQuery, paperQuery}
	doc := telemetryDoc(400)

	run := func(instrument bool, parallel int, disp Dispatch) []string {
		set := NewStreamSet(d)
		set.SetParallel(parallel)
		set.SetDispatch(disp)
		if instrument {
			rec := NewFlightRecorder(FlightRecorderConfig{
				Size:        16,
				SlowLatency: time.Nanosecond, // every pass trips capture
				Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			set.SetRecorder(rec)
			set.SetLedger(NewQueryLedger())
			set.SetRequestID("diff")
		}
		outs := make([]*bytes.Buffer, len(queries))
		for i, q := range queries {
			outs[i] = &bytes.Buffer{}
			p := MustCompile(q, xmlgen.WeakBibDTD, Options{})
			if _, err := set.Register(p, outs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < 2; pass++ {
			if err := set.Run(strings.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}
		res := make([]string, len(outs))
		for i, b := range outs {
			res[i] = b.String()
		}
		if instrument {
			if got := int(set.Recorder().Total()); got != 2 {
				t.Fatalf("recorder total = %d, want 2", got)
			}
		}
		return res
	}

	for _, cfg := range []struct {
		parallel int
		disp     Dispatch
	}{{1, DispatchFanout}, {1, DispatchTrie}, {4, DispatchFanout}, {4, DispatchTrie}} {
		off := run(false, cfg.parallel, cfg.disp)
		on := run(true, cfg.parallel, cfg.disp)
		for i := range off {
			if off[i] != on[i] {
				t.Errorf("parallel=%d dispatch=%v query %d: recorder-on output differs from recorder-off",
					cfg.parallel, cfg.disp, i)
			}
			if off[i] == "" {
				t.Errorf("parallel=%d dispatch=%v query %d: empty output", cfg.parallel, cfg.disp, i)
			}
		}
	}
}

// TestStreamSetRecorderAndLedger exercises the public observability
// surface end to end: records land in the recorder with the request id,
// rollups aggregate them, and the ledger attributes cost by name.
func TestStreamSetRecorderAndLedger(t *testing.T) {
	d, err := ParseDTD(xmlgen.WeakBibDTD)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewFlightRecorder(FlightRecorderConfig{Size: 8})
	led := NewQueryLedger()
	set := NewStreamSet(d)
	set.SetRecorder(rec)
	set.SetLedger(led)
	set.SetRequestID("api-req")
	if set.Recorder() != rec || set.Ledger() != led {
		t.Fatal("getters did not return the installed handles")
	}

	p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{})
	sq, err := set.RegisterNamed(p, io.Discard, "books")
	if err != nil {
		t.Fatal(err)
	}
	doc := telemetryDoc(100)
	for i := 0; i < 3; i++ {
		if err := set.Run(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}

	if rec.Len() != 3 || rec.Cap() != 8 || rec.Total() != 3 {
		t.Fatalf("recorder Len/Cap/Total = %d/%d/%d", rec.Len(), rec.Cap(), rec.Total())
	}
	r := rec.Snapshot(1)[0]
	if r.RequestID != "api-req" || r.Plans != 1 || r.InputBytes != int64(len(doc)) {
		t.Fatalf("latest record = %+v", r)
	}
	st, err := sq.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rec.Get(st.PassID); !ok || got.PassID != st.PassID {
		t.Fatalf("Get(%d) = %+v, %v", st.PassID, got, ok)
	}
	ru := rec.Rollup(0)
	if ru.Passes != 3 || ru.Errors != 0 || ru.P50 <= 0 {
		t.Fatalf("rollup = %+v", ru)
	}

	qs, ok := led.Get("books")
	if !ok || qs.Passes != 3 || qs.EvalCPU <= 0 || qs.Events <= 0 {
		t.Fatalf("ledger entry = %+v, %v", qs, ok)
	}
	for _, axis := range LedgerAxes() {
		top, err := led.TopK(axis, 1)
		if err != nil || len(top) != 1 || top[0].Name != "books" {
			t.Fatalf("TopK(%q) = %+v, %v", axis, top, err)
		}
	}
	if _, err := led.TopK("nope", 1); err == nil {
		t.Fatal("unknown axis accepted")
	}

	// Nil handles are inert.
	var nilRec *FlightRecorder
	var nilLed *QueryLedger
	if nilRec.Len() != 0 || nilRec.Snapshot(1) != nil || nilLed.Len() != 0 || nilLed.Stats() != nil {
		t.Fatal("nil handles reported state")
	}
	if ru := nilRec.Rollup(time.Minute); ru.Passes != 0 {
		t.Fatal("nil rollup")
	}
	nilLed.Reset()
	set.SetRecorder(nil)
	set.SetLedger(nil)
	if err := set.Run(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 3 {
		t.Fatal("detached recorder still received records")
	}
}
