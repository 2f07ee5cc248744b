package mqe

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"fluxquery/internal/dtd"
	"fluxquery/internal/shared"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xsax"
)

// fakeConsumer records every batch it is fed; panicOn makes BeginFeed
// and endPanicOn makes EndFeed panic on the n-th call (1-based),
// modelling a consumer whose feed hooks blow up on the dispatcher
// goroutine.
type fakeConsumer struct {
	feeds      int
	panicOn    int
	acks       int
	endPanicOn int
	batches    []string
	closes     int
	cause      error
}

func (f *fakeConsumer) BeginFeed(evs []xsax.Event) {
	f.feeds++
	if f.panicOn > 0 && f.feeds == f.panicOn {
		panic("synthetic feed panic")
	}
	var b strings.Builder
	for i := range evs {
		fmt.Fprintf(&b, "%v:%s:%s;", evs[i].Kind, evs[i].Name, evs[i].Data)
	}
	f.batches = append(f.batches, b.String())
}
func (f *fakeConsumer) EndFeed() (bool, error) {
	f.acks++
	if f.endPanicOn > 0 && f.acks == f.endPanicOn {
		panic("synthetic ack panic")
	}
	return false, nil
}
func (f *fakeConsumer) Close(cause error) { f.closes++; f.cause = cause }

// TestEvalPoolPanicIsolation: a panic escaping one consumer's BeginFeed
// in the shared feed step fails that task alone, with the panic as its
// error; every sibling is fed and acknowledged as usual, and the step
// stays usable for the next batch over the healthy consumers, reusing
// its result storage.
func TestEvalPoolPanicIsolation(t *testing.T) {
	evs := make([]xsax.Event, 1)
	batch := func(int) []xsax.Event { return evs }

	bad := &fakeConsumer{panicOn: 1}
	goods := []*fakeConsumer{{}, {}, {}}
	tasks := []Consumer{bad, goods[0], goods[1], goods[2]}
	res := feedAll(tasks, batch, nil)

	if len(res) != len(tasks) {
		t.Fatalf("%d results for %d tasks", len(res), len(tasks))
	}
	if !res[0].done || res[0].err == nil || !strings.Contains(res[0].err.Error(), "panic") {
		t.Fatalf("panicking task result = %+v, want done with panic error", res[0])
	}
	if bad.acks != 0 {
		t.Errorf("panicking task acknowledged %d times, want 0", bad.acks)
	}
	for i, g := range goods {
		if r := res[i+1]; r.done || r.err != nil {
			t.Errorf("sibling %d result = %+v, want live", i, r)
		}
		if g.feeds != 1 || g.acks != 1 {
			t.Errorf("sibling %d: %d feeds, %d acks; want 1 and 1", i, g.feeds, g.acks)
		}
	}

	res = feedAll([]Consumer{goods[0], goods[1], goods[2]}, batch, res)
	if len(res) != len(goods) {
		t.Fatalf("follow-up batch: %d results for %d tasks", len(res), len(goods))
	}
	for i, g := range goods {
		if res[i].done || res[i].err != nil {
			t.Errorf("follow-up batch task %d: %+v", i, res[i])
		}
		if g.feeds != 2 || g.acks != 2 {
			t.Errorf("consumer %d: %d feeds, %d acks; want 2 and 2", i, g.feeds, g.acks)
		}
	}
}

// TestEvalPoolPanicMidStripe: a panic in the middle of a batch — in one
// task's BeginFeed and in another's EndFeed — fails exactly those two
// tasks; the tasks begun before and after them still receive their own
// batch and are acknowledged.
func TestEvalPoolPanicMidStripe(t *testing.T) {
	batches := make([][]xsax.Event, 8)
	consumers := make([]Consumer, 8)
	fakes := make([]*fakeConsumer, 8)
	for i := range consumers {
		batches[i] = []xsax.Event{{Kind: xmltok.Text, Data: []byte(fmt.Sprint(i))}}
		fakes[i] = &fakeConsumer{}
		consumers[i] = fakes[i]
	}
	fakes[3].panicOn = 1
	fakes[5].endPanicOn = 1
	res := feedAll(consumers, func(i int) []xsax.Event { return batches[i] }, nil)

	for i, f := range fakes {
		failed := i == 3 || i == 5
		if res[i].done != failed || (res[i].err != nil) != failed {
			t.Errorf("task %d result = %+v, want failed=%v", i, res[i], failed)
		}
		if failed {
			if !strings.Contains(res[i].err.Error(), "panic") {
				t.Errorf("task %d failed with non-panic error: %v", i, res[i].err)
			}
			continue
		}
		if f.acks != 1 || len(f.batches) != 1 || !strings.HasSuffix(f.batches[0], ":"+fmt.Sprint(i)+";") {
			t.Errorf("task %d: %d acks, batches %q; want its own batch, acknowledged once", i, f.acks, f.batches)
		}
	}
	if fakes[3].acks != 0 {
		t.Errorf("task that panicked in BeginFeed was acknowledged %d times", fakes[3].acks)
	}
}

// TestDispatcherContract: in every pass kind — sequential and pipelined,
// whole-batch fanout and trie routing, over a valid and a truncated
// document — a consumer whose feed hook panics is closed once with the
// panic, every sibling receives the same batches in order and is closed
// with the stream's terminal status, and the pass returns the stream's
// error, never the panic.
func TestDispatcherContract(t *testing.T) {
	d := dtd.MustParse(weakBib)
	valid := bibDoc(40)
	docs := map[string]string{"valid": valid, "truncated": valid[:len(valid)/2]}
	auto := plan(t, q3, d).ProjAutomaton()
	for _, par := range []int{1, 2} {
		for _, mode := range []DispatchMode{DispatchFanout, DispatchTrie} {
			for _, doc := range []string{"valid", "truncated"} {
				t.Run(fmt.Sprintf("parallel=%d/%v/%s", par, mode, doc), func(t *testing.T) {
					src := docs[doc]
					_, _, streamErr := (&Dispatcher{DTD: d}).RunScanPass(strings.NewReader(src), nil)
					if (streamErr == nil) != (doc == "valid") {
						t.Fatalf("validation pass error = %v", streamErr)
					}

					bad := &fakeConsumer{panicOn: 2}
					sibs := []*fakeConsumer{{}, {}, {}}
					cons := []Consumer{sibs[0], bad, sibs[1], sibs[2]}
					disp := &Dispatcher{DTD: d, BatchEvents: 7, Parallel: par}
					if mode == DispatchTrie {
						reqs := make([]shared.PlanReq, len(cons))
						for i := range reqs {
							reqs[i] = shared.PlanReq{Auto: auto, NeedShells: true}
						}
						disp.Trie = shared.Build(reqs, len(d.IDNames()))
					}
					_, _, err := disp.RunScanPass(strings.NewReader(src), cons)

					if fmt.Sprint(err) != fmt.Sprint(streamErr) {
						t.Errorf("pass error = %v, want the stream's %v", err, streamErr)
					}
					if bad.closes != 1 || bad.cause == nil || !strings.Contains(bad.cause.Error(), "panic") {
						t.Errorf("panicking consumer: %d closes, cause %v; want one close with the panic", bad.closes, bad.cause)
					}
					if bad.feeds != 2 {
						t.Errorf("panicking consumer fed %d times after detaching, want 2 feeds", bad.feeds)
					}
					want := streamErr
					if want == nil {
						want = io.EOF
					}
					for i, s := range sibs {
						if s.closes != 1 || fmt.Sprint(s.cause) != fmt.Sprint(want) {
							t.Errorf("sibling %d: %d closes, cause %v; want one close with %v", i, s.closes, s.cause, want)
						}
						if len(s.batches) < 2 || !slices.Equal(s.batches, sibs[0].batches) {
							t.Errorf("sibling %d saw %d batches, sibling 0 saw %d; want the same batches in order",
								i, len(s.batches), len(sibs[0].batches))
						}
					}
					if mode == DispatchFanout && doc == "valid" {
						if got, all := strings.Join(sibs[0].batches, ""), eventTrace(t, d, src); got != all {
							t.Errorf("fanout siblings did not receive the full event stream")
						}
					}
				})
			}
		}
	}
}

// eventTrace renders a valid document's validated event stream in the
// fakeConsumer's batch format.
func eventTrace(t *testing.T, d *dtd.DTD, doc string) string {
	t.Helper()
	var b strings.Builder
	xr := xsax.NewReader(strings.NewReader(doc), d)
	for {
		ev, err := xr.NextEvent()
		if err == io.EOF {
			return b.String()
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%v:%s:%s;", ev.Kind, ev.Name, ev.Data)
	}
}
