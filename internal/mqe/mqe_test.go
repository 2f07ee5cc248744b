package mqe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"fluxquery/internal/baseline"
	"fluxquery/internal/core"
	"fluxquery/internal/dtd"
	"fluxquery/internal/nf"
	"fluxquery/internal/runtime"
	"fluxquery/internal/xquery"
	"fluxquery/internal/xsax"
)

const weakBib = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`

const q3 = `<results>{ for $b in $ROOT/bib/book return <result>{ $b/title }{ $b/author }</result> }</results>`
const qTitles = `<titles>{ for $b in $ROOT/bib/book return <t>{ $b/title }</t> }</titles>`

func plan(t *testing.T, src string, d *dtd.DTD) *runtime.Plan {
	t.Helper()
	n, err := nf.Normalize(xquery.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.Schedule(n, d)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runtime.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// naive evaluates src over doc with the in-memory reference engine.
func naive(t *testing.T, src string, d *dtd.DTD, doc string) string {
	t.Helper()
	n, err := nf.Normalize(xquery.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := baseline.RunNaive(n, d, strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// alone runs src as the only plan of a shared pass over doc.
func alone(t *testing.T, src string, d *dtd.DTD, doc string) runtime.Stats {
	t.Helper()
	s := NewSet(d)
	sub, err := s.Register(plan(t, src, d), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	st, err := sub.Result()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func bibDoc(books int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&b, "<book><title>T%d</title><author>A%d</author></book>", i, i)
	}
	b.WriteString("</bib>")
	return b.String()
}

func TestSetMatchesSingleQueryRuns(t *testing.T) {
	d := dtd.MustParse(weakBib)
	doc := bibDoc(50)
	queries := []string{q3, qTitles, q3}

	s := NewSet(d)
	outs := make([]*bytes.Buffer, len(queries))
	subs := make([]*Sub, len(queries))
	for i, q := range queries {
		outs[i] = &bytes.Buffer{}
		sub, err := s.Register(plan(t, q, d), outs[i])
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	if err := s.Run(strings.NewReader(doc)); err != nil {
		t.Fatalf("shared run: %v", err)
	}
	for i, q := range queries {
		if want := naive(t, q, d, doc); outs[i].String() != want {
			t.Errorf("query %d: shared output differs from the reference engine\nshared: %q\nnaive:  %q",
				i, outs[i].String(), want)
		}
		wantSt := alone(t, q, d, doc)
		st, err := subs[i].Result()
		if err != nil {
			t.Errorf("query %d: result error: %v", i, err)
		}
		// Events and the Scan* counters legitimately differ: the shared
		// pass projects with the union of all riding plans' path-sets (a
		// plan may see events only a neighbour needs, and scan stats are
		// pass-level, reported via Set.LastScan). Everything the plan
		// computes from the events must match exactly.
		if st.PeakBufferBytes != wantSt.PeakBufferBytes ||
			st.BufferedBytesTotal != wantSt.BufferedBytesTotal ||
			st.BufferedNodes != wantSt.BufferedNodes ||
			st.OutputBytes != wantSt.OutputBytes ||
			st.HandlerFirings != wantSt.HandlerFirings {
			t.Errorf("query %d: stats differ: shared %+v single %+v", i, st, wantSt)
		}
	}
	if sc, passes := s.LastScan(); passes != 1 || sc.EventsDelivered == 0 {
		t.Errorf("LastScan = %+v after %d passes, want 1 pass with deliveries", sc, passes)
	}
}

func TestSetRepeatedRuns(t *testing.T) {
	d := dtd.MustParse(weakBib)
	s := NewSet(d)
	var out bytes.Buffer
	if _, err := s.Register(plan(t, q3, d), &out); err != nil {
		t.Fatal(err)
	}
	first := ""
	for i := 0; i < 3; i++ {
		out.Reset()
		if err := s.Run(strings.NewReader(bibDoc(10))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}

func TestRegisterRejectsForeignDTD(t *testing.T) {
	d := dtd.MustParse(weakBib)
	other := dtd.MustParse(`<!ELEMENT lib (item)*> <!ELEMENT item (#PCDATA)>`)
	s := NewSet(d)
	if _, err := s.Register(plan(t, `<r>{ for $i in $ROOT/lib/item return <i>{ $i }</i> }</r>`, other), io.Discard); err == nil {
		t.Fatal("plan under a different DTD registered without error")
	}
	// A structurally identical re-parse of the same DTD is accepted.
	if _, err := s.Register(plan(t, q3, dtd.MustParse(weakBib)), io.Discard); err != nil {
		t.Fatalf("equivalent DTD rejected: %v", err)
	}
}

// failAfter fails with io.ErrClosedPipe once n bytes have been written.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestConsumerFailureIsIsolated(t *testing.T) {
	d := dtd.MustParse(weakBib)
	doc := bibDoc(2000) // enough output to overflow the writer buffer mid-stream
	s := NewSet(d)
	bad, err := s.Register(plan(t, q3, d), &failAfter{n: 64})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	good, err := s.Register(plan(t, q3, d), &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(strings.NewReader(doc)); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if _, err := bad.Result(); err == nil {
		t.Error("failing writer not reported on its sub")
	}
	goodSt, err := good.Result()
	if err != nil {
		t.Errorf("healthy sub disturbed by failing neighbour: %v", err)
	}
	// The failed writer stops its plan mid-stream, not at the end.
	if badSt, _ := bad.Result(); badSt.Events >= goodSt.Events {
		t.Errorf("failed plan consumed %d events, healthy plan %d: failure did not stop it",
			badSt.Events, goodSt.Events)
	}
	if out.String() != naive(t, q3, d, doc) {
		t.Error("healthy sub output corrupted by failing neighbour")
	}
}

func TestStreamErrorReachesEverySub(t *testing.T) {
	d := dtd.MustParse(weakBib)
	s := NewSet(d)
	subs := make([]*Sub, 3)
	for i := range subs {
		sub, err := s.Register(plan(t, q3, d), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	err := s.Run(strings.NewReader(`<bib><book><title>T</title><broken`))
	if err == nil {
		t.Fatal("malformed stream not reported by Run")
	}
	for i, sub := range subs {
		if _, serr := sub.Result(); serr == nil {
			t.Errorf("sub %d: stream error not recorded", i)
		}
	}
}

func TestUnregisterDetachesMidStream(t *testing.T) {
	d := dtd.MustParse(weakBib)
	s := NewSet(d)
	var out bytes.Buffer
	sub, err := s.Register(plan(t, q3, d), &out)
	if err != nil {
		t.Fatal(err)
	}
	sub.Unregister()
	if s.Len() != 0 {
		t.Fatalf("Len after unregister = %d", s.Len())
	}
	// A snapshot taken before the unregister aborts at the first batch.
	sub2, err := s.Register(plan(t, q3, d), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Remove while the run drives; either the run sees the removal at
		// a batch boundary (ErrUnregistered) or completes first.
		sub2.Unregister()
	}()
	if err := s.Run(strings.NewReader(bibDoc(500))); err != nil {
		t.Fatal(err)
	}
	if _, rerr := sub2.Result(); rerr != nil && !errors.Is(rerr, ErrUnregistered) && !errors.Is(rerr, ErrNotRun) {
		t.Errorf("unexpected result error: %v", rerr)
	}
}

func TestRunWithZeroSubsValidates(t *testing.T) {
	d := dtd.MustParse(weakBib)
	s := NewSet(d)
	if err := s.Run(strings.NewReader(bibDoc(3))); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	if err := s.Run(strings.NewReader(`<bib><pamphlet/></bib>`)); err == nil {
		t.Fatal("invalid doc accepted")
	}
}

func TestConcurrentRegisterUnregisterDuringRuns(t *testing.T) {
	d := dtd.MustParse(weakBib)
	doc := bibDoc(300)
	s := NewSet(d)
	p := plan(t, q3, d)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := s.Register(p, io.Discard)
				if err != nil {
					t.Error(err)
					return
				}
				sub.Unregister()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := s.Run(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestDispatcherBatchOwnership(t *testing.T) {
	// A consumer that records everything it sees, copying eagerly, must
	// observe the exact validated event stream.
	d := dtd.MustParse(weakBib)
	doc := bibDoc(20)
	var got []string
	rec := &recorder{onEvent: func(ev *xsax.Event) {
		got = append(got, fmt.Sprintf("%v:%s:%s", ev.Kind, ev.Name, ev.Data))
	}}
	disp := &Dispatcher{DTD: d, BatchEvents: 7} // force many small batches
	if _, _, err := disp.RunScanPass(strings.NewReader(doc), []Consumer{rec}); err != nil {
		t.Fatal(err)
	}
	var want []string
	xr := xsax.NewReader(strings.NewReader(doc), d)
	for {
		ev, err := xr.NextEvent()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%v:%s:%s", ev.Kind, ev.Name, ev.Data))
	}
	if len(got) != len(want) {
		t.Fatalf("event count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %q want %q", i, got[i], want[i])
		}
	}
	if !rec.closed {
		t.Error("recorder not closed")
	}
}

// recorder is a minimal Consumer for dispatcher-level tests.
type recorder struct {
	onEvent func(*xsax.Event)
	pending []xsax.Event
	closed  bool
}

func (r *recorder) BeginFeed(evs []xsax.Event) { r.pending = evs }
func (r *recorder) EndFeed() (bool, error) {
	for i := range r.pending {
		r.onEvent(&r.pending[i])
	}
	r.pending = nil
	return false, nil
}
func (r *recorder) Close(cause error) { r.closed = true }

// TestConcurrentRunsAreSerialized: concurrent Run calls on one Set must
// not interleave on a subscription's writer (run under -race).
func TestConcurrentRunsAreSerialized(t *testing.T) {
	d := dtd.MustParse(weakBib)
	doc := bibDoc(200)
	s := NewSet(d)
	var out bytes.Buffer
	if _, err := s.Register(plan(t, q3, d), &out); err != nil {
		t.Fatal(err)
	}
	want := naive(t, q3, d, doc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := s.Run(strings.NewReader(doc)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	// 20 serialized passes appended 20 intact copies of the result.
	if got := out.String(); got != strings.Repeat(want, 20) {
		t.Errorf("interleaved or corrupted output across concurrent runs (%d bytes)", len(got))
	}
}

// TestResolveParallel: 0 follows GOMAXPROCS, explicit settings are kept,
// and a negative setting is the sequential pass.
func TestResolveParallel(t *testing.T) {
	for _, procs := range []int{1, 4} {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		auto := 1
		if procs >= 2 {
			auto = procs
		}
		for _, c := range []struct{ in, want int }{
			{0, auto}, {1, 1}, {2, 2}, {8, 8}, {-1, 1}, {-8, 1},
		} {
			if got := ResolveParallel(c.in); got != c.want {
				t.Errorf("GOMAXPROCS %d: ResolveParallel(%d) = %d, want %d", procs, c.in, got, c.want)
			}
		}
	}
}
