package fluxquery

// Differential tests of the pipelined pass: by default on a multi-core
// host, or with Options.Parallel (StreamSet.SetParallel) >= 2, the
// validating reader runs on its own goroutine, a bounded batch ring
// ahead of the dispatcher — but the output must stay byte-
// identical to the sequential pass on every corpus query, and error
// semantics (validity errors, tag imbalance, projection trade-offs)
// must be preserved event-for-event. These are the tentpole's primary
// acceptance tests; run them with -race.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"fluxquery/internal/mqe"
	"fluxquery/internal/workload"
)

// TestParallelDefault: with no override, a pass pipelines when
// GOMAXPROCS >= 2 and runs sequentially on one P, for a single plan and
// for a fresh StreamSet alike.
func TestParallelDefault(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	var doc bytes.Buffer
	if err := c.Gen(&doc, 20_000, 1); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pipelined := procs >= 2

			p := MustCompile(c.Query, c.DTD, Options{})
			_, tr, err := p.ExecuteTrace(bytes.NewReader(doc.Bytes()), io.Discard, "default")
			if err != nil {
				t.Fatal(err)
			}
			if got := hasSpan(tr.Root, "read"); got != pipelined {
				t.Errorf("Options{}: read stage span = %v, want %v", got, pipelined)
			}

			set := NewStreamSet(d)
			for i := 0; i <= procs; i++ {
				if _, err := set.Register(p, io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			if err := set.Run(bytes.NewReader(doc.Bytes())); err != nil {
				t.Fatal(err)
			}
			want := 0 // sequential passes report no pipeline metrics
			if pipelined {
				want = procs
			}
			if got := set.LastPass().Parallel; got != want {
				t.Errorf("fresh StreamSet: LastPass().Parallel = %d, want %d", got, want)
			}
		})
	}
}

// TestParallelOnePlanReportsPipeline: a pipelined pass riding a single
// plan reports its Parallel setting and emits the read stage span,
// exactly as a pass with many plans does.
func TestParallelOnePlanReportsPipeline(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	var doc bytes.Buffer
	if err := c.Gen(&doc, 20_000, 1); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	for _, dispatch := range []Dispatch{DispatchFanout, DispatchTrie} {
		set := NewStreamSet(d)
		set.SetParallel(2)
		set.SetDispatch(dispatch)
		set.SetTracing(true, "")
		if _, err := set.Register(MustCompile(c.Query, c.DTD, Options{}), io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := set.Run(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
		if ps := set.LastPass(); ps.Parallel != 2 || ps.Batches == 0 {
			t.Errorf("dispatch %v: LastPass() = %+v, want Parallel 2 and batches", dispatch, ps)
		}
		tr := set.LastTrace()
		if tr == nil || !hasSpan(tr.Root, "read") {
			t.Errorf("dispatch %v: trace lacks the read stage span", dispatch)
		}
	}
}

// hasSpan reports whether the span tree below s holds a span named name.
func hasSpan(s *TraceSpan, name string) bool {
	if s.Name == name {
		return true
	}
	for _, c := range s.Children {
		if hasSpan(c, name) {
			return true
		}
	}
	return false
}

// chunkings are the input shapes the corpus differential reads through:
// the whole document, one byte per Read, and half of every Read.
var chunkings = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// TestParallelDifferentialCorpus: for every workload case, projection
// mode and input chunking, pipelined and sequential execution are
// byte-identical to sequential execution over the whole document, with
// identical buffer accounting and scan counters.
func TestParallelDifferentialCorpus(t *testing.T) {
	for _, c := range workload.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var doc bytes.Buffer
			if err := c.Gen(&doc, 20_000, 1); err != nil {
				t.Fatal(err)
			}
			for _, m := range projModes {
				seq := MustCompile(c.Query, c.DTD, Options{Projection: m, Parallel: 1})
				par := MustCompile(c.Query, c.DTD, Options{Projection: m, Parallel: 4})
				want, wantSt, err := seq.ExecuteString(doc.String())
				if err != nil {
					t.Fatalf("proj=%v sequential: %v", m, err)
				}
				for _, ch := range chunkings {
					for _, p := range []*Plan{seq, par} {
						var out bytes.Buffer
						gotSt, err := p.Execute(ch.wrap(bytes.NewReader(doc.Bytes())), &out)
						if err != nil {
							t.Fatalf("proj=%v %s parallel=%v: %v", m, ch.name, p == par, err)
						}
						if got := out.String(); got != want {
							t.Fatalf("proj=%v %s parallel=%v: output differs from sequential whole-input\ngot:  %.200s\nwant: %.200s",
								m, ch.name, p == par, got, want)
						}
						if gotSt.PeakBufferBytes != wantSt.PeakBufferBytes ||
							gotSt.HandlerFirings != wantSt.HandlerFirings ||
							gotSt.Events != wantSt.Events {
							t.Errorf("proj=%v %s parallel=%v: accounting diverged: %+v vs %+v",
								m, ch.name, p == par, gotSt, wantSt)
						}
						if gotSt.ScanEventsDelivered != wantSt.ScanEventsDelivered ||
							gotSt.ScanEventsSkipped != wantSt.ScanEventsSkipped ||
							gotSt.ScanSubtreesSkipped != wantSt.ScanSubtreesSkipped ||
							gotSt.ScanBytesSkipped != wantSt.ScanBytesSkipped {
							t.Errorf("proj=%v %s parallel=%v: scan counters diverged: %+v vs %+v",
								m, ch.name, p == par, gotSt, wantSt)
						}
					}
				}
			}
		})
	}
}

// TestParallelStreamSetDifferential: all 8 XMark streaming queries ride
// one parallel shared pass; every plan's output must be byte-identical
// to the sequential shared pass, and the pass must report pipeline
// metrics.
func TestParallelStreamSetDifferential(t *testing.T) {
	var xmark []*workload.Case
	for i := range workload.Cases {
		if strings.HasPrefix(workload.Cases[i].Name, "xmark-") {
			xmark = append(xmark, &workload.Cases[i])
		}
	}
	if len(xmark) != 8 {
		t.Fatalf("expected 8 xmark queries, got %d", len(xmark))
	}
	var doc bytes.Buffer
	if err := xmark[0].Gen(&doc, 150_000, 11); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(xmark[0].DTD)
	if err != nil {
		t.Fatal(err)
	}

	run := func(m Projection, parallel int) []string {
		set := NewStreamSet(d)
		set.SetParallel(parallel)
		set.SetProjection(m)
		outs := make([]*bytes.Buffer, len(xmark))
		for i, c := range xmark {
			outs[i] = &bytes.Buffer{}
			if _, err := set.Register(MustCompile(c.Query, c.DTD, Options{}), outs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.Run(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatalf("proj=%v parallel=%d: %v", m, parallel, err)
		}
		res := make([]string, len(outs))
		for i, o := range outs {
			res[i] = o.String()
		}
		if parallel >= 2 {
			ps := set.LastPass()
			if ps.Parallel < 2 || ps.Batches == 0 {
				t.Errorf("proj=%v parallel=%d: missing pipeline metrics: %+v", m, parallel, ps)
			}
		}
		return res
	}

	for _, m := range projModes {
		want := run(m, 1)
		for _, n := range []int{2, 4, 8} {
			got := run(m, n)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("proj=%v parallel=%d: %s diverges from sequential shared pass",
						m, n, xmark[i].Name)
				}
			}
		}
	}
}

// TestParallelErrorSemantics mirrors the projection error-trade-off
// tests under pipelined execution: a validity error buried inside a
// pruned subtree is caught by validate/off and traded away by fast,
// while tag imbalance is caught by every mode.
func TestParallelErrorSemantics(t *testing.T) {
	const dtdSrc = `<!ELEMENT bib (book)*>
<!ELEMENT book (title,extra)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT extra (note)*>
<!ELEMENT note (#PCDATA)>`
	const query = `<t>{ for $b in $ROOT/bib/book return { $b/title } }</t>`
	const invalid = `<bib><book><title>T</title><extra><wrong/></extra></book></bib>`
	const unbalanced = `<bib><book><title>T</title><extra><note></extra></book></bib>`

	for _, m := range projModes {
		p := MustCompile(query, dtdSrc, Options{Projection: m, Parallel: 4})
		_, _, err := p.ExecuteString(invalid)
		if m == ProjectionFast {
			if err != nil {
				t.Errorf("fast: expected the invalid-but-balanced interior to be traded away, got %v", err)
			}
		} else if err == nil {
			t.Errorf("proj=%v: undeclared element inside skipped region not reported", m)
		}
		if _, _, err := p.ExecuteString(unbalanced); err == nil {
			t.Errorf("proj=%v: tag imbalance inside skipped region not reported", m)
		}
	}

	// Error strings must match the sequential pass exactly (same line,
	// same message): run a buried validity error through both.
	seq := MustCompile(query, dtdSrc, Options{Projection: ProjectionValidate, Parallel: 1})
	par := MustCompile(query, dtdSrc, Options{Projection: ProjectionValidate, Parallel: 4})
	_, _, serr := seq.ExecuteString(invalid)
	_, _, perr := par.ExecuteString(invalid)
	if serr == nil || perr == nil || serr.Error() != perr.Error() {
		t.Errorf("error mismatch:\nsequential: %v\nparallel:   %v", serr, perr)
	}
}

// TestParallelRegisterChurn: Register/Unregister run concurrently with
// parallel shared passes; unregistered plans detach with
// ErrUnregistered, the stream and the other plans are undisturbed, and
// (under -race) no counter or batch is shared unsynchronized.
func TestParallelRegisterChurn(t *testing.T) {
	stable := workload.ByName("xmark-q1")
	churnA := workload.ByName("xmark-q13")
	churnB := workload.ByName("xmark-q2-bidders")
	var doc bytes.Buffer
	if err := stable.Gen(&doc, 60_000, 3); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(stable.DTD)
	if err != nil {
		t.Fatal(err)
	}
	solo := MustCompile(stable.Query, stable.DTD, Options{})
	want, _, err := solo.ExecuteString(doc.String())
	if err != nil {
		t.Fatal(err)
	}

	set := NewStreamSet(d)
	set.SetParallel(4)
	var out bytes.Buffer
	if _, err := set.Register(MustCompile(stable.Query, stable.DTD, Options{}), &out); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pa := MustCompile(churnA.Query, churnA.DTD, Options{})
		pb := MustCompile(churnB.Query, churnB.DTD, Options{})
		var sink bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			qa, err := set.Register(pa, &sink)
			if err != nil {
				t.Error(err)
				return
			}
			qb, err := set.Register(pb, &sink)
			if err != nil {
				t.Error(err)
				return
			}
			qa.Unregister()
			qb.Unregister()
		}
	}()

	for pass := 0; pass < 20; pass++ {
		out.Reset()
		if err := set.Run(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if out.String() != want {
			t.Fatalf("pass %d: stable plan's output diverged under churn", pass)
		}
	}
	close(stop)
	wg.Wait()
}

// TestParallelUnregisterMidStream: a plan unregistered while a parallel
// pass is in flight detaches at a batch boundary and reports
// ErrUnregistered; the remaining plan completes byte-identically.
func TestParallelUnregisterMidStream(t *testing.T) {
	stable := workload.ByName("xmark-q1")
	victim := workload.ByName("xmark-q13")
	var doc bytes.Buffer
	if err := stable.Gen(&doc, 120_000, 5); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDTD(stable.DTD)
	if err != nil {
		t.Fatal(err)
	}
	solo := MustCompile(stable.Query, stable.DTD, Options{})
	want, _, err := solo.ExecuteString(doc.String())
	if err != nil {
		t.Fatal(err)
	}

	set := NewStreamSet(d)
	set.SetParallel(4)
	var out, sink bytes.Buffer
	if _, err := set.Register(MustCompile(stable.Query, stable.DTD, Options{}), &out); err != nil {
		t.Fatal(err)
	}
	vq, err := set.Register(MustCompile(victim.Query, victim.DTD, Options{}), &sink)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		vq.Unregister()
	}()
	if err := set.Run(bytes.NewReader(doc.Bytes())); err != nil {
		t.Fatal(err)
	}
	<-done
	if out.String() != want {
		t.Fatal("remaining plan's output diverged after mid-stream unregister")
	}
	if _, verr := vq.Stats(); verr != nil &&
		!errors.Is(verr, mqe.ErrUnregistered) && !errors.Is(verr, mqe.ErrNotRun) {
		// The unregister may also land before the pass starts (clean
		// detach, never run) — only a foreign error is a failure.
		t.Fatalf("unexpected victim result: %v", verr)
	}
}
