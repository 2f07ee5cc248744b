package fluxquery

// Differential and performance coverage for the shared-stream multi-query
// engine: StreamSet output must be byte-identical to independent
// Plan.Execute runs over the whole workload corpus, a run must cost
// exactly one tokenize+validate pass no matter how many plans ride the
// stream, and the shared pass must beat sequential execution on the
// aggregate N-queries-one-document workload.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"fluxquery/internal/workload"
	"fluxquery/internal/xmltok"
)

// corpusGroups buckets the workload catalogue by schema: every group is a
// set of queries that can ride one stream (bib weak/strong, auction,
// store).
func corpusGroups() map[string][]workload.Case {
	groups := map[string][]workload.Case{}
	for _, c := range workload.Cases {
		groups[c.DTD] = append(groups[c.DTD], c)
	}
	return groups
}

func genCorpusDoc(t testing.TB, c *workload.Case, size int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Gen(&buf, size, 7); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamSetDifferential registers every query of a schema group on
// one StreamSet and checks each output and stats against its own
// independent Execute run.
func TestStreamSetDifferential(t *testing.T) {
	for dtdSrc, cases := range corpusGroups() {
		d, err := ParseDTD(dtdSrc)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(cases[0].Name+"-group", func(t *testing.T) {
			doc := genCorpusDoc(t, &cases[0], 100_000)
			set := NewStreamSet(d)
			outs := make([]*bytes.Buffer, len(cases))
			regs := make([]*StreamQuery, len(cases))
			plans := make([]*Plan, len(cases))
			for i, c := range cases {
				plans[i] = MustCompile(c.Query, dtdSrc, Options{})
				outs[i] = &bytes.Buffer{}
				reg, err := set.Register(plans[i], outs[i])
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				regs[i] = reg
			}
			if err := set.Run(bytes.NewReader(doc)); err != nil {
				t.Fatalf("shared run: %v", err)
			}
			for i, c := range cases {
				var want bytes.Buffer
				wantSt, err := plans[i].Execute(bytes.NewReader(doc), &want)
				if err != nil {
					t.Fatalf("%s: single run: %v", c.Name, err)
				}
				if !bytes.Equal(outs[i].Bytes(), want.Bytes()) {
					t.Errorf("%s: shared-stream output differs from Execute (%d vs %d bytes)",
						c.Name, outs[i].Len(), want.Len())
				}
				st, err := regs[i].Stats()
				if err != nil {
					t.Errorf("%s: stats error: %v", c.Name, err)
				}
				// Events may legitimately diverge: the shared pass projects
				// with the union of every registered plan's path-set, so a
				// plan can see (and count) events only a neighbour needs.
				// Everything derived from the events must match exactly.
				if st.Events < wantSt.Events || st.PeakBufferBytes != wantSt.PeakBufferBytes ||
					st.OutputBytes != wantSt.OutputBytes || st.HandlerFirings != wantSt.HandlerFirings {
					t.Errorf("%s: shared stats diverge: %+v vs %+v", c.Name, st, wantSt)
				}
			}
		})
	}
}

// auctionPlans compiles 8 plans from the streaming XMark auction queries:
// the acceptance workload of 8 plans on one auction stream. The join
// workload (xmark-q8-join) is covered by the differential suite but kept
// out of the throughput workload: its nested-loop join is pure evaluator
// CPU, which a shared scan cannot reduce — the dispatcher's win is the
// N-1 parses it eliminates.
func auctionPlans(t testing.TB) (*DTD, []*Plan, []byte) {
	t.Helper()
	names := []string{"xmark-q1", "xmark-q13", "xmark-q2-bidders"}
	base := workload.ByName(names[0])
	d, err := ParseDTD(base.DTD)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel: 1 pins each plan's own Execute to the sequential pass,
	// so the independent runs are a second code path next to the shared
	// pass (a StreamSet ignores the option).
	var plans []*Plan
	for i := 0; i < 8; i++ {
		c := workload.ByName(names[i%len(names)])
		plans = append(plans, MustCompile(c.Query, c.DTD, Options{Parallel: 1}))
	}
	return d, plans, genCorpusDoc(t, base, 256_000)
}

// TestStreamSetSinglePass asserts — via scanner instrumentation — that a
// StreamSet run with 8 registered queries performs exactly one
// tokenize+validate pass, where 8 independent Execute runs perform 8, and
// that the outputs are byte-identical.
func TestStreamSetSinglePass(t *testing.T) {
	d, plans, doc := auctionPlans(t)

	set := NewStreamSet(d)
	outs := make([]*bytes.Buffer, len(plans))
	for i, p := range plans {
		outs[i] = &bytes.Buffer{}
		if _, err := set.Register(p, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := xmltok.ScanPasses()
	if err := set.Run(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if passes := xmltok.ScanPasses() - before; passes != 1 {
		t.Errorf("StreamSet run with %d queries made %d scan passes, want exactly 1", len(plans), passes)
	}

	before = xmltok.ScanPasses()
	for i, p := range plans {
		var want bytes.Buffer
		if _, err := p.Execute(bytes.NewReader(doc), &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(outs[i].Bytes(), want.Bytes()) {
			t.Errorf("plan %d: shared output differs from independent run", i)
		}
	}
	if passes := xmltok.ScanPasses() - before; passes != uint64(len(plans)) {
		t.Errorf("%d independent runs made %d scan passes, want %d", len(plans), passes, len(plans))
	}
}

// TestStreamSetConcurrentRegistration exercises register/unregister from
// many goroutines while documents stream through (run under -race in CI).
func TestStreamSetConcurrentRegistration(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	doc := genCorpusDoc(t, c, 60_000)
	p := MustCompile(c.Query, c.DTD, Options{})

	set := NewStreamSet(d)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg, err := set.Register(p, io.Discard)
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Microsecond)
				reg.Unregister()
			}
		}()
	}
	// Pinned queries whose results must stay correct under the churn.
	var pinnedOut bytes.Buffer
	pinned, err := set.Register(p, &pinnedOut)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := p.Execute(bytes.NewReader(doc), &want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pinnedOut.Reset()
		if err := set.Run(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		if st, err := pinned.Stats(); err != nil {
			t.Fatalf("run %d: pinned query failed: %v (stats %+v)", i, err, st)
		}
		if !bytes.Equal(pinnedOut.Bytes(), want.Bytes()) {
			t.Fatalf("run %d: pinned query output corrupted under churn", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStreamSetErrorIsolation: one plan with a failing writer must not
// disturb its neighbours or the stream (public-API view of the mqe
// isolation tests).
func TestStreamSetErrorIsolation(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	doc := genCorpusDoc(t, c, 120_000)
	p := MustCompile(c.Query, c.DTD, Options{})

	set := NewStreamSet(d)
	bad, err := set.Register(p, &failingWriter{n: 32})
	if err != nil {
		t.Fatal(err)
	}
	var goodOut bytes.Buffer
	good, err := set.Register(p, &goodOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Run(bytes.NewReader(doc)); err != nil {
		t.Fatalf("stream disturbed by failing plan: %v", err)
	}
	if _, err := bad.Stats(); err == nil {
		t.Error("failing plan's writer error not reported through its StreamQuery")
	}
	var want bytes.Buffer
	if _, err := p.Execute(bytes.NewReader(doc), &want); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Stats(); err != nil {
		t.Errorf("healthy plan reported %v", err)
	}
	if !bytes.Equal(goodOut.Bytes(), want.Bytes()) {
		t.Error("healthy plan output corrupted")
	}
}

// TestStreamSetRejectsMismatches: baseline engines and foreign DTDs do
// not ride shared streams.
func TestStreamSetRejectsMismatches(t *testing.T) {
	c := workload.ByName("xmp-q3-weak")
	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	set := NewStreamSet(d)
	if _, err := set.Register(MustCompile(c.Query, c.DTD, Options{Engine: EngineNaive}), io.Discard); err == nil {
		t.Error("naive-engine plan registered on a stream set")
	}
	other := workload.ByName("xmark-q1")
	if _, err := set.Register(MustCompile(other.Query, other.DTD, Options{}), io.Discard); err == nil {
		t.Error("plan compiled under the auction DTD registered on a bib stream")
	}
}

// sharedVsSequential times one StreamSet pass of all plans against
// sequential independent Execute runs over the same document.
func sharedVsSequential(t testing.TB, d *DTD, plans []*Plan, doc []byte) (shared, sequential time.Duration) {
	set := NewStreamSet(d)
	for _, p := range plans {
		if _, err := set.Register(p, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := set.Run(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	shared = time.Since(start)

	start = time.Now()
	for _, p := range plans {
		if _, err := p.Execute(bytes.NewReader(doc), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	sequential = time.Since(start)
	return shared, sequential
}

// TestStreamSetThroughputAdvantage: the acceptance bar is >=2x aggregate
// throughput for 8 queries on one stream (see the benchmarks for the
// measured factor); the test asserts a conservative floor so CI noise
// cannot flake it.
func TestStreamSetThroughputAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	d, plans, doc := auctionPlans(t)
	bestShared, bestSeq := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 3; i++ {
		sh, seq := sharedVsSequential(t, d, plans, doc)
		if sh < bestShared {
			bestShared = sh
		}
		if seq < bestSeq {
			bestSeq = seq
		}
	}
	speedup := float64(bestSeq) / float64(bestShared)
	t.Logf("8 queries over %s auction doc: shared pass %v, sequential %v (%.2fx)",
		kbs(len(doc)), bestShared, bestSeq, speedup)
	if speedup < 1.3 {
		t.Errorf("shared pass speedup %.2fx below the 1.3x floor (shared %v, sequential %v)",
			speedup, bestShared, bestSeq)
	}
}

func kbs(n int) string { return fmt.Sprintf("%.0fKB", float64(n)/1024) }

// BenchmarkStreamSet8Shared measures the aggregate N-queries-one-stream
// workload on the shared dispatcher: 8 compiled auction queries, one
// tokenize+validate pass per iteration. Bytes/op counts the aggregate
// work (8 query-evaluations of the document) so MB/s is directly
// comparable with BenchmarkStreamSet8Sequential.
func BenchmarkStreamSet8Shared(b *testing.B) {
	d, plans, doc := auctionPlans(b)
	set := NewStreamSet(d)
	for _, p := range plans {
		if _, err := set.Register(p, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(doc) * len(plans)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := set.Run(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSet8Sequential is the baseline the dispatcher replaces:
// the same 8 plans executed one after another, re-scanning the document
// each time.
func BenchmarkStreamSet8Sequential(b *testing.B) {
	_, plans, doc := auctionPlans(b)
	b.SetBytes(int64(len(doc) * len(plans)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			if _, err := p.Execute(bytes.NewReader(doc), io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamSetScaling reports how the shared pass scales with the
// number of riding plans (1, 4, 16 copies of XMark Q1).
func BenchmarkStreamSetScaling(b *testing.B) {
	c := workload.ByName("xmark-q1")
	d, err := ParseDTD(c.DTD)
	if err != nil {
		b.Fatal(err)
	}
	doc := genCorpusDoc(b, c, 256_000)
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("plans=%d", n), func(b *testing.B) {
			set := NewStreamSet(d)
			for i := 0; i < n; i++ {
				if _, err := set.Register(MustCompile(c.Query, c.DTD, Options{}), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(doc) * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := set.Run(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
