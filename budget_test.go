package fluxquery

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"fluxquery/internal/workload"
)

// Budget integration suite: the buffer manager (internal/bufmgr) wired
// through the public API. The differential tests assert the acceptance
// criterion of the subsystem — a budget below a query's natural peak
// changes *where* buffered bytes live (heap vs spill store, or when the
// feed advances), never *what* the query outputs.

// budgetRef runs the case unbudgeted and returns its output and stats.
func budgetRef(t *testing.T, c *workload.Case, doc []byte) (string, Stats) {
	t.Helper()
	p := MustCompile(c.Query, c.DTD, Options{})
	out, st, err := p.ExecuteString(string(doc))
	if err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}
	return out, st
}

// TestBudgetDifferentialPolicies: every workload case — the corpus and
// all 8 XMark streaming queries — produces byte-identical output
// unbudgeted, under BufferSpill with a budget at half the natural peak,
// and under BufferBackpressure. For the accrual (join) workloads, whose
// buffers grow with the document, spill mode must also actually spill
// while the reported live heap peak stays under the budget.
func TestBudgetDifferentialPolicies(t *testing.T) {
	for i := range workload.Cases {
		c := &workload.Cases[i]
		t.Run(c.Name, func(t *testing.T) {
			size := int64(60_000)
			if c.Join {
				size = 30_000
			}
			doc := genCorpusDoc(t, c, size)
			ref, refSt := budgetRef(t, c, doc)
			budget := refSt.PeakBufferBytes / 2
			if budget < 512 {
				// Nothing meaningful to bound (streaming query); still
				// check a budget does not disturb it.
				budget = 512
			}
			for _, pol := range []BufferPolicy{BufferSpill, BufferBackpressure} {
				p := MustCompile(c.Query, c.DTD, Options{
					BufferBudget:   budget,
					BufferPolicy:   pol,
					BufferSpillDir: t.TempDir(),
				})
				out, st, err := p.ExecuteString(string(doc))
				if err != nil {
					t.Fatalf("%v: %v", pol, err)
				}
				if out != ref {
					t.Fatalf("%v: output differs from unbudgeted run (budget %d, natural peak %d)",
						pol, budget, refSt.PeakBufferBytes)
				}
				if st.PeakBufferBytes != refSt.PeakBufferBytes {
					t.Errorf("%v: logical peak changed: %d vs %d (the paper metric must not depend on the budget)",
						pol, st.PeakBufferBytes, refSt.PeakBufferBytes)
				}
				if c.Join && pol == BufferSpill && refSt.PeakBufferBytes > 2048 {
					if st.SpilledBytes == 0 {
						t.Errorf("spill: accrual workload spilled nothing (budget %d, peak %d)",
							budget, refSt.PeakBufferBytes)
					}
					if st.PeakHeapBufferBytes > budget {
						t.Errorf("spill: live heap peak %d exceeds budget %d",
							st.PeakHeapBufferBytes, budget)
					}
					if st.RehydratedBytes == 0 {
						t.Errorf("spill: nothing rehydrated although output needed the buffers")
					}
				}
			}
		})
	}
}

// TestBudgetSpillDeterministic: identical spilling passes evict the same
// victims, so their spill and rehydrate traffic repeats to the byte.
// Victims of equal payload are ordered by age, not by map iteration.
func TestBudgetSpillDeterministic(t *testing.T) {
	c := workload.ByName("xmark-q8-join")
	doc := genCorpusDoc(t, c, 100_000)
	_, refSt := budgetRef(t, c, doc)
	var first Stats
	for i := 0; i < 6; i++ {
		p := MustCompile(c.Query, c.DTD, Options{
			BufferBudget:   refSt.PeakBufferBytes / 2,
			BufferPolicy:   BufferSpill,
			BufferSpillDir: t.TempDir(),
		})
		_, st, err := p.ExecuteString(string(doc))
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpilledBytes == 0 {
			t.Fatal("pass spilled nothing")
		}
		if i == 0 {
			first = st
			continue
		}
		if st.SpilledBytes != first.SpilledBytes || st.RehydratedBytes != first.RehydratedBytes {
			t.Fatalf("pass %d: spilled %d rehydrated %d, pass 0: spilled %d rehydrated %d",
				i, st.SpilledBytes, st.RehydratedBytes, first.SpilledBytes, first.RehydratedBytes)
		}
	}
}

// TestBudgetFailTypedError: a BufferFail plan over budget aborts with
// the typed error, matchable through the public alias.
func TestBudgetFailTypedError(t *testing.T) {
	c := workload.ByName("xmark-q8-join")
	doc := genCorpusDoc(t, c, 30_000)
	_, refSt := budgetRef(t, c, doc)
	p := MustCompile(c.Query, c.DTD, Options{
		BufferBudget: refSt.PeakBufferBytes / 2,
		BufferPolicy: BufferFail,
	})
	_, _, err := p.ExecuteString(string(doc))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	// Well under budget: must succeed.
	p = MustCompile(c.Query, c.DTD, Options{
		BufferBudget: refSt.PeakBufferBytes * 2,
		BufferPolicy: BufferFail,
	})
	if _, _, err := p.ExecuteString(string(doc)); err != nil {
		t.Fatalf("under-budget run rejected: %v", err)
	}
}

// TestBudgetFailSharedPassIsolation is the acceptance scenario: in one
// shared pass, the greedy join plan exceeds the per-plan cap and fails
// with the typed error while its sibling plans complete with
// byte-identical output.
func TestBudgetFailSharedPassIsolation(t *testing.T) {
	greedy := workload.ByName("xmark-q8-join")
	lights := []*workload.Case{
		workload.ByName("xmark-q1"),
		workload.ByName("xmark-q13"),
		workload.ByName("xmark-q2-bidders"),
	}
	doc := genCorpusDoc(t, greedy, 60_000)

	_, greedySt := budgetRef(t, greedy, doc)
	var lightPeak int64
	lightRef := make([]string, len(lights))
	for i, c := range lights {
		out, st := budgetRef(t, c, doc)
		lightRef[i] = out
		if st.PeakBufferBytes > lightPeak {
			lightPeak = st.PeakBufferBytes
		}
	}
	budget := (lightPeak + greedySt.PeakBufferBytes) / 2
	if budget <= lightPeak || budget >= greedySt.PeakBufferBytes {
		t.Fatalf("workload does not separate: light peak %d, greedy peak %d",
			lightPeak, greedySt.PeakBufferBytes)
	}

	mgr := NewBufferManager(budget, BufferFail, "")
	defer mgr.Close()
	d, err := ParseDTD(greedy.DTD)
	if err != nil {
		t.Fatal(err)
	}
	set := NewStreamSet(d)
	set.SetBuffers(mgr)

	greedyReg, err := set.Register(MustCompile(greedy.Query, greedy.DTD, Options{}), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*bytes.Buffer, len(lights))
	regs := make([]*StreamQuery, len(lights))
	for i, c := range lights {
		outs[i] = &bytes.Buffer{}
		if regs[i], err = set.Register(MustCompile(c.Query, c.DTD, Options{}), outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Run(bytes.NewReader(doc)); err != nil {
		t.Fatalf("stream disturbed by the over-budget plan: %v", err)
	}
	if _, err := greedyReg.Stats(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("greedy plan: got %v, want ErrBudgetExceeded", err)
	}
	for i := range lights {
		if _, err := regs[i].Stats(); err != nil {
			t.Errorf("sibling %s failed: %v", lights[i].Name, err)
		}
		if outs[i].String() != lightRef[i] {
			t.Errorf("sibling %s output corrupted by the rejected plan", lights[i].Name)
		}
	}
	if mgr.Metrics().Rejections == 0 {
		t.Error("manager recorded no rejection")
	}
}

// TestBudgetSpillSharedPass: all 8 XMark queries ride one budgeted
// shared pass under BufferSpill; every output is byte-identical to its
// solo unbudgeted run, the global reservation peak respects the budget,
// and no spill segment leaks.
func TestBudgetSpillSharedPass(t *testing.T) {
	var cases []*workload.Case
	for i := range workload.Cases {
		if strings.HasPrefix(workload.Cases[i].Name, "xmark-") {
			cases = append(cases, &workload.Cases[i])
		}
	}
	if len(cases) != 8 {
		t.Fatalf("expected 8 xmark queries, have %d", len(cases))
	}
	doc := genCorpusDoc(t, cases[0], 60_000)
	refs := make([]string, len(cases))
	var maxPeak int64
	for i, c := range cases {
		out, st := budgetRef(t, c, doc)
		refs[i] = out
		if st.PeakBufferBytes > maxPeak {
			maxPeak = st.PeakBufferBytes
		}
	}
	budget := maxPeak / 2
	mgr := NewBufferManager(budget, BufferSpill, t.TempDir())
	defer mgr.Close()

	d, err := ParseDTD(cases[0].DTD)
	if err != nil {
		t.Fatal(err)
	}
	set := NewStreamSet(d)
	set.SetBuffers(mgr)
	outs := make([]*bytes.Buffer, len(cases))
	regs := make([]*StreamQuery, len(cases))
	for i, c := range cases {
		outs[i] = &bytes.Buffer{}
		if regs[i], err = set.Register(MustCompile(c.Query, c.DTD, Options{}), outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 3; run++ {
		for _, o := range outs {
			o.Reset()
		}
		if err := set.Run(bytes.NewReader(doc)); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i := range cases {
			st, err := regs[i].Stats()
			if err != nil {
				t.Fatalf("run %d: %s: %v", run, cases[i].Name, err)
			}
			if outs[i].String() != refs[i] {
				t.Fatalf("run %d: %s output differs under budgeted shared pass", run, cases[i].Name)
			}
			if st.PeakHeapBufferBytes > st.PeakBufferBytes {
				t.Errorf("%s: heap peak %d above logical peak %d", cases[i].Name,
					st.PeakHeapBufferBytes, st.PeakBufferBytes)
			}
		}
	}
	mt := mgr.Metrics()
	if mt.SpilledBytes == 0 {
		t.Error("budgeted shared pass spilled nothing")
	}
	if mt.PeakReservedBytes > budget {
		t.Errorf("global reservation peak %d exceeds budget %d", mt.PeakReservedBytes, budget)
	}
	if mt.ReservedBytes != 0 {
		t.Errorf("reservations leak: %d bytes still held", mt.ReservedBytes)
	}
	if mt.SpillSegsLive != 0 {
		t.Errorf("spill segments leak: %d live", mt.SpillSegsLive)
	}
}

// TestBudgetChurnSpillingSharedPass registers and unregisters queries
// while budgeted shared passes spill (run under -race in CI): the churn
// must never corrupt a pinned query's output or leak reservations.
func TestBudgetChurnSpillingSharedPass(t *testing.T) {
	c := workload.ByName("xmark-q8-join")
	doc := genCorpusDoc(t, c, 30_000)
	ref, refSt := budgetRef(t, c, doc)
	mgr := NewBufferManager(refSt.PeakBufferBytes/2, BufferSpill, t.TempDir())
	defer mgr.Close()

	d, err := ParseDTD(c.DTD)
	if err != nil {
		t.Fatal(err)
	}
	p := MustCompile(c.Query, c.DTD, Options{})
	set := NewStreamSet(d)
	set.SetBuffers(mgr)

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
	var pinnedOut bytes.Buffer
	pinned, err := set.Register(p, &pinnedOut)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		pinnedOut.Reset()
		if err := set.Run(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		if _, err := pinned.Stats(); err != nil {
			t.Fatalf("run %d: pinned query failed: %v", i, err)
		}
		if pinnedOut.String() != ref {
			t.Fatalf("run %d: pinned output corrupted under budgeted churn", i)
		}
	}
	close(stop)
	wg.Wait()
	if mt := mgr.Metrics(); mt.ReservedBytes != 0 || mt.SpillSegsLive != 0 {
		t.Errorf("leak after churn: %d bytes reserved, %d segments live",
			mt.ReservedBytes, mt.SpillSegsLive)
	}
}

// TestBudgetBackpressureConcurrentPasses: two over-budget passes sharing
// one BufferBackpressure manager throttle each other but both complete
// correctly (the gate rule guarantees progress). Sequential and pipelined
// passes alike report the time they stalled.
func TestBudgetBackpressureConcurrentPasses(t *testing.T) {
	c := workload.ByName("xmark-q8-join")
	doc := genCorpusDoc(t, c, 30_000)
	ref, refSt := budgetRef(t, c, doc)
	for _, parallel := range []int{0, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			mgr := NewBufferManager(refSt.PeakBufferBytes/2, BufferBackpressure, "")
			defer mgr.Close()
			p := MustCompile(c.Query, c.DTD, Options{Buffers: mgr, Parallel: parallel})

			var wg sync.WaitGroup
			outs := make([]string, 4)
			sts := make([]Stats, 4)
			errs := make([]error, 4)
			for i := range outs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					outs[i], sts[i], errs[i] = p.ExecuteString(string(doc))
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("backpressured passes deadlocked")
			}
			var stall time.Duration
			for i := range outs {
				if errs[i] != nil {
					t.Fatalf("pass %d: %v", i, errs[i])
				}
				if outs[i] != ref {
					t.Fatalf("pass %d output differs under backpressure", i)
				}
				stall += sts[i].BudgetStall
			}
			mt := mgr.Metrics()
			if mt.ReservedBytes != 0 {
				t.Error("reservations leak after concurrent passes")
			}
			if mt.Stalls > 0 && stall <= 0 {
				t.Errorf("manager counted %d stalls but the passes report no BudgetStall", mt.Stalls)
			}
		})
	}
}

// TestPlanCloseReleasesOwnedManager: Plan.Close releases the spill
// store of a plan-owned manager (Options.BufferBudget) and is a no-op
// for shared or unbudgeted plans.
func TestPlanCloseReleasesOwnedManager(t *testing.T) {
	c := workload.ByName("xmark-q8-join")
	doc := genCorpusDoc(t, c, 30_000)
	_, refSt := budgetRef(t, c, doc)
	p := MustCompile(c.Query, c.DTD, Options{
		BufferBudget:   refSt.PeakBufferBytes / 2,
		BufferPolicy:   BufferSpill,
		BufferSpillDir: t.TempDir(),
	})
	if _, st, err := p.ExecuteString(string(doc)); err != nil || st.SpilledBytes == 0 {
		t.Fatalf("budgeted run: err=%v spilled=%d", err, st.SpilledBytes)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// A closed plan-owned manager rejects further spilling runs.
	if _, _, err := p.ExecuteString(string(doc)); err == nil {
		t.Error("spilling run on a closed plan succeeded")
	}
	// Shared-manager and unbudgeted plans: Close is a no-op and the
	// shared manager stays usable.
	mgr := NewBufferManager(refSt.PeakBufferBytes/2, BufferSpill, t.TempDir())
	defer mgr.Close()
	shared := MustCompile(c.Query, c.DTD, Options{Buffers: mgr})
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := shared.ExecuteString(string(doc)); err != nil {
		t.Errorf("shared manager closed by plan Close: %v", err)
	}
	plain := MustCompile(c.Query, c.DTD, Options{})
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.ExecuteString(string(doc)); err != nil {
		t.Errorf("unbudgeted plan unusable after Close: %v", err)
	}
}

// TestBudgetAbortReleasesEverything: a plan that dies mid-stream with
// spilled buffers must return its reservations and segments.
func TestBudgetAbortReleasesEverything(t *testing.T) {
	c := workload.ByName("xmark-q8-join")
	doc := genCorpusDoc(t, c, 30_000)
	_, refSt := budgetRef(t, c, doc)
	mgr := NewBufferManager(refSt.PeakBufferBytes/2, BufferSpill, t.TempDir())
	defer mgr.Close()
	p := MustCompile(c.Query, c.DTD, Options{Buffers: mgr})

	// Truncate the document mid-stream: the plan aborts with buffers
	// (some spilled) still live.
	_, _, err := p.ExecuteString(string(doc[:len(doc)/2]))
	if err == nil {
		t.Fatal("truncated document accepted")
	}
	if mt := mgr.Metrics(); mt.ReservedBytes != 0 || mt.SpillSegsLive != 0 {
		t.Errorf("abort leaked: %d bytes reserved, %d segments live",
			mt.ReservedBytes, mt.SpillSegsLive)
	}
}
