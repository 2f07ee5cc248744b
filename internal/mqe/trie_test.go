package mqe

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"fluxquery/internal/dtd"
	"fluxquery/internal/runtime"
	"fluxquery/internal/shared"
)

func TestParseDispatchMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DispatchMode
		ok   bool
	}{
		{"fanout", DispatchFanout, true},
		{"trie", DispatchTrie, true},
		{"", DispatchFanout, false},
		{"Trie", DispatchFanout, false},
	} {
		got, ok := ParseDispatchMode(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseDispatchMode(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if DispatchTrie.String() != "trie" || DispatchFanout.String() != "fanout" {
		t.Errorf("mode spellings wrong: %q %q", DispatchTrie, DispatchFanout)
	}
}

// TestTrieDispatchMatchesFanout: trie-routed shared passes produce
// byte-identical per-plan output to fanout passes (and therefore to
// independent runs, which the fanout differential already pins),
// sequential and pipelined.
func TestTrieDispatchMatchesFanout(t *testing.T) {
	d := dtd.MustParse(weakBib)
	doc := bibDoc(300)
	queries := []string{q3, qTitles, q3, qTitles, q3}

	run := func(mode DispatchMode, parallel int) []string {
		s := NewSet(d)
		s.SetDispatch(mode)
		s.SetParallel(parallel)
		outs := make([]*bytes.Buffer, len(queries))
		for i, q := range queries {
			outs[i] = &bytes.Buffer{}
			if _, err := s.Register(plan(t, q, d), outs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(strings.NewReader(doc)); err != nil {
			t.Fatalf("mode=%v parallel=%d: %v", mode, parallel, err)
		}
		ds := s.LastDispatch()
		if ds.Mode != mode.String() || ds.Plans != len(queries) {
			t.Errorf("mode=%v parallel=%d: dispatch stats %+v", mode, parallel, ds)
		}
		if mode == DispatchTrie && (ds.TrieNodes == 0 || ds.Events == 0 || ds.Deliveries == 0 || ds.Flushes == 0) {
			t.Errorf("trie pass reported no routing work: %+v", ds)
		}
		res := make([]string, len(outs))
		for i, o := range outs {
			res[i] = o.String()
		}
		return res
	}

	want := run(DispatchFanout, 1)
	for _, parallel := range []int{1, 2, 4} {
		got := run(DispatchTrie, parallel)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("parallel=%d plan %d: trie output differs\ntrie:   %.200s\nfanout: %.200s",
					parallel, i, got[i], want[i])
			}
		}
	}
}

// TestTrieInterningSharesNodes: many registrations of the same query
// must intern to the node count of a single registration, with fan-out
// lists carrying the multiplicity.
func TestTrieInterningSharesNodes(t *testing.T) {
	d := dtd.MustParse(weakBib)
	nodesFor := func(n int) (nodes, maxFan int) {
		s := NewSet(d)
		s.SetDispatch(DispatchTrie)
		for i := 0; i < n; i++ {
			if _, err := s.Register(plan(t, q3, d), io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(strings.NewReader(bibDoc(1))); err != nil {
			t.Fatal(err)
		}
		ds := s.LastDispatch()
		return ds.TrieNodes, ds.MaxFanout
	}
	n1, _ := nodesFor(1)
	n64, f64 := nodesFor(64)
	if n64 != n1 {
		t.Errorf("64 identical plans interned to %d nodes, single plan %d", n64, n1)
	}
	if f64 != 64 {
		t.Errorf("max fanout = %d, want 64", f64)
	}
}

// freshTrie builds a trie directly from the surviving subscriptions,
// bypassing the Set's incremental invalidation — the oracle for the
// churn property below.
func freshTrie(d *dtd.DTD, plans []*runtime.Plan) *shared.Trie {
	names := d.IDNames()
	reqs := make([]shared.PlanReq, len(plans))
	for i, p := range plans {
		reqs[i] = shared.ReqFromPaths(p.Paths(), p.NeedShells(), names)
	}
	return shared.Build(reqs, len(names))
}

// TestTrieChurnSnapshotEqualsFresh: after any sequence of
// Register/Unregister operations (including unregisters issued while a
// run is in flight), the trie the next Run snapshots is identical —
// node for node, list for list — to a trie built fresh from the
// surviving plan set.
func TestTrieChurnSnapshotEqualsFresh(t *testing.T) {
	d := dtd.MustParse(weakBib)
	pool := []string{q3, qTitles}
	doc := bibDoc(200)
	r := rand.New(rand.NewSource(7))

	s := NewSet(d)
	s.SetDispatch(DispatchTrie)
	var live []*Sub
	var livePlans []*runtime.Plan

	snapshot := func() *shared.Trie {
		s.mu.Lock()
		s.recomputeTrieLocked()
		tr := s.trie
		s.mu.Unlock()
		return tr
	}

	for step := 0; step < 120; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(live) == 0: // register
			p := plan(t, pool[r.Intn(len(pool))], d)
			sub, err := s.Register(p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, sub)
			livePlans = append(livePlans, p)
		case op < 8: // unregister
			i := r.Intn(len(live))
			live[i].Unregister()
			live = append(live[:i], live[i+1:]...)
			livePlans = append(livePlans[:i], livePlans[i+1:]...)
		default: // run with a mid-stream unregister
			var victim *Sub
			if len(live) > 1 && r.Intn(2) == 0 {
				i := r.Intn(len(live))
				victim = live[i]
				live = append(live[:i], live[i+1:]...)
				livePlans = append(livePlans[:i], livePlans[i+1:]...)
			}
			done := make(chan struct{})
			go func() {
				if victim != nil {
					victim.Unregister()
				}
				close(done)
			}()
			if err := s.Run(strings.NewReader(doc)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			<-done
		}
		got := snapshot()
		want := freshTrie(d, livePlans)
		if g, w := got.DebugString(), want.DebugString(); g != w {
			t.Fatalf("step %d (%d live plans): snapshot trie != fresh build\nsnapshot:\n%s\nfresh:\n%s",
				step, len(live), g, w)
		}
		if err := got.Check(len(live)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestTrieMidStreamUnregister: under trie dispatch a subscription
// unregistered mid-stream reports ErrUnregistered (even if the trie
// routes it no further events), and sibling plans are untouched.
func TestTrieMidStreamUnregister(t *testing.T) {
	d := dtd.MustParse(weakBib)
	doc := bibDoc(500)

	want := naive(t, q3, d, doc)

	s := NewSet(d)
	s.SetDispatch(DispatchTrie)
	var out bytes.Buffer
	keep, err := s.Register(plan(t, q3, d), &out)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := s.Register(plan(t, qTitles, d), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	go gone.Unregister()
	if err := s.Run(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if _, rerr := gone.Result(); rerr != nil && !errors.Is(rerr, ErrUnregistered) && !errors.Is(rerr, ErrNotRun) {
		t.Errorf("unregistered sub error = %v", rerr)
	}
	if _, rerr := keep.Result(); rerr != nil {
		t.Errorf("sibling failed: %v", rerr)
	}
	if out.String() != want {
		t.Errorf("sibling output diverged from independent run")
	}
	// After the churn, the next pass must again match a fresh build.
	var out2 bytes.Buffer
	out.Reset()
	sub3, err := s.Register(plan(t, qTitles, d), &out2)
	if err != nil {
		t.Fatal(err)
	}
	_ = sub3
	if err := s.Run(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("second pass output diverged")
	}
}

// TestTrieZeroAndErrorStreams: a trie-mode pass over zero plans is a
// pure validation pass, and stream errors reach every riding plan.
func TestTrieZeroAndErrorStreams(t *testing.T) {
	d := dtd.MustParse(weakBib)
	s := NewSet(d)
	s.SetDispatch(DispatchTrie)
	if err := s.Run(strings.NewReader(bibDoc(3))); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	if err := s.Run(strings.NewReader(`<bib><pamphlet/></bib>`)); err == nil {
		t.Fatal("invalid doc accepted")
	}

	sub, err := s.Register(plan(t, q3, d), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(strings.NewReader(`<bib><book><title>x</title>`)); err == nil {
		t.Fatal("truncated doc accepted")
	}
	if _, rerr := sub.Result(); rerr == nil {
		t.Error("riding plan did not see the stream error")
	}
}
