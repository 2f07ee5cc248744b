package bufmgr

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fluxquery/internal/dom"
	"fluxquery/internal/faultinj"
)

func mustTree(t testing.TB, src string) *dom.Node {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Root()
}

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyFail, PolicySpill, PolicyBackpressure} {
		got, ok := ParsePolicy(p.String())
		if !ok || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := ParsePolicy("bogus"); ok {
		t.Error("ParsePolicy accepted bogus")
	}
}

func TestLedgerAndMetrics(t *testing.T) {
	m := New(Config{Budget: 1000, Policy: PolicyFail})
	defer m.Close()
	g := m.NewGate()
	a := g.NewAccount()
	if err := a.Filled(nil, 400, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Filled(nil, 500, false); err != nil {
		t.Fatal(err)
	}
	a.Release(300)
	mt := m.Metrics()
	if mt.ReservedBytes != 600 || mt.PeakReservedBytes != 900 {
		t.Errorf("ledger: reserved %d peak %d, want 600/900", mt.ReservedBytes, mt.PeakReservedBytes)
	}
	st := a.Close()
	if st.PeakBytes != 900 {
		t.Errorf("account peak %d, want 900", st.PeakBytes)
	}
	if got := m.Metrics().ReservedBytes; got != 0 {
		t.Errorf("close did not drain: %d", got)
	}
	g.Close()
}

func TestFailPolicyPerAccountCap(t *testing.T) {
	m := New(Config{Budget: 100, Policy: PolicyFail})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a, b := g.NewAccount(), g.NewAccount()
	defer a.Close()
	defer b.Close()
	if err := a.Filled(nil, 90, false); err != nil {
		t.Fatal(err)
	}
	// The cap is per account: b's fill fits its own cap even though the
	// process total goes past the budget.
	if err := b.Filled(nil, 90, false); err != nil {
		t.Fatalf("sibling account rejected: %v", err)
	}
	err := a.Filled(nil, 20, false)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-cap fill: got %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Held != 90 || be.Need != 20 || be.Budget != 100 {
		t.Errorf("budget error detail: %+v", be)
	}
	if m.Metrics().Rejections != 1 {
		t.Errorf("rejections = %d", m.Metrics().Rejections)
	}
}

func TestSpillLargestColdFirst(t *testing.T) {
	m := New(Config{Budget: 1000, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 1 << 20})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a := g.NewAccount()
	defer a.Close()

	small := mustTree(t, `<s><x>tiny</x></s>`)
	big := mustTree(t, `<b><x>`+string(make([]byte, 300))+`</x></b>`)
	for _, n := range []*dom.Node{small, big} {
		if err := a.Filled(n, n.Size(), true); err != nil {
			t.Fatal(err)
		}
	}
	reserved := m.Metrics().ReservedBytes
	// Force pressure: the next fill exceeds the budget, so the largest
	// cold subtree (big) must spill first.
	need := 1000 - reserved + 10
	if err := a.Filled(nil, need, false); err != nil {
		t.Fatal(err)
	}
	if len(big.Children) != 0 || big.Lazy == nil {
		t.Error("largest subtree was not spilled")
	}
	if len(small.Children) == 0 {
		t.Error("small subtree spilled although evicting big sufficed")
	}
	if m.Metrics().SpillOps != 1 {
		t.Errorf("spill ops = %d, want 1", m.Metrics().SpillOps)
	}
	if m.Metrics().ReservedBytes > 1000 {
		t.Errorf("still over budget after spill: %d", m.Metrics().ReservedBytes)
	}

	// First traversal rehydrates transparently.
	if got := big.StringValue(); got != string(make([]byte, 300)) {
		t.Errorf("rehydrated content differs (%d bytes)", len(got))
	}
	if m.Metrics().RehydrateOps != 1 {
		t.Errorf("rehydrate ops = %d, want 1", m.Metrics().RehydrateOps)
	}
}

// TestSpillEqualPayloadsOldestFirst: among cold units of equal payload
// the oldest fill spills first, whatever the map iteration order.
func TestSpillEqualPayloadsOldestFirst(t *testing.T) {
	for round := 0; round < 20; round++ {
		m := New(Config{Budget: 2000, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 1 << 20})
		g := m.NewGate()
		a := g.NewAccount()
		var trees []*dom.Node
		for i := 0; i < 3; i++ {
			n := mustTree(t, `<b><x>`+strings.Repeat("y", 200)+`</x></b>`)
			if err := a.Filled(n, n.Size(), true); err != nil {
				t.Fatal(err)
			}
			trees = append(trees, n)
		}
		// Just over budget: one victim (plus the budget/8 headroom) is
		// enough, and it must be the first fill.
		if err := a.Filled(nil, 2000-m.Metrics().ReservedBytes+10, false); err != nil {
			t.Fatal(err)
		}
		for i, n := range trees {
			if spilled := len(n.Children) == 0; spilled != (i == 0) {
				t.Fatalf("round %d: tree %d spilled=%v, want only tree 0", round, i, spilled)
			}
		}
		a.Close()
		g.Close()
		m.Close()
	}
}

func TestSpillSkipsPinned(t *testing.T) {
	m := New(Config{Budget: 500, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 1 << 20})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a := g.NewAccount()
	defer a.Close()

	n := mustTree(t, `<b><x>`+string(make([]byte, 300))+`</x></b>`)
	if err := a.Filled(n, n.Size(), true); err != nil {
		t.Fatal(err)
	}
	a.Pin(n)
	if err := a.Filled(nil, 400, false); err != nil {
		t.Fatal(err)
	}
	if len(n.Children) == 0 {
		t.Fatal("pinned subtree was spilled")
	}
	a.Unpin(n)
	if err := a.Filled(nil, 400, false); err != nil {
		t.Fatal(err)
	}
	if len(n.Children) != 0 {
		t.Fatal("unpinned subtree survived pressure")
	}
}

// TestSpillAdmissionRecheck: an account that evicted for room must
// check the ledger again before it commits, because a sibling may take
// the room while the account is still evicting. A's fill spills two
// victims; while the second spill write is slowed, B commits into the
// room the first one freed. A must then evict its third victim, not
// commit past the budget.
func TestSpillAdmissionRecheck(t *testing.T) {
	defer faultinj.Reset()
	const budget = 8000 // budget/8 = 1000 B of eviction headroom
	m := New(Config{Budget: budget, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 1 << 20})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a, b := g.NewAccount(), g.NewAccount()
	defer a.Close()
	defer b.Close()

	tree := func(text int) *dom.Node {
		return mustTree(t, `<b><x>`+strings.Repeat("y", text)+`</x></b>`)
	}
	v1, v2, v3 := tree(2000), tree(2000), tree(1000)
	for _, n := range []*dom.Node{v1, v2, v3} {
		if err := a.Filled(n, n.Size(), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Filled(nil, 1000, false); err != nil {
		t.Fatal(err)
	}
	held := m.Metrics().ReservedBytes
	p1, p2 := v1.Size()-v1.SelfSize(), v2.Size()-v2.SelfSize()
	// With the headroom, A's fill asks for p1+1 bytes: v1 (the older of
	// the two largest) spills, then v2; v3 stays resident.
	aNeed := budget - held + p1 + 1 - budget/8
	// B's fill fits once v1 is gone, and leaves A's fill 1 B short.
	bNeed := p2 + budget/8

	// Every spill write takes 250 ms: the window in which B, polling for
	// A's first spill, must commit.
	if err := faultinj.Arm(faultinj.SiteSpillWrite, faultinj.Fault{Mode: faultinj.ModeLatency, Latency: 250 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Filled(nil, aNeed, false) }()
	for m.Metrics().SpillOps == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := b.Filled(nil, bNeed, false); err != nil {
		t.Error(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(v2.Children) != 0 || len(v3.Children) != 0 {
		t.Error("A did not evict again after B took the room it freed")
	}
	if mt := m.Metrics(); mt.PeakReservedBytes > budget || mt.OvershootPeakBytes != 0 {
		t.Errorf("reservation peak %d (overshoot %d) past budget %d", mt.PeakReservedBytes, mt.OvershootPeakBytes, budget)
	}
}

func TestFreedReturnsSegmentAndLogicalSize(t *testing.T) {
	m := New(Config{Budget: 100, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 1 << 20})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a := g.NewAccount()
	defer a.Close()

	n := mustTree(t, `<b><x>`+string(make([]byte, 200))+`</x></b>`)
	logical := n.Size()
	if err := a.Filled(n, logical, true); err != nil {
		t.Fatal(err)
	}
	// Over budget on arrival: spilled immediately on the next fill.
	if err := a.Filled(nil, 50, false); err != nil {
		t.Fatal(err)
	}
	if m.Metrics().SpillSegsLive != 1 {
		t.Fatalf("segments live = %d", m.Metrics().SpillSegsLive)
	}
	got := a.FreeTree(n)
	if got != logical {
		t.Errorf("FreeTree = %d; want %d", got, logical)
	}
	if m.Metrics().SpillSegsLive != 0 {
		t.Errorf("segment not returned: %d live", m.Metrics().SpillSegsLive)
	}
}

func TestRehydratedDropIsSegmentReuse(t *testing.T) {
	m := New(Config{Budget: 600, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 1 << 20})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a := g.NewAccount()
	defer a.Close()

	n := mustTree(t, `<b><x>`+string(make([]byte, 400))+`</x></b>`)
	if err := a.Filled(n, n.Size(), true); err != nil {
		t.Fatal(err)
	}
	if err := a.Filled(nil, 500, false); err != nil { // spills n
		t.Fatal(err)
	}
	a.Release(500)
	_ = n.Kids()                                      // rehydrate
	if err := a.Filled(nil, 500, false); err != nil { // drops n again
		t.Fatal(err)
	}
	if len(n.Children) != 0 {
		t.Fatal("rehydrated subtree not dropped under pressure")
	}
	mt := m.Metrics()
	// The second eviction reuses the retained segment: one encode, one
	// extent, two spill ops.
	if mt.SpillOps != 2 || mt.SpillSegsLive != 1 {
		t.Errorf("spill ops %d segs %d, want 2/1", mt.SpillOps, mt.SpillSegsLive)
	}
	_ = n.Kids()
	if got := n.StringValue(); got != string(make([]byte, 400)) {
		t.Errorf("content after second rehydrate differs")
	}
}

func TestBackpressureGateBlocksAndDrains(t *testing.T) {
	m := New(Config{Budget: 100, Policy: PolicyBackpressure})
	defer m.Close()
	// Pass 1 holds memory past the budget.
	g1 := m.NewGate()
	a1 := g1.NewAccount()
	if err := a1.Filled(nil, 150, false); err != nil {
		t.Fatal(err)
	}
	// Pass 2 must block at its gate while pass 1 can drain.
	g2 := m.NewGate()
	released := make(chan struct{})
	done := make(chan struct{})
	go func() {
		g2.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("gate did not block while another pass held memory")
	case <-time.After(30 * time.Millisecond):
	}
	close(released)
	a1.Close()
	g1.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("gate did not wake after the holder drained")
	}
	<-released
	if m.Metrics().Stalls != 1 || m.Metrics().Stall <= 0 {
		t.Errorf("stall metrics: %+v", m.Metrics())
	}
	if g2.Stall() <= 0 {
		t.Error("gate stall not recorded")
	}
	g2.Close()
}

func TestBackpressureLonePassNeverBlocks(t *testing.T) {
	m := New(Config{Budget: 10, Policy: PolicyBackpressure})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a := g.NewAccount()
	defer a.Close()
	if err := a.Filled(nil, 1000, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		g.Wait() // must not block: no other pass can drain
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("lone pass blocked at its own gate")
	}
}

func TestBackpressureMutualWaitersProgress(t *testing.T) {
	// Two over-budget passes waiting on each other must not deadlock:
	// the gate rule lets the last would-be waiter proceed.
	m := New(Config{Budget: 100, Policy: PolicyBackpressure})
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := m.NewGate()
			a := g.NewAccount()
			for j := 0; j < 50; j++ {
				g.Wait()
				if err := a.Filled(nil, 10, false); err != nil {
					t.Error(err)
					return
				}
			}
			a.Close()
			g.Close()
		}()
	}
	fin := make(chan struct{})
	go func() { wg.Wait(); close(fin) }()
	select {
	case <-fin:
	case <-time.After(10 * time.Second):
		t.Fatal("mutually waiting passes deadlocked")
	}
}

func TestSegStoreReuseAndCoalesce(t *testing.T) {
	st, err := openSegStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	s1, _ := st.put(make([]byte, 100))
	s2, _ := st.put(make([]byte, 50))
	s3, _ := st.put(make([]byte, 25))
	if st.fileBytes() != 175 || st.liveSegs() != 3 {
		t.Fatalf("layout: %d bytes %d segs", st.fileBytes(), st.liveSegs())
	}
	// Free the first two: they coalesce into one 150-byte extent that
	// the next allocation reuses without growing the file.
	st.free(s1)
	st.free(s2)
	s4, _ := st.put(make([]byte, 150))
	if s4.off != 0 || st.fileBytes() != 175 {
		t.Errorf("coalesced extent not reused: off %d size %d", s4.off, st.fileBytes())
	}
	var got []byte
	if err := st.get(s3, func(d []byte) error { got = append(got, d...); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Errorf("read %d bytes", len(got))
	}
}

// TestFillerOversizedTextOnlyUnit: a streamed fill of an element whose
// only content is one huge text block must still register an eviction
// unit (the element itself), matching the registerUnits rule.
func TestFillerOversizedTextOnlyUnit(t *testing.T) {
	m := New(Config{Budget: 1 << 20, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 256})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a := g.NewAccount()
	defer a.Close()

	root := dom.NewElement("r")
	fl := a.NewFiller(root)
	notes := dom.NewElement("notes")
	root.AppendChild(notes)
	fl.Push(notes)
	text := dom.NewText(strings.Repeat("x", 4096))
	notes.AppendChild(text)
	fl.Text(text)
	if err := fl.Pop(); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.victims[notes]; !ok {
		t.Fatal("oversized text-only element not registered as a unit")
	}
}

// TestFillerIncrementalReservation: the filler must account a flat list
// of small children as they complete, not in one bulk step at Finish —
// otherwise a single large materialize dodges spill pressure entirely.
func TestFillerIncrementalReservation(t *testing.T) {
	m := New(Config{Budget: 1 << 20, Policy: PolicySpill, SpillDir: t.TempDir(), SpillUnit: 512})
	defer m.Close()
	g := m.NewGate()
	defer g.Close()
	a := g.NewAccount()
	defer a.Close()

	root := dom.NewElement("list")
	fl := a.NewFiller(root)
	for i := 0; i < 50; i++ {
		c := dom.NewElement("item")
		root.AppendChild(c)
		fl.Push(c)
		txt := dom.NewText(strings.Repeat("y", 100))
		c.AppendChild(txt)
		fl.Text(txt)
		if err := fl.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	midHeld := a.held
	total, err := fl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if midHeld == 0 {
		t.Fatal("nothing reserved before Finish: bulk accounting at the end")
	}
	if midHeld < total/2 {
		t.Errorf("only %d of %d reserved before Finish; backlog must stay near one unit", midHeld, total)
	}
	if a.held != total {
		t.Errorf("held %d != total %d after Finish", a.held, total)
	}
}

func TestNilSafety(t *testing.T) {
	var m *Manager
	g := m.NewGate()
	a := g.NewAccount()
	g.Wait()
	if err := a.Filled(nil, 100, false); err != nil {
		t.Fatal(err)
	}
	a.Release(100)
	a.Pin(nil)
	a.Unpin(nil)
	a.Close()
	g.Close()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
