package mqe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fluxquery/internal/bufmgr"
	"fluxquery/internal/dtd"
	"fluxquery/internal/faultinj"
	"fluxquery/internal/flightrec"
	"fluxquery/internal/proj"
	"fluxquery/internal/runtime"
	"fluxquery/internal/shared"
	"fluxquery/internal/telemetry"
	"fluxquery/internal/xsax"
)

// ErrUnregistered aborts a subscription's in-flight evaluation when it is
// unregistered mid-stream; it is then reported as that run's result.
var ErrUnregistered = errors.New("mqe: subscription unregistered during streaming")

// ErrNotRun is reported by Sub.Result before the subscription has
// completed any run.
var ErrNotRun = errors.New("mqe: subscription has not completed a run")

// Set is a registry of compiled plans riding a shared event stream. Plans
// are registered with a per-plan output writer; each Run evaluates every
// currently registered plan over one document in a single
// tokenize+validate pass. Register and Unregister are safe to call
// concurrently with Run: a registration takes effect at the next Run, an
// unregistration detaches the subscription from an in-flight Run at the
// next batch boundary (aborting it with ErrUnregistered).
type Set struct {
	d *dtd.DTD
	// dstr is the set DTD's canonical serialization, computed once so
	// Register's equivalence check on pointer-unequal DTDs does not
	// re-serialize the set side on every call.
	dstr string
	disp Dispatcher

	// runMu serializes Run: subscriptions write to fixed per-Sub writers,
	// so two concurrent passes would interleave on them.
	runMu sync.Mutex

	mu   sync.Mutex
	subs []*Sub
	// pauto is the compiled union of every registered plan's projection
	// path-set. Register/Unregister invalidate it (projDirty) and the
	// next Run recompiles it once — registering K plans costs one union
	// build, not K. The automaton is immutable once built: an in-flight
	// Run keeps the one it snapshotted even as registrations replace it.
	// nil while the set is empty (a pass over zero subscriptions stays a
	// full validation pass).
	pauto     *proj.Automaton
	projDirty bool
	pmode     proj.Mode
	// dispatch selects how a pass fans events out. Under DispatchTrie,
	// trie holds the compiled dispatch trie for the current
	// subscriptions, rebuilt lazily (trieDirty) under the same
	// immutable-snapshot discipline as pauto: an in-flight Run keeps the
	// trie it snapshotted, whose plan indices match the subscription
	// slice it snapshotted alongside.
	dispatch  DispatchMode
	trie      *shared.Trie
	trieDirty bool
	trieBuild time.Duration
	// trieMembers maps each trie plan index (a delivery class — plans
	// whose projection automaton and shell requirement coincide, so their
	// event streams are identical) to the subscription indices riding it.
	// trieMaxFan is the widest per-subscription fan-out any interned list
	// reaches once class membership is multiplied back in.
	trieMembers [][]int32
	trieMaxFan  int
	// lastDispatch reports the most recent pass's dispatch-layer
	// statistics.
	lastDispatch DispatchStats
	// bufs, when non-nil, governs the buffer memory of shared passes:
	// each Run opens one gate (the pass's backpressure point) and one
	// account per riding plan, so a budget violation is attributed — and,
	// under bufmgr.PolicyFail, confined — to the individual plan.
	bufs *bufmgr.Manager
	// parallel overrides how passes run (see ResolveParallel): 0 is the
	// default for the host, 1 the sequential pass, n >= 2 the staged
	// pipeline.
	parallel int
	// lastScan reports the most recent pass's projection counters; passes
	// counts completed Run calls. lastStall is the most recent pass's
	// backpressure stall, lastPass its pipeline metrics (zero when
	// sequential).
	lastScan  xsax.ScanStats
	passes    int64
	lastStall time.Duration
	lastPass  PassStats
	// mt is the resolved telemetry instrument bundle (nil = disabled);
	// tracing/traceID configure span capture of subsequent runs, and
	// lastTrace holds the most recent completed pass's span tree.
	mt        *setMetrics
	tracing   bool
	traceID   string
	lastTrace *telemetry.Trace
	// rec, when non-nil, receives one flight-recorder record per
	// completed pass (success or failure); when its slow-pass capture
	// policy is armed, every pass builds a span tree that the recorder
	// retains only for slow passes. reqID labels subsequent passes'
	// records with the driving request's id.
	rec   *flightrec.Recorder
	reqID string
	// ledger, when non-nil, accrues per-query cost attribution (eval
	// CPU, delivered data, buffer peaks, errors) across passes, keyed
	// by registration name. A ledger typically outlives the Set: a
	// server installs one process-wide ledger on every per-request Set.
	ledger *Ledger
	// nameSeq numbers unnamed registrations for telemetry labels.
	nameSeq int
}

// NewSet returns a Set for streams governed by d.
func NewSet(d *dtd.DTD) *Set {
	return &Set{d: d, dstr: d.String(), disp: Dispatcher{DTD: d}}
}

// Sub is one registered (plan, output) subscription.
type Sub struct {
	set     *Set
	plan    *runtime.Plan
	name    string
	out     io.Writer
	removed atomic.Bool

	mu  sync.Mutex
	ran bool
	st  runtime.Stats
	dur time.Duration
	err error
}

// Register adds a plan to the set, streaming its result to out on every
// subsequent Run. The plan must be compiled against the set's DTD: events
// carry names interned in one schema, and a plan scheduled under a
// different schema would mis-dispatch on them.
func (s *Set) Register(p *runtime.Plan, out io.Writer) (*Sub, error) {
	return s.RegisterNamed(p, out, "")
}

// RegisterNamed is Register with a display name labelling the plan's
// telemetry series and trace spans ("" derives q1, q2, ... in
// registration order).
func (s *Set) RegisterNamed(p *runtime.Plan, out io.Writer, name string) (*Sub, error) {
	if pd := p.DTD(); pd != s.d && pd.String() != s.dstr {
		return nil, fmt.Errorf("mqe: plan compiled against a different DTD (root <%s>, stream root <%s>)",
			p.DTD().Root, s.d.Root)
	}
	b := &Sub{set: s, plan: p, out: out}
	s.mu.Lock()
	s.nameSeq++
	if name == "" {
		name = fmt.Sprintf("q%d", s.nameSeq)
	}
	b.name = name
	s.subs = append(s.subs, b)
	s.projDirty = true
	s.trieDirty = true
	s.mu.Unlock()
	return b, nil
}

// SetDispatch selects how shared passes fan events out to the riding
// plans: DispatchFanout (the default) delivers every batch to every
// plan, DispatchTrie routes events through the shared dispatch trie so
// per-event cost tracks the distinct registered paths rather than the
// registration count. Takes effect at the next Run.
func (s *Set) SetDispatch(m DispatchMode) {
	s.mu.Lock()
	if m != s.dispatch && m == DispatchTrie {
		s.trieDirty = true
	}
	s.dispatch = m
	s.mu.Unlock()
}

// LastDispatch returns the dispatch-layer statistics of the most recent
// successfully completed Run.
func (s *Set) LastDispatch() DispatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastDispatch
}

// SetProjection selects how shared passes treat stream regions no
// registered plan can use: proj.ModeFast (the default) bulk-skips them in
// the tokenizer, proj.ModeValidate still validates them fully, and
// proj.ModeOff delivers every event. Takes effect at the next Run.
func (s *Set) SetProjection(m proj.Mode) {
	s.mu.Lock()
	s.pmode = m
	s.mu.Unlock()
}

// LastScan returns the projection counters of the most recent
// successfully completed Run and the number of such runs (shared scan
// passes). A Run that fails mid-stream leaves both unchanged.
func (s *Set) LastScan() (xsax.ScanStats, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastScan, s.passes
}

// SetBuffers installs the buffer manager governing shared passes (nil =
// unmanaged). Takes effect at the next Run.
func (s *Set) SetBuffers(m *bufmgr.Manager) {
	s.mu.Lock()
	s.bufs = m
	s.mu.Unlock()
}

// LastStall returns the backpressure stall of the most recent
// successfully completed Run (zero unless bufmgr.PolicyBackpressure
// throttled the pass).
func (s *Set) LastStall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStall
}

// SetTelemetry publishes the set's pass metrics on reg (nil disables).
// Instruments are resolved once here; passes then update them with plain
// atomic operations. Takes effect at the next Run.
func (s *Set) SetTelemetry(reg *telemetry.Registry) {
	mt := newSetMetrics(reg)
	s.mu.Lock()
	s.mt = mt
	s.mu.Unlock()
}

// SetTracing enables span capture of subsequent runs; id correlates the
// traces with an external request ("" for none). Takes effect at the
// next Run.
func (s *Set) SetTracing(on bool, id string) {
	s.mu.Lock()
	s.tracing = on
	s.traceID = id
	s.mu.Unlock()
}

// LastTrace returns the span tree of the most recent successfully
// completed Run, or nil when tracing is off (or no run completed).
func (s *Set) LastTrace() *telemetry.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}

// SetRecorder installs the flight recorder receiving one record per
// completed pass, success or failure (nil disables). When the recorder's
// slow-pass capture policy is armed, subsequent passes build a span tree
// even with tracing off, so a slow pass dumps with full stage
// attribution. Takes effect at the next Run.
func (s *Set) SetRecorder(rec *flightrec.Recorder) {
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

// Recorder returns the installed flight recorder (nil when none).
func (s *Set) Recorder() *flightrec.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// SetRequestID labels subsequent passes' flight-recorder records (and
// slow-pass dumps) with the driving request's id ("" clears it). Takes
// effect at the next Run.
func (s *Set) SetRequestID(id string) {
	s.mu.Lock()
	s.reqID = id
	s.mu.Unlock()
}

// SetLedger installs the per-query cost ledger (nil disables): every
// pass folds each riding plan's cost — evaluator CPU, delivered events,
// output bytes, buffer peaks, errors — into the ledger entry of its
// registration name. Takes effect at the next Run.
func (s *Set) SetLedger(l *Ledger) {
	s.mu.Lock()
	s.ledger = l
	s.mu.Unlock()
}

// Ledger returns the installed cost ledger (nil when none).
func (s *Set) Ledger() *Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger
}

// SetParallel overrides how shared passes execute: n >= 2 runs the
// staged pipeline (tokenize ∥ validate ∥ dispatch), 1 or a negative n
// the sequential single-goroutine pass, and 0 (the default) resolves
// from GOMAXPROCS (ResolveParallel). Takes effect at the next Run.
func (s *Set) SetParallel(n int) {
	s.mu.Lock()
	s.parallel = n
	s.mu.Unlock()
}

// LastPass returns the pass metrics of the most recent successfully
// completed Run (all but Batches zero for sequential passes).
func (s *Set) LastPass() PassStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastPass
}

// recomputeProjLocked rebuilds the union skip automaton from the current
// subscriptions when a Register/Unregister has invalidated it. Called
// with s.mu held at the start of each Run; the previous automaton is
// never mutated, so an in-flight Run that already snapshotted it is
// unaffected (its union is merely wider or narrower than the new
// registration set, both of which are sound for the plans it snapshotted
// alongside).
func (s *Set) recomputeProjLocked() {
	if !s.projDirty {
		return
	}
	s.projDirty = false
	if len(s.subs) == 0 {
		s.pauto = nil
		return
	}
	sets := make([]*proj.PathSet, len(s.subs))
	for i, b := range s.subs {
		sets[i] = b.plan.Paths()
	}
	// Compiled over the stream DTD's name-id vocabulary so the shared
	// pass dispatches verdicts with slice loads. Plans ride with their
	// own (equivalent) DTD: equal String() renderings assign identical
	// ids, which Register's equivalence check guarantees.
	s.pauto = proj.CompileVocab(proj.Union(sets...), s.d.IDNames())
}

// recomputeTrieLocked rebuilds the dispatch trie from the current
// subscriptions when trie dispatch is selected and a registration change
// has invalidated it. Called with s.mu held at the start of each Run —
// the same lock hold that snapshots s.subs, so the trie's plan indices
// always match the subscription slice the pass rides with. The previous
// trie is never mutated (in-flight Runs keep their snapshot). The build
// cost is recorded so a pass can report it; it is paid once per
// registration change, not per pass.
func (s *Set) recomputeTrieLocked() {
	if s.dispatch != DispatchTrie {
		return
	}
	if !s.trieDirty && s.trie != nil {
		return
	}
	s.trieDirty = false
	names := s.d.IDNames()
	// Class the subscriptions by delivery behavior before building: two
	// registrations of the same compiled plan (pointer-identical
	// projection automaton, same shell requirement) receive identical
	// event streams, so the trie is built over the distinct classes and
	// the dispatcher copies each event once per class, fanning to the
	// class members only at flush. Per-event dispatch cost then tracks
	// the distinct registered path families even when thousands of
	// subscriptions share them. Distinct compilations of an identical
	// query form separate (correct, merely undeduplicated) classes.
	type classKey struct {
		auto   *proj.Automaton
		shells bool
	}
	idx := make(map[classKey]int32, len(s.subs))
	reqs := make([]shared.PlanReq, 0, len(s.subs))
	members := make([][]int32, 0, len(s.subs))
	for i, b := range s.subs {
		k := classKey{b.plan.ProjAutomaton(), b.plan.NeedShells()}
		c, ok := idx[k]
		if !ok {
			c = int32(len(reqs))
			idx[k] = c
			reqs = append(reqs, shared.PlanReq{Auto: k.auto, NeedShells: k.shells})
			members = append(members, nil)
		}
		members[c] = append(members[c], int32(i))
	}
	t0 := time.Now()
	s.trie = shared.Build(reqs, len(names))
	s.trieBuild = time.Since(t0)
	s.trieMembers = members
	s.trieMaxFan = 0
	for li := 0; li < s.trie.NumLists(); li++ {
		n := 0
		for _, c := range s.trie.List(int32(li)) {
			n += len(members[c])
		}
		if n > s.trieMaxFan {
			s.trieMaxFan = n
		}
	}
	if s.mt != nil {
		s.mt.recordTrieBuild(s.trie, s.trieMaxFan)
	}
}

// Unregister removes the subscription. An in-flight Run detaches it at
// the next batch boundary, recording ErrUnregistered as its result.
// Unregister is idempotent.
func (b *Sub) Unregister() {
	if b.removed.Swap(true) {
		return
	}
	s := b.set
	s.mu.Lock()
	for i, x := range s.subs {
		if x == b {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
	s.projDirty = true
	s.trieDirty = true
	s.mu.Unlock()
}

// Len returns the number of registered subscriptions.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Result returns the subscription's outcome from the most recent Run that
// included it: the execution statistics, and the error that ended it
// (nil for a clean evaluation).
func (b *Sub) Result() (runtime.Stats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ran {
		return runtime.Stats{}, ErrNotRun
	}
	return b.st, b.err
}

// Duration returns the wall-clock time of the subscription's most recent
// run (the shared pass; all subscriptions of one Run ride the same
// clock).
func (b *Sub) Duration() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dur
}

// setStall overwrites the most recent run's backpressure stall with the
// pass-wide value once the pass has fully ended.
func (b *Sub) setStall(stall time.Duration) {
	b.mu.Lock()
	if b.ran {
		b.st.BudgetStall = stall
	}
	b.mu.Unlock()
}

func (b *Sub) setResult(st *runtime.Stats, dur time.Duration, err error) {
	b.mu.Lock()
	b.ran = true
	if st != nil {
		b.st = *st
	} else {
		b.st = runtime.Stats{}
	}
	b.dur = dur
	b.err = err
	b.mu.Unlock()
}

// Run evaluates every registered plan over one document in a single
// shared tokenize+validate pass. Per-plan results (including per-plan
// failures, which do not disturb the other plans or the stream) are
// recorded on each Sub; Run's own error is the stream's: nil on a
// well-formed, valid document. Concurrent Run calls are serialized:
// every subscription streams to its fixed writer, so passes must not
// overlap on it.
func (s *Set) Run(r io.Reader) error {
	return s.RunContext(nil, r)
}

// RunContext is Run under a cancellation context: the pass checks ctx at
// every batch boundary, parked stages (gate waits, ring hand-offs)
// unpark on cancellation, and ctx's error becomes both the pass's return
// and every riding plan's terminal error — a cancelled plan always
// reports the cancellation, never a silently truncated result. A nil or
// non-cancellable ctx degrades to Run.
func (s *Set) RunContext(ctx context.Context, r io.Reader) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	s.recomputeProjLocked()
	s.recomputeTrieLocked()
	subs := make([]*Sub, len(s.subs))
	copy(subs, s.subs)
	disp := s.disp
	disp.Proj = s.pauto
	disp.ProjMode = s.pmode
	parallel := ResolveParallel(s.parallel)
	disp.Parallel = parallel
	var ds DispatchStats
	ds.Mode = s.dispatch.String()
	ds.Plans = len(subs)
	if s.dispatch == DispatchTrie {
		disp.Trie = s.trie
		disp.Members = s.trieMembers
		disp.Disp = &ds
		ds.TrieNodes = s.trie.NumNodes()
		ds.TrieLists = s.trie.NumLists()
		ds.MaxFanout = s.trieMaxFan
		ds.BuildNanos = s.trieBuild.Nanoseconds()
	}
	bufs := s.bufs
	mt := s.mt
	tracing := s.tracing
	traceID := s.traceID
	pmode := s.pmode
	rec := s.rec
	reqID := s.reqID
	ledger := s.ledger
	s.mu.Unlock()

	// One gate per pass, one account per riding plan: the gate throttles
	// the shared scan under backpressure, the accounts isolate budget
	// enforcement per plan (an over-budget query fails or spills alone).
	gate := bufs.NewGate()
	disp.Gate = gate
	if ctx != nil && ctx.Done() != nil {
		disp.Ctx = ctx
		gate.Bind(ctx)
	}

	// Every pass gets a process-unique id; a trace (span capture) when
	// tracing is on — or when the flight recorder's slow-pass policy is
	// armed, so a pass that turns out slow dumps with its span tree even
	// though tracing was never enabled. The span tree is built up front
	// on this goroutine — the pass's own synchronization then makes
	// per-span writes safe (one owner per span per batch, barriers
	// between batches).
	var tr *telemetry.Trace
	var passID uint64
	var obs *PassObs
	if tracing || rec.CapturesSlow() {
		tr = telemetry.NewTrace(traceID)
		passID = tr.PassID
	} else {
		passID = telemetry.NextPassID()
	}
	if tr != nil || mt != nil || rec != nil {
		obs = &PassObs{Scan: tr.Span().Child("scan"), Dispatch: tr.Span().Child("dispatch")}
		disp.Obs = obs
	}
	var faults0 int64
	if rec != nil {
		faults0 = faultinj.TotalInjected()
	}

	start := time.Now()
	consumers := make([]Consumer, len(subs))
	for i, b := range subs {
		acct := gate.NewAccount()
		consumers[i] = &subRun{
			sub:    b,
			se:     b.plan.NewStepExecBudgeted(b.out, acct),
			acct:   acct,
			start:  start,
			passID: passID,
			hist:   mt.evalSeconds(b.name),
			span:   obs.evalSpan(b.name),
			ledger: ledger,
		}
	}
	sc, ps, err := disp.RunScanPass(r, consumers)
	wall := time.Since(start)
	stall := gate.Stall()
	// Every riding plan reports the same full-pass stall (a consumer
	// that settled mid-pass snapshotted only what had accrued by then).
	for _, c := range consumers {
		if rr, ok := c.(*subRun); ok {
			rr.sub.setStall(stall)
		}
	}
	gate.Close()
	if tr != nil {
		obs.StampTrace(tr, sc, ps, stall)
	}
	if err == nil {
		if mt != nil {
			s.recordPass(mt, obs, sc, ps, stall, wall)
			mt.recordDispatch(ds)
		}
		s.mu.Lock()
		s.lastScan = sc
		s.passes++
		s.lastStall = stall
		s.lastPass = ps
		s.lastDispatch = ds
		// lastTrace is the user-facing tracing feature; a trace built
		// only for slow-pass capture stays out of it.
		if tr != nil && tracing {
			s.lastTrace = tr
		}
		s.mu.Unlock()
	} else {
		mt.cancelled(err)
	}
	if rec != nil {
		fr := flightrec.Record{
			PassID:         passID,
			RequestID:      reqID,
			Start:          start,
			Duration:       wall,
			Projection:     pmode.String(),
			Dispatch:       ds.Mode,
			Parallel:       parallel,
			Plans:          len(subs),
			InputBytes:     sc.BytesRead,
			Events:         obs.Events,
			Batches:        obs.Batches,
			TokenizeStall:  ps.TokenizeStall,
			ValidateStall:  ps.ValidateStall,
			DispatchStall:  ps.DispatchStall,
			GateStall:      stall,
			TokenRingPeak:  ps.TokenRingPeak,
			EventRingPeak:  ps.EventRingPeak,
			TrieEvents:     ds.Events,
			TrieDeliveries: ds.Deliveries,
			FaultHits:      faultinj.TotalInjected() - faults0,
			Trace:          tr,
		}
		if wall > 0 {
			fr.MBps = float64(sc.BytesRead) / (1 << 20) / wall.Seconds()
		}
		for _, b := range subs {
			st, serr := b.Result()
			if serr != nil && !errors.Is(serr, ErrNotRun) {
				fr.PlanErrors++
			}
			if st.PeakHeapBufferBytes > fr.BufferPeak {
				fr.BufferPeak = st.PeakHeapBufferBytes
			}
			fr.SpilledBytes += st.SpilledBytes
			fr.RehydratedBytes += st.RehydratedBytes
		}
		if err != nil {
			fr.Err = err.Error()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				fr.CancelReason = "deadline"
			case errors.Is(err, context.Canceled):
				fr.CancelReason = "canceled"
			}
		}
		rec.Record(fr)
	}
	return err
}

// evalSpan resolves the trace span of one riding plan (nil when tracing
// is off). Eval spans hang off the dispatch span: that is the stage that
// hands them their batches.
func (o *PassObs) evalSpan(name string) *telemetry.Span {
	if o == nil {
		return nil
	}
	return o.Dispatch.Child("eval:" + name)
}

// StampTrace finishes and ends a pass's span tree: the pass's gate stall
// on the root, data flow on the scan span and, for a pipelined pass,
// tokenize and validate children with their stage stalls and ring peaks.
func (obs *PassObs) StampTrace(tr *telemetry.Trace, sc xsax.ScanStats, ps PassStats, stall time.Duration) {
	tr.Span().AddStall(stall)
	obs.Scan.AddBytes(sc.BytesRead)
	obs.Scan.AddEvents(obs.Events)
	if ps.Parallel >= 2 {
		tok := obs.Scan.Child("tokenize")
		tok.AddStall(ps.TokenizeStall)
		tok.SetRingPeak(ps.TokenRingPeak)
		val := obs.Scan.Child("validate")
		val.AddStall(ps.ValidateStall)
		val.SetRingPeak(ps.EventRingPeak)
	}
	tr.End()
}

// recordPass publishes one completed pass's statistics to the metric
// bundle.
func (s *Set) recordPass(mt *setMetrics, obs *PassObs, sc xsax.ScanStats, ps PassStats, stall, wall time.Duration) {
	mt.passes.Inc()
	mt.bytes.Add(sc.BytesRead)
	mt.events.Add(obs.Events)
	mt.batches.Add(obs.Batches)
	mt.passSeconds.Observe(wall.Nanoseconds())
	mt.passBytes.Observe(sc.BytesRead)
	mt.stallGate.Add(stall.Nanoseconds())
	if ps.Parallel >= 2 {
		mt.stallTokenize.Add(ps.TokenizeStall.Nanoseconds())
		mt.stallValidate.Add(ps.ValidateStall.Nanoseconds())
		mt.stallDispatch.Add(ps.DispatchStall.Nanoseconds())
		mt.ringToken.Observe(int64(ps.TokenRingPeak))
		mt.ringEvent.Observe(int64(ps.EventRingPeak))
	}
}

// subRun drives one subscription's StepExec through a single dispatcher
// pass, recording the result on the Sub when the execution settles.
type subRun struct {
	sub   *Sub
	se    *runtime.StepExec
	acct  *bufmgr.Account
	start time.Time
	done  bool
	// passID stamps the pass's process-unique id on the result stats.
	// hist and span (nil when telemetry/tracing are off) receive the
	// plan's per-batch eval latency: BeginFeed stamps t0, EndFeed — which
	// blocks until the plan's evaluator has consumed the batch —
	// observes. The dispatcher goroutine makes both calls and finishes
	// one batch before the next, so t0 never races.
	passID uint64
	hist   *telemetry.Histogram
	span   *telemetry.Span
	t0     time.Time
	// ledger (nil when cost attribution is off) receives the plan's
	// settled pass outcome; evalCPU accumulates the plan's per-batch
	// eval wall time for it, measured on the same t0 clock as hist/span.
	ledger  *Ledger
	evalCPU time.Duration
}

// measures reports whether the run needs per-batch eval timing (any of
// the latency histogram, the trace span or the cost ledger is wired).
func (rr *subRun) measures() bool {
	return rr.hist != nil || rr.span != nil || rr.ledger != nil
}

func (rr *subRun) BeginFeed(evs []xsax.Event) {
	if rr.done {
		return
	}
	if rr.sub.removed.Load() {
		rr.finish(ErrUnregistered)
		return
	}
	if rr.measures() {
		rr.t0 = time.Now()
	}
	rr.se.BeginFeed(evs)
}

func (rr *subRun) EndFeed() (done bool, err error) {
	if rr.done {
		return true, nil
	}
	done, err = rr.se.EndFeed()
	if rr.measures() {
		d := time.Since(rr.t0)
		rr.hist.Observe(d.Nanoseconds())
		rr.span.AddTime(d)
		rr.evalCPU += d
	}
	return done, err
}

func (rr *subRun) Close(cause error) {
	if rr.done {
		return
	}
	// A subscription unregistered mid-stream must report ErrUnregistered
	// even if no batch reached it after the unregistration — under trie
	// dispatch a plan whose paths see nothing of the stream tail is never
	// fed again, so the BeginFeed check alone would miss it.
	if rr.sub.removed.Load() {
		rr.finish(ErrUnregistered)
		return
	}
	rr.finish(cause)
}

func (rr *subRun) finish(cause error) {
	rr.done = true
	st, err := rr.se.Close(cause)
	if rr.acct != nil {
		as := rr.acct.Close()
		if st != nil {
			st.PeakHeapBufferBytes = as.PeakBytes
			st.SpilledBytes = as.SpilledBytes
			st.RehydratedBytes = as.RehydratedBytes
			// BudgetStall is stamped by Set.Run once the pass ends, so
			// every riding plan reports the same pass-wide stall.
		}
	}
	if st != nil {
		st.PassID = rr.passID
	}
	rr.ledger.record(rr.sub.name, st, rr.evalCPU, err)
	rr.sub.setResult(st, time.Since(rr.start), err)
}
