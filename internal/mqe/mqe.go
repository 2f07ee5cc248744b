// Package mqe is the shared-stream multi-query engine: it tokenizes and
// validates an XML input stream exactly once and fans every event out to
// any number of registered compiled plans, so the N-queries-one-stream
// workload pays for one parse instead of N.
//
// The package has two layers. Dispatcher is the mechanism: one validated
// pass over a stream, delivered batch-by-batch to a set of Consumers with
// per-consumer error isolation — a failing consumer is detached, the
// stream and the other consumers continue. Set is the policy: a registry
// of (plan, output writer) subscriptions that can be registered and
// unregistered concurrently, each Run evaluating the current
// subscriptions over one document in a single shared pass.
//
// # Event-fanout ownership rules
//
// The dispatcher copies each scanner event once into an owned batch
// (xsax.Batch) and hands the same batch to every consumer, concurrently.
// Three rules keep that sound:
//
//  1. Batch memory belongs to the dispatcher. The events a consumer sees
//     in Feed — including every Data and attribute byte view — are valid
//     only until the consumer acknowledges the batch (EndFeed returns for
//     it). A consumer that retains data across batches must copy it; the
//     runtime evaluator copies exactly at its BDF buffer-fill points
//     (dom materialization, OwnedAttrs), which is the paper's own
//     stream/buffer boundary.
//  2. Batches are read-only. Many consumers read the same arena
//     concurrently; no consumer may mutate an event in place.
//  3. Interned data is exempt. Element names and *dtd.Element
//     declarations are interned in the DTD and safe to retain forever;
//     attribute names resolve through the scanner's symbol table, which
//     consumers may read while they hold the batch (the table publishes
//     every new name atomically, so a reader stage scanning ahead never
//     tears it).
//
// Zero-copy views therefore never cross a plan boundary un-copied: the
// dispatcher's single batch copy replaces the N per-plan scans, and each
// plan's own buffering discipline is unchanged from single-query
// execution — which is why Set output is byte-identical to running each
// plan alone, and why a single-plan execution (fluxquery's Plan.Execute)
// is simply a one-consumer pass of the same Dispatcher.
package mqe

import (
	"context"
	"io"
	"time"

	"fluxquery/internal/bufmgr"
	"fluxquery/internal/dtd"
	"fluxquery/internal/faultinj"
	"fluxquery/internal/proj"
	"fluxquery/internal/shared"
	"fluxquery/internal/xsax"
)

// Consumer is one sink of the shared event stream. The dispatcher calls
// BeginFeed on every live consumer with the same owned batch, then
// EndFeed on each, so consumers process a batch concurrently while the
// dispatcher itself blocks. After EndFeed reports done (or after the
// dispatcher's pass ends) the consumer receives exactly one Close with
// the stream's terminal status: io.EOF for a clean end, the stream error
// otherwise. A panic escaping BeginFeed or EndFeed detaches that consumer
// alone: its one Close carries the panic as the error.
type Consumer interface {
	// BeginFeed hands over a batch of owned events without waiting.
	BeginFeed(evs []xsax.Event)
	// EndFeed blocks until the batch from BeginFeed is consumed and
	// reports whether the consumer terminated (with its error).
	EndFeed() (done bool, err error)
	// Close delivers the stream's terminal status. It must be idempotent.
	Close(cause error)
}

// Dispatcher drives single validated passes over input streams. The zero
// value is not usable: a Dispatcher needs the stream's DTD.
type Dispatcher struct {
	// DTD validates the stream; every event carries names interned here.
	DTD *dtd.DTD
	// BatchEvents and BatchBytes bound a batch (defaults 256 events,
	// 32 KiB of payload; a pipelined pass scans 4x that per batch).
	BatchEvents int
	BatchBytes  int
	// Proj, when non-nil, projects the shared pass: only events relevant
	// to the automaton (the union of every riding plan's path-set) are
	// delivered; pruned subtrees are fed as start/end shells. ProjMode
	// selects fast (bulk tokenizer skips) or validate (full validation,
	// filtered delivery) handling of pruned regions.
	Proj     *proj.Automaton
	ProjMode proj.Mode
	// Gate, when non-nil, is the pass's backpressure point: the
	// dispatcher waits on it before scanning each batch, so under
	// bufmgr.PolicyBackpressure the whole shared pass throttles while
	// the process is over budget and another pass can drain. The gate
	// covers the pass, not individual consumers — blocking one consumer
	// of a batch would deadlock against the siblings that could free
	// memory only when fed.
	Gate *bufmgr.Gate
	// Parallel, when >= 2, runs passes in pipelined form: the validating
	// reader fills batches on its own goroutine, one bounded ring ahead
	// of dispatch. The value sets no worker count: the plans already
	// evaluate on their own goroutines. Any value below 2 is the
	// sequential pass.
	Parallel int
	// Trie, when non-nil, replaces whole-batch fanout with trie-routed
	// dispatch (see trie.go): each event resolves one trie node and is
	// delivered only to the plans whose fan-out list names them. The trie
	// must be built for exactly the consumers passed to the pass, in
	// order (consumers[i] is plan index i).
	Trie *shared.Trie
	// Members, when non-nil alongside Trie, maps each trie plan index (a
	// delivery class) to the consumer indices riding it: the trie was
	// built over deduplicated delivery classes and each routed event is
	// buffered once per class, fed to every member at flush. nil means
	// the trie's plan indices are consumer indices (one class each).
	Members [][]int32
	// Disp, when non-nil alongside Trie, receives the pass's routing
	// totals (events routed, per-plan deliveries, batch flushes).
	Disp *DispatchStats
	// Obs, when non-nil, receives the pass's stage timings and delivery
	// totals (see PassObs). The disabled path is one nil check per batch.
	Obs *PassObs
	// Ctx, when non-nil, cancels the pass: the driver checks it at every
	// batch boundary, the gate wait unparks on cancellation (bind the
	// gate to the same context), and a pipelined pass stops waiting on
	// its rings. Cancellation is the pass's terminal error — every
	// riding consumer receives it through Close, so partial output is
	// always flagged as errored, never silently truncated.
	Ctx context.Context
}

// ctxErr returns the dispatcher context's error, nil without a context.
func (d *Dispatcher) ctxErr() error {
	if d.Ctx == nil {
		return nil
	}
	return d.Ctx.Err()
}

// Default batch bounds: enough events to amortize the per-batch
// rendezvous (one channel round trip per riding plan) to noise, small
// enough that the owned-copy arena stays cache-resident. A pipelined
// pass scans 4x these per batch by default (see newSource).
const (
	defaultBatchEvents = 256
	defaultBatchBytes  = 32 << 10
)

// RunScanPass tokenizes and validates r exactly once, handing every
// validated batch to consumers: the whole batch to every live consumer,
// or trie-routed per-class batches when Trie is set. With Parallel >= 2
// the scan runs on a goroutine of its own, a ring ahead of the pass
// loop, otherwise on the calling goroutine. A consumer that terminates
// early is detached and the pass continues for the others; the stream is
// scanned to its end, its first error or cancellation, so a pass over
// zero consumers is a validation pass. The returned error is the
// stream's — nil on a well-formed, valid document — regardless of
// consumer failures, which each consumer receives through its Close. The
// ScanStats report the pass's projection (all zeros when Proj is nil).
//
// This is the engine's one pass loop: Set runs it over the registered
// plans, and a single-plan execution is a one-consumer pass of it.
func (d *Dispatcher) RunScanPass(r io.Reader, consumers []Consumer) (xsax.ScanStats, PassStats, error) {
	src := d.newSource(r)
	snk := d.newSink(consumers)
	obs := d.Obs
	var scanTime, dispTime time.Duration
	var batches, events int64
	var cause error
	for cause == nil {
		if cause = d.ctxErr(); cause == nil {
			cause = src.throttle()
		}
		if cause != nil {
			break
		}
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		var evs []xsax.Event
		evs, cause = src.next()
		var t1 time.Time
		if obs != nil {
			t1 = time.Now()
			scanTime += t1.Sub(t0)
		}
		if len(evs) > 0 {
			batches++
			events += int64(len(evs))
			// The plans evaluate concurrently; the batch memory is reused
			// only after the slowest acknowledgement.
			snk.feed(evs)
			if obs != nil {
				dispTime += time.Since(t1)
			}
		}
		src.recycle()
	}
	// Close consumers (releasing their budget accounts) before joining
	// the reader stage: it may be parked in a gate wait that only drains
	// when accounts release.
	snk.close(cause)
	sc, ps := src.close()
	ps.Batches = batches
	if obs != nil {
		// In a pipelined pass the "scan" time is the wait on the ring —
		// the reader stage overlaps it, so its child span describes
		// concurrent work, not a partition of the wall clock (the
		// sequential pass's spans do partition it).
		obs.Scan.AddTime(scanTime)
		obs.Scan.AddStall(ps.DispatchStall)
		obs.Dispatch.AddTime(dispTime)
		obs.Batches = batches
		obs.Events = events
	}
	if cause == io.EOF {
		cause = nil
	}
	return sc, ps, cause
}

// batchSource supplies a pass's validated batches. Both kinds run one
// pooled projecting xsax.Reader through the same fill loop: a sequential
// source fills its one batch on the pass loop's goroutine; a pipelined
// source fills on its own producer goroutine (produce) and hands each
// batch to the pass loop over a bounded ring — full carries filled
// batches downstream, free returns them. The batch population is fixed
// at defaultRingDepth+1, so a producer that outruns the plans blocks on
// the full ring (backpressure) and a pass loop that outruns the scan
// blocks on it empty; both blocked times are accounted as stalls.
type batchSource struct {
	xr                  *xsax.Reader
	gate                *bufmgr.Gate
	maxEvents, maxBytes int
	// b is the batch the last next returned: the sequential source's one
	// reused batch, or the ring batch the pass loop holds until recycle.
	b *xsax.Batch

	// Pipelined only (full is nil for a sequential source). err is the
	// producer's terminal status, published by closing full; scanStall
	// and peak are written by the producer and read after it has joined.
	parallel   int
	full, free chan *xsax.Batch
	quit       chan struct{}
	ctx        context.Context
	ctxDone    <-chan struct{}
	err        error
	scanStall  time.Duration
	dispStall  time.Duration
	peak       int
}

// defaultRingDepth bounds the pipelined pass's ring, in batches: deep
// enough that the reader runs on through a slow batch of evaluation,
// shallow enough that the ring holds at most a few hundred KiB of
// batch arena.
const defaultRingDepth = 4

// newSource opens the pass's batch source. Pipelined batches default to
// 4x the sequential size: every batch pays a ring hand-off plus one feed
// rendezvous per plan, so larger batches amortize the coordination
// without changing delivery semantics. Explicit Dispatcher sizes win.
func (d *Dispatcher) newSource(r io.Reader) *batchSource {
	be, bb, scale := d.BatchEvents, d.BatchBytes, 1
	if d.Parallel >= 2 {
		scale = 4
	}
	if be <= 0 {
		be = scale * defaultBatchEvents
	}
	if bb <= 0 {
		bb = scale * defaultBatchBytes
	}
	xr := xsax.GetReader(r, d.DTD)
	xr.SetProjection(d.Proj, d.ProjMode)
	s := &batchSource{xr: xr, gate: d.Gate, maxEvents: be, maxBytes: bb}
	if d.Parallel < 2 {
		s.b = xsax.GetBatch()
		return s
	}
	s.parallel = d.Parallel
	s.full = make(chan *xsax.Batch, defaultRingDepth)
	s.free = make(chan *xsax.Batch, defaultRingDepth+1)
	for range defaultRingDepth + 1 {
		s.free <- xsax.GetBatch()
	}
	s.quit = make(chan struct{})
	if d.Ctx != nil {
		s.ctx, s.ctxDone = d.Ctx, d.Ctx.Done()
	}
	go s.produce()
	return s
}

// fill refills b from the reader up to the batch bounds. It returns the
// stream's terminal status once the stream ends (io.EOF for a clean end);
// b may then hold a last, partial batch.
func (s *batchSource) fill(b *xsax.Batch) error {
	b.Reset()
	for b.Len() < s.maxEvents && b.ArenaBytes() < s.maxBytes {
		ev, err := s.xr.NextEvent()
		if err != nil {
			return err
		}
		b.Append(ev)
	}
	return nil
}

// produce is a pipelined source's reader stage: it waits on the gate
// (the pass's backpressure point) before each fill and sends every
// non-empty batch into the ring, until the stream ends, a send fails or
// close quits it. Closing full publishes err and joins the stage.
func (s *batchSource) produce() {
	defer close(s.full)
	for {
		var b *xsax.Batch
		select {
		case b = <-s.free:
		case <-s.quit:
			return
		}
		if err := s.gate.Wait(); err != nil {
			s.err = err
			xsax.PutBatch(b)
			return
		}
		err := s.fill(b)
		if b.Len() > 0 {
			if !s.send(b) {
				return
			}
		} else {
			s.free <- b
		}
		if err != nil {
			s.err = err
			return
		}
	}
}

// send hands a filled batch to the pass loop, accounting blocked time as
// the scan stall. It reports false when the pass was abandoned or an
// injected ring fault dropped the hand-off (the fault becomes the pass's
// terminal error).
func (s *batchSource) send(b *xsax.Batch) bool {
	if err := faultinj.Hit(faultinj.SiteRingEvent); err != nil {
		s.err = err
		xsax.PutBatch(b)
		return false
	}
	select {
	case s.full <- b:
	default:
		start := time.Now()
		select {
		case s.full <- b:
			s.scanStall += time.Since(start)
		case <-s.quit:
			xsax.PutBatch(b)
			return false
		}
	}
	if n := len(s.full); n > s.peak {
		s.peak = n
	}
	return true
}

// throttle is the sequential pass's backpressure point: under
// bufmgr.PolicyBackpressure the gate blocks the scan while the process
// is over budget and another pass can still drain; a bound gate also
// unparks on cancellation. A pipelined pass throttles in produce.
func (s *batchSource) throttle() error {
	if s.full != nil {
		return nil
	}
	return s.gate.Wait()
}

// next returns the next batch of validated events, with the stream's
// terminal status once it ends (io.EOF for a clean end). A sequential
// source may return a last, partial batch alongside the error; a
// pipelined one returns its last batch first and the status on the next
// call, or the context's error as soon as the pass is cancelled. The
// events are valid until recycle.
func (s *batchSource) next() ([]xsax.Event, error) {
	if s.full == nil {
		err := s.fill(s.b)
		return s.b.Events, err
	}
	var ok bool
	select {
	case s.b, ok = <-s.full:
	default:
		start := time.Now()
		select {
		case s.b, ok = <-s.full:
		case <-s.ctxDone:
			s.dispStall += time.Since(start)
			return nil, s.ctx.Err()
		}
		s.dispStall += time.Since(start)
	}
	if !ok {
		return nil, s.err
	}
	return s.b.Events, nil
}

// recycle releases the batch the last next returned. A pipelined
// source's free ring has room for the whole population, so the send
// never blocks.
func (s *batchSource) recycle() {
	if s.full != nil && s.b != nil {
		s.free <- s.b
		s.b = nil
	}
}

// close ends the source, returning the pass's scan statistics and, for a
// pipelined pass, its stage metrics. A pipelined source first quits and
// joins its producer: draining full until the producer closes it.
func (s *batchSource) close() (xsax.ScanStats, PassStats) {
	var ps PassStats
	if s.full != nil {
		close(s.quit)
		for b := range s.full {
			xsax.PutBatch(b)
		}
		for len(s.free) > 0 {
			xsax.PutBatch(<-s.free)
		}
		ps = PassStats{
			Parallel:      s.parallel,
			ScanStall:     s.scanStall,
			DispatchStall: s.dispStall,
			RingPeak:      s.peak,
		}
	} else {
		xsax.PutBatch(s.b)
	}
	sc := s.xr.ScanStats()
	xsax.PutReader(s.xr)
	return sc, ps
}

// sink is a pass's delivery side: whole-batch fanout or trie routing.
type sink interface {
	// feed delivers one validated batch; its memory is reused once feed
	// returns.
	feed(evs []xsax.Event)
	// close delivers the stream's terminal status to every consumer
	// still live.
	close(cause error)
}

func (d *Dispatcher) newSink(consumers []Consumer) sink {
	if d.Trie == nil {
		return newFanout(consumers)
	}
	be, bb := d.BatchEvents, d.BatchBytes
	if be <= 0 {
		be = defaultBatchEvents
	}
	if bb <= 0 {
		bb = defaultBatchBytes
	}
	return newTrieSink(d.Trie, d.Members, consumers, be, bb, d.Disp)
}
