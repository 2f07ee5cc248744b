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
//     consumers may read while they hold the batch (the scanner is idle
//     until every consumer has acknowledged it).
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
	// dispatcher waits on it before tokenizing each batch, so under
	// bufmgr.PolicyBackpressure the whole shared pass throttles while
	// the process is over budget and another pass can drain. The gate
	// covers the pass, not individual consumers — blocking one consumer
	// of a batch would deadlock against the siblings that could free
	// memory only when fed.
	Gate *bufmgr.Gate
	// Parallel, when >= 2, runs passes in pipelined form: tokenize,
	// validate and dispatch on separate goroutines connected by bounded
	// batch rings (xsax.Pipeline). The value sets no worker count: the
	// plans already evaluate on their own goroutines. Any value below 2
	// is the sequential pass.
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
// the scan runs pipelined (xsax.Pipeline), otherwise on the calling
// goroutine. A consumer that terminates early is detached and the pass
// continues for the others; the stream is scanned to its end, its first
// error or cancellation, so a pass over zero consumers is a validation
// pass. The returned error is the stream's — nil on a well-formed, valid
// document — regardless of consumer failures, which each consumer
// receives through its Close. The ScanStats report the pass's
// projection (all zeros when Proj is nil).
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
	// the pipeline: the tokenizer stage may be parked in a gate wait
	// that only drains when accounts release.
	snk.close(cause)
	sc, ps := src.close()
	ps.Batches = batches
	if obs != nil {
		// In a pipelined pass the "scan" time is the wait on the
		// validated-batch ring — the stage goroutines overlap it, so child
		// spans there describe concurrent work, not a partition of the
		// wall clock (the sequential pass's spans do partition it).
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

// batchSource supplies a pass's validated batches: a pooled reader
// filling one owned batch per call (sequential), or the validated-batch
// ring of an xsax.Pipeline (pipelined).
type batchSource struct {
	// Sequential: the gate is waited on before each fill.
	gate                *bufmgr.Gate
	xr                  *xsax.Reader
	b                   *xsax.Batch
	maxEvents, maxBytes int
	// Pipelined: vb is the ring batch handed out by the last next.
	pl       *xsax.Pipeline
	vb       *xsax.Batch
	parallel int
}

// newSource opens the pass's batch source. Pipelined batches default to
// 4x the sequential size: every batch pays two ring hand-offs plus one
// feed rendezvous per plan, so larger batches amortize the coordination
// without changing delivery semantics. Explicit Dispatcher sizes win.
func (d *Dispatcher) newSource(r io.Reader) *batchSource {
	var pa *proj.Automaton
	if d.ProjMode != proj.ModeOff {
		pa = d.Proj
	}
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
	if d.Parallel >= 2 {
		return &batchSource{parallel: d.Parallel, pl: xsax.NewPipeline(r, d.DTD, xsax.PipelineConfig{
			BatchEvents: be,
			BatchBytes:  bb,
			Proj:        pa,
			ProjMode:    d.ProjMode,
			// The backpressure point moves into the tokenizer stage.
			Throttle: d.Gate.Wait,
			Ctx:      d.Ctx,
		})}
	}
	xr := xsax.GetReader(r, d.DTD)
	if pa != nil {
		xr.SetProjection(pa, d.ProjMode)
	}
	return &batchSource{gate: d.Gate, xr: xr, b: xsax.GetBatch(), maxEvents: be, maxBytes: bb}
}

// throttle is the sequential pass's backpressure point: under
// bufmgr.PolicyBackpressure the gate blocks the scan while the process
// is over budget and another pass can still drain; a bound gate also
// unparks on cancellation. A pipelined pass throttles in its tokenizer
// stage instead.
func (s *batchSource) throttle() error {
	if s.pl != nil {
		return nil
	}
	return s.gate.Wait()
}

// next returns the next batch of validated events, with the stream's
// terminal status once it ends (io.EOF for a clean end). A sequential
// source may return a last, partial batch alongside the error. The
// events are valid until recycle.
func (s *batchSource) next() ([]xsax.Event, error) {
	if s.pl != nil {
		vb, err := s.pl.Next()
		if err != nil {
			return nil, err
		}
		s.vb = vb
		return vb.Events, nil
	}
	s.b.Reset()
	for s.b.Len() < s.maxEvents && s.b.ArenaBytes() < s.maxBytes {
		ev, err := s.xr.NextEvent()
		if err != nil {
			return s.b.Events, err
		}
		s.b.Append(ev)
	}
	return s.b.Events, nil
}

// recycle releases the batch the last next returned.
func (s *batchSource) recycle() {
	if s.vb != nil {
		s.pl.Recycle(s.vb)
		s.vb = nil
	}
}

// close ends the source, returning the pass's scan statistics and, for a
// pipelined pass, its stage metrics.
func (s *batchSource) close() (xsax.ScanStats, PassStats) {
	if s.pl != nil {
		sc, pps, _ := s.pl.Close()
		return sc, PassStats{
			Parallel:      s.parallel,
			TokenizeStall: pps.TokStall,
			ValidateStall: pps.ValStall,
			DispatchStall: pps.DispStall,
			TokenRingPeak: pps.TokRingPeak,
			EventRingPeak: pps.ValRingPeak,
		}
	}
	sc := s.xr.ScanStats()
	xsax.PutBatch(s.b)
	xsax.PutReader(s.xr)
	return sc, PassStats{}
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
