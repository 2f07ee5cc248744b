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
// plan with Plan.Run.
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
	// 32 KiB of payload).
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
	// batch rings (see parallel.go). The value sets no worker count: the
	// plans already evaluate on their own goroutines. 0 or 1 is the
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

// Default batch bounds; see runtime's feed batch sizing for rationale.
const (
	defaultBatchEvents = 256
	defaultBatchBytes  = 32 << 10
)

// Run tokenizes and validates r exactly once, fanning every event out to
// consumers. A consumer that terminates early is detached and the pass
// continues for the others; the stream is always scanned to its end (or
// first stream error), so a Run over zero consumers is a validation pass.
// Run returns the stream's error — nil on a well-formed, valid document —
// regardless of consumer failures, which are reported through each
// consumer's Close.
func (d *Dispatcher) Run(r io.Reader, consumers []Consumer) error {
	_, _, err := d.RunScanPass(r, consumers)
	return err
}

// RunScan is the sequential shared pass (Parallel is ignored), reporting
// the pass's projection scan statistics (all zeros when Proj is nil).
func (d *Dispatcher) RunScan(r io.Reader, consumers []Consumer) (xsax.ScanStats, error) {
	maxEvents := d.BatchEvents
	if maxEvents <= 0 {
		maxEvents = defaultBatchEvents
	}
	maxBytes := d.BatchBytes
	if maxBytes <= 0 {
		maxBytes = defaultBatchBytes
	}

	f := newFanout(consumers)
	xr := xsax.GetReader(r, d.DTD)
	if d.Proj != nil && d.ProjMode != proj.ModeOff {
		xr.SetProjection(d.Proj, d.ProjMode)
	}
	b := xsax.GetBatch()
	obs := d.Obs
	var scanTime, dispTime time.Duration
	var batches, events int64
	var cause error
	for cause == nil {
		if err := d.ctxErr(); err != nil {
			cause = err
			break
		}
		if err := d.Gate.Wait(); err != nil {
			cause = err
			break
		}
		b.Reset()
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		for b.Len() < maxEvents && b.ArenaBytes() < maxBytes {
			ev, err := xr.NextEvent()
			if err != nil {
				cause = err
				break
			}
			b.Append(ev)
		}
		var t1 time.Time
		if obs != nil {
			t1 = time.Now()
			scanTime += t1.Sub(t0)
		}
		if b.Len() == 0 {
			continue
		}
		// The plans evaluate concurrently; the batch arena is reused only
		// after the slowest acknowledgement.
		f.feed(b.Events)
		if obs != nil {
			dispTime += time.Since(t1)
			batches++
			events += int64(b.Len())
		}
	}
	f.close(cause)
	if obs != nil {
		obs.Scan.AddTime(scanTime)
		obs.Dispatch.AddTime(dispTime)
		obs.Batches = batches
		obs.Events = events
	}
	sc := xr.ScanStats()
	xsax.PutBatch(b)
	xsax.PutReader(xr)
	if cause == io.EOF {
		return sc, nil
	}
	return sc, cause
}
