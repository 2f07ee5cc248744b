package mqe

import (
	"context"
	"errors"

	"fluxquery/internal/shared"
	"fluxquery/internal/telemetry"
)

// setMetrics is a Set's resolved instrument bundle: every series the
// shared pass publishes, looked up in the registry once at SetTelemetry
// time so pass execution performs only atomic updates. A nil *setMetrics
// is the disabled state — the instruments inside are then never touched,
// and the instruments themselves are nil-safe besides, so no call site
// needs a second guard.
type setMetrics struct {
	reg *telemetry.Registry

	passes  *telemetry.Counter
	bytes   *telemetry.Counter
	events  *telemetry.Counter
	batches *telemetry.Counter

	passSeconds *telemetry.Histogram
	passBytes   *telemetry.Histogram

	stallTokenize *telemetry.Counter
	stallValidate *telemetry.Counter
	stallDispatch *telemetry.Counter
	stallGate     *telemetry.Counter

	ringToken *telemetry.Histogram
	ringEvent *telemetry.Histogram

	trieNodes      *telemetry.Gauge
	trieLists      *telemetry.Gauge
	trieMaxFanout  *telemetry.Gauge
	trieRebuilds   *telemetry.Counter
	trieEvents     *telemetry.Counter
	trieDeliveries *telemetry.Counter
	trieFlushes    *telemetry.Counter
}

func newSetMetrics(reg *telemetry.Registry) *setMetrics {
	if reg == nil {
		return nil
	}
	const stallHelp = "Cumulative time a pass stage spent blocked, by stage."
	const ringHelp = "Per-pass high-water ring occupancy, by ring (pipelined passes)."
	return &setMetrics{
		reg: reg,
		passes: reg.Counter("flux_scan_passes_total",
			"Completed shared scan passes."),
		bytes: reg.Counter("flux_scan_bytes_total",
			"Raw input bytes consumed by scan passes."),
		events: reg.Counter("flux_scan_events_total",
			"Validated events fanned out to riding plans."),
		batches: reg.Counter("flux_dispatch_batches_total",
			"Event batches dispatched to riding plans."),
		passSeconds: reg.Histogram("flux_pass_seconds",
			"Wall time of one shared scan pass.",
			telemetry.PassLatencyBuckets, telemetry.ScaleNanos),
		passBytes: reg.Histogram("flux_pass_input_bytes",
			"Raw input size of one shared scan pass.",
			telemetry.SizeBuckets, telemetry.ScaleNone),
		stallTokenize: reg.CounterScaled("flux_stage_stall_seconds_total", stallHelp,
			telemetry.ScaleNanos, telemetry.L("stage", "tokenize")),
		stallValidate: reg.CounterScaled("flux_stage_stall_seconds_total", stallHelp,
			telemetry.ScaleNanos, telemetry.L("stage", "validate")),
		stallDispatch: reg.CounterScaled("flux_stage_stall_seconds_total", stallHelp,
			telemetry.ScaleNanos, telemetry.L("stage", "dispatch")),
		stallGate: reg.CounterScaled("flux_stage_stall_seconds_total", stallHelp,
			telemetry.ScaleNanos, telemetry.L("stage", "gate")),
		ringToken: reg.Histogram("flux_ring_peak_occupancy", ringHelp,
			telemetry.OccupancyBuckets, telemetry.ScaleNone, telemetry.L("ring", "token")),
		ringEvent: reg.Histogram("flux_ring_peak_occupancy", ringHelp,
			telemetry.OccupancyBuckets, telemetry.ScaleNone, telemetry.L("ring", "event")),
		trieNodes: reg.Gauge("flux_trie_nodes",
			"Interned product nodes in the current dispatch trie."),
		trieLists: reg.Gauge("flux_trie_fanout_lists",
			"Interned fan-out lists in the current dispatch trie."),
		trieMaxFanout: reg.Gauge("flux_trie_max_fanout",
			"Length of the longest fan-out list in the current dispatch trie."),
		trieRebuilds: reg.Counter("flux_trie_rebuilds_total",
			"Dispatch trie rebuilds triggered by registration changes."),
		trieEvents: reg.Counter("flux_trie_events_total",
			"Events routed through the dispatch trie."),
		trieDeliveries: reg.Counter("flux_trie_deliveries_total",
			"Per-plan event deliveries made by trie-routed passes."),
		trieFlushes: reg.Counter("flux_trie_flushes_total",
			"Per-plan pending-batch flushes made by trie-routed passes."),
	}
}

// recordTrieBuild publishes a fresh trie snapshot's structural gauges.
// maxFanout is the effective per-subscription fan-out (class membership
// multiplied back into the widest interned list).
func (mt *setMetrics) recordTrieBuild(t *shared.Trie, maxFanout int) {
	mt.trieRebuilds.Inc()
	mt.trieNodes.Set(int64(t.NumNodes()))
	mt.trieLists.Set(int64(t.NumLists()))
	mt.trieMaxFanout.Set(int64(maxFanout))
}

// recordDispatch publishes one completed pass's routing totals (no-op
// for fanout-mode passes, whose DispatchStats carry no trie counters).
func (mt *setMetrics) recordDispatch(ds DispatchStats) {
	if ds.Events == 0 && ds.Deliveries == 0 && ds.Flushes == 0 {
		return
	}
	mt.trieEvents.Add(ds.Events)
	mt.trieDeliveries.Add(ds.Deliveries)
	mt.trieFlushes.Add(ds.Flushes)
}

// cancelled records a pass terminated by cancellation or deadline
// expiry under flux_pass_cancelled_total{reason}; other stream errors
// are not cancellations and stay uncounted here. Cold path: the series
// resolves through the registry per event.
func (mt *setMetrics) cancelled(err error) {
	if mt == nil {
		return
	}
	var reason string
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		reason = "deadline"
	case errors.Is(err, context.Canceled):
		reason = "canceled"
	default:
		return
	}
	mt.reg.Counter("flux_pass_cancelled_total",
		"Shared passes terminated by cancellation, by reason.",
		telemetry.L("reason", reason)).Inc()
}

// evalSeconds resolves the per-plan batch-eval latency series. Called
// once per plan per Run (registration-time cost), never on the feed path.
func (mt *setMetrics) evalSeconds(plan string) *telemetry.Histogram {
	if mt == nil {
		return nil
	}
	return mt.reg.Histogram("flux_eval_batch_seconds",
		"Per-plan evaluation time of one dispatched batch.",
		telemetry.LatencyBuckets, telemetry.ScaleNanos, telemetry.L("plan", plan))
}

// PassObs carries one pass's observability hooks through the dispatcher.
// The dispatcher accumulates stage timings into the spans and reports its
// delivery totals in the exported fields when the pass ends. A nil
// *PassObs disables all of it; the spans are nil-safe on top, so a
// partially populated PassObs (metrics without tracing) works unchanged.
//
// Span ownership: Scan and Dispatch are written by the goroutine driving
// the pass loop. In a pipelined pass, stage attribution (tokenize and
// validate stall, ring peaks) is stamped onto child spans only after the
// stage goroutines have joined.
type PassObs struct {
	// Scan accrues time spent taking batches from the pass's source
	// (sequential: the batch fill loop; pipelined: waiting on the
	// validated-batch ring, i.e. the dispatch stall). Dispatch accrues
	// the delivery side: fan-out (or trie routing and flushes) plus
	// slowest-consumer acknowledgement time.
	Scan, Dispatch *telemetry.Span

	// Batches and Events are the pass's totals, filled when the pass
	// ends: the non-empty batches the pass loop took from its source and
	// the events in them, in every pass kind (the same Batches as
	// PassStats). Trie flushes are counted in DispatchStats.Flushes.
	Batches, Events int64
}
