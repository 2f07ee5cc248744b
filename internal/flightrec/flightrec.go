// Package flightrec is the engine's pass flight recorder: a fixed-size,
// allocation-bounded ring of completed pass records with time-windowed
// rollups and a slow-pass capture policy.
//
// Telemetry (internal/telemetry) answers "how is the process doing" as
// unattributed cumulative series; the flight recorder answers "what did
// pass #N do" after the fact. Every completed shared pass deposits one
// Record — engine configuration, input size, throughput, per-stage stall
// breakdown, ring peaks, trie deliveries, buffer peaks, spill traffic,
// fault hits, cancellation reason and terminal error — into a
// preallocated ring. The ring retains the most recent Cap() passes;
// rollups (count, error rate, throughput, latency percentiles) are
// computed from the retained records at query time, never from new
// global histograms, so the recorder adds no per-event work and exactly
// one ring write per pass.
//
// Slow-pass capture: a pass whose wall time or cumulative stall exceeds
// the configured thresholds retains its full span tree in the record and
// is dumped through slog with its request id, so a 504 in an access log
// joins to a complete stage-level post-mortem without tracing having
// been enabled ahead of time.
//
// All methods are safe for concurrent use and no-ops on a nil *Recorder,
// following the repo-wide nil-receiver discipline: call sites wire the
// recorder unconditionally and the disabled path costs one nil check per
// pass.
package flightrec

import (
	"context"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"fluxquery/internal/telemetry"
)

// Record is one completed pass. Every field is stamped once, when the
// pass ends; records are plain values and copy into and out of the ring.
type Record struct {
	// PassID is the process-unique pass number
	// (telemetry.NextPassID), correlating the record with metric
	// scrapes, traces and Stats.PassID.
	PassID uint64 `json:"pass_id"`
	// RequestID joins the record to the access-log line of the HTTP
	// request that drove the pass ("" outside a server).
	RequestID string `json:"request_id,omitempty"`
	// Start and Duration bound the pass in wall time.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`

	// Engine configuration of the pass: projection and dispatch modes,
	// pipeline width (0/1 = sequential) and the riding plan count.
	Projection string `json:"projection,omitempty"`
	Dispatch   string `json:"dispatch,omitempty"`
	Parallel   int    `json:"parallel,omitempty"`
	Plans      int    `json:"plans"`

	// InputBytes, Events and Batches are the pass's data-flow totals;
	// MBps is InputBytes over Duration.
	InputBytes int64   `json:"input_bytes"`
	Events     int64   `json:"events"`
	Batches    int64   `json:"batches"`
	MBps       float64 `json:"mbps"`

	// Per-stage stall breakdown: the pipeline stages blocked on their
	// rings (zero for sequential passes) and the buffer-manager gate.
	TokenizeStall time.Duration `json:"tokenize_stall_ns,omitempty"`
	ValidateStall time.Duration `json:"validate_stall_ns,omitempty"`
	DispatchStall time.Duration `json:"dispatch_stall_ns,omitempty"`
	GateStall     time.Duration `json:"gate_stall_ns,omitempty"`
	// TokenRingPeak and EventRingPeak are ring high-water marks
	// (pipelined passes only).
	TokenRingPeak int `json:"token_ring_peak,omitempty"`
	EventRingPeak int `json:"event_ring_peak,omitempty"`

	// TrieEvents and TrieDeliveries are the dispatch trie's routing
	// totals (zero under plain fanout).
	TrieEvents     int64 `json:"trie_events,omitempty"`
	TrieDeliveries int64 `json:"trie_deliveries,omitempty"`

	// BufferPeak is the largest per-plan heap buffer high-water of the
	// pass; SpilledBytes and RehydratedBytes sum the plans' spill
	// traffic.
	BufferPeak      int64 `json:"buffer_peak_bytes,omitempty"`
	SpilledBytes    int64 `json:"spilled_bytes,omitempty"`
	RehydratedBytes int64 `json:"rehydrated_bytes,omitempty"`

	// FaultHits counts fault-injection sites reached during the pass
	// (approximate under concurrent passes: sites are process-global).
	FaultHits int64 `json:"fault_hits,omitempty"`

	// CancelReason classifies a cancelled pass ("deadline",
	// "canceled"; "" for completed or stream-errored passes); Err is
	// the pass's terminal error ("" on success). PlanErrors counts
	// riding plans that ended in error even when the stream itself was
	// clean.
	CancelReason string `json:"cancel_reason,omitempty"`
	Err          string `json:"error,omitempty"`
	PlanErrors   int    `json:"plan_errors,omitempty"`

	// Slow marks a pass that tripped the capture policy; Trace is its
	// retained span tree (nil for fast passes — the recorder drops the
	// tree so the ring's footprint stays bounded by slow passes only).
	Slow  bool             `json:"slow,omitempty"`
	Trace *telemetry.Trace `json:"trace,omitempty"`
}

// TotalStall sums the record's stall attribution across stages.
func (r *Record) TotalStall() time.Duration {
	return r.TokenizeStall + r.ValidateStall + r.DispatchStall + r.GateStall
}

// Config configures a Recorder.
type Config struct {
	// Size is the ring capacity in records (default 256). The ring is
	// preallocated at New; recording never allocates ring storage.
	Size int
	// SlowLatency and SlowStall are the slow-pass capture thresholds:
	// a pass whose Duration exceeds SlowLatency, or whose summed stage
	// stall exceeds SlowStall, retains its span tree and is dumped
	// through Logger. Zero disables the respective trigger.
	SlowLatency time.Duration
	SlowStall   time.Duration
	// Logger receives slow-pass dumps (nil = slog.Default()).
	Logger *slog.Logger
}

// DefaultSize is the ring capacity when Config.Size is unset.
const DefaultSize = 256

// Recorder is the flight recorder: a mutex-guarded ring of Records.
// Recording is the cold once-per-pass path, so a short mutex hold beats
// lock-free machinery here; readers copy records out under the same
// lock.
type Recorder struct {
	slowLatency time.Duration
	slowStall   time.Duration
	log         *slog.Logger

	mu    sync.Mutex
	ring  []Record
	next  int    // next write slot
	count int    // live records (== len(ring) once wrapped)
	total uint64 // records ever written
}

// New returns a Recorder with a preallocated ring.
func New(cfg Config) *Recorder {
	size := cfg.Size
	if size <= 0 {
		size = DefaultSize
	}
	return &Recorder{
		slowLatency: cfg.SlowLatency,
		slowStall:   cfg.SlowStall,
		log:         cfg.Logger,
		ring:        make([]Record, size),
	}
}

// CapturesSlow reports whether the recorder wants span trees offered to
// Record (a capture threshold is configured). Pass drivers use it to
// decide whether to build a trace for an otherwise untraced pass.
func (rec *Recorder) CapturesSlow() bool {
	if rec == nil {
		return false
	}
	return rec.slowLatency > 0 || rec.slowStall > 0
}

// isSlow applies the capture policy to a record.
func (rec *Recorder) isSlow(r *Record) bool {
	if rec.slowLatency > 0 && r.Duration >= rec.slowLatency {
		return true
	}
	if rec.slowStall > 0 && r.TotalStall() >= rec.slowStall {
		return true
	}
	return false
}

// Record deposits one completed pass. The record's Slow flag is stamped
// from the capture policy: slow passes keep their Trace (when the caller
// provided one) and are dumped through the logger; fast passes have the
// Trace dropped so ring memory stays bounded. Safe for concurrent use.
func (rec *Recorder) Record(r Record) {
	if rec == nil {
		return
	}
	r.Slow = rec.isSlow(&r)
	if !r.Slow {
		r.Trace = nil
	}
	rec.mu.Lock()
	rec.ring[rec.next] = r
	rec.next = (rec.next + 1) % len(rec.ring)
	if rec.count < len(rec.ring) {
		rec.count++
	}
	rec.total++
	rec.mu.Unlock()
	if r.Slow {
		rec.dumpSlow(&r)
	}
}

// dumpSlow writes the slow-pass post-mortem through slog: one line keyed
// by pass and request id with the headline numbers, plus the span tree
// rendered as an attribute when the pass carried one.
func (rec *Recorder) dumpSlow(r *Record) {
	log := rec.log
	if log == nil {
		log = slog.Default()
	}
	attrs := []slog.Attr{
		slog.Uint64("pass_id", r.PassID),
		slog.String("request_id", r.RequestID),
		slog.Duration("dur", r.Duration),
		slog.Duration("stall", r.TotalStall()),
		slog.Int64("input_bytes", r.InputBytes),
		slog.Int64("events", r.Events),
		slog.Int("plans", r.Plans),
	}
	if r.Err != "" {
		attrs = append(attrs, slog.String("error", r.Err))
	}
	if r.CancelReason != "" {
		attrs = append(attrs, slog.String("cancel_reason", r.CancelReason))
	}
	if r.Trace != nil {
		var b strings.Builder
		r.Trace.WriteTree(&b)
		attrs = append(attrs, slog.String("spans", strings.TrimRight(b.String(), "\n")))
	}
	log.LogAttrs(context.Background(), slog.LevelWarn, "slow pass", attrs...)
}

// Len returns the number of retained records; Cap the ring capacity;
// Total the number of records ever deposited (Total - Len have been
// overwritten).
func (rec *Recorder) Len() int {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.count
}

// Cap returns the ring capacity (0 on a nil recorder).
func (rec *Recorder) Cap() int {
	if rec == nil {
		return 0
	}
	return len(rec.ring)
}

// Total returns the number of records ever deposited.
func (rec *Recorder) Total() uint64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.total
}

// Snapshot returns up to n retained records, most recent first (n <= 0
// returns all retained).
func (rec *Recorder) Snapshot(n int) []Record {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if n <= 0 || n > rec.count {
		n = rec.count
	}
	out := make([]Record, n)
	for i := 0; i < n; i++ {
		// next-1 is the most recent write; walk backwards.
		idx := (rec.next - 1 - i + 2*len(rec.ring)) % len(rec.ring)
		out[i] = rec.ring[idx]
	}
	return out
}

// Get returns the retained record with the given pass id.
func (rec *Recorder) Get(passID uint64) (Record, bool) {
	if rec == nil {
		return Record{}, false
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := 0; i < rec.count; i++ {
		idx := (rec.next - 1 - i + 2*len(rec.ring)) % len(rec.ring)
		if rec.ring[idx].PassID == passID {
			return rec.ring[idx], true
		}
	}
	return Record{}, false
}

// Rollup is a windowed aggregate over retained records: counts, data
// flow, nearest-rank latency percentiles and stall attribution. MBps is
// the window's aggregate throughput (bytes over summed pass wall time —
// per-pass speed, not wall-clock arrival rate).
type Rollup struct {
	// Window is the rollup's lookback (0 = every retained record).
	Window time.Duration `json:"window_ns,omitempty"`
	// Passes, Errors and Slow count records in the window; Cancelled
	// counts the subset of Errors with a cancellation reason.
	Passes    int `json:"passes"`
	Errors    int `json:"errors"`
	Cancelled int `json:"cancelled"`
	Slow      int `json:"slow"`
	// InputBytes and Events sum the window's data flow.
	InputBytes int64 `json:"input_bytes"`
	Events     int64 `json:"events"`
	// P50/P95/P99/Max are pass-duration quantiles (nearest-rank).
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// MBps is aggregate throughput; StallTotal sums stage stalls.
	MBps       float64       `json:"mbps"`
	StallTotal time.Duration `json:"stall_total_ns"`
}

// Rollup aggregates the retained records whose pass ended within window
// of now (window <= 0 covers every retained record). Percentiles are
// nearest-rank over the matching records — computed here at query time,
// not maintained as histograms.
func (rec *Recorder) Rollup(window time.Duration) Rollup {
	return rec.RollupAt(window, time.Now())
}

// RollupAt is Rollup against an explicit clock (for tests).
func (rec *Recorder) RollupAt(window time.Duration, now time.Time) Rollup {
	ru := Rollup{Window: window}
	if rec == nil {
		return ru
	}
	var durs []time.Duration
	var wall time.Duration
	rec.mu.Lock()
	cutoff := now.Add(-window)
	for i := 0; i < rec.count; i++ {
		idx := (rec.next - 1 - i + 2*len(rec.ring)) % len(rec.ring)
		r := &rec.ring[idx]
		if window > 0 && r.Start.Add(r.Duration).Before(cutoff) {
			continue
		}
		ru.Passes++
		if r.Err != "" {
			ru.Errors++
		}
		if r.CancelReason != "" {
			ru.Cancelled++
		}
		if r.Slow {
			ru.Slow++
		}
		ru.InputBytes += r.InputBytes
		ru.Events += r.Events
		ru.StallTotal += r.TotalStall()
		wall += r.Duration
		if r.Duration > ru.Max {
			ru.Max = r.Duration
		}
		durs = append(durs, r.Duration)
	}
	rec.mu.Unlock()
	if len(durs) == 0 {
		return ru
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	ru.P50 = quantile(durs, 0.50)
	ru.P95 = quantile(durs, 0.95)
	ru.P99 = quantile(durs, 0.99)
	if wall > 0 {
		ru.MBps = float64(ru.InputBytes) / (1 << 20) / wall.Seconds()
	}
	return ru
}

// quantile returns the q-quantile of ascending-sorted durations by the
// nearest-rank method.
func quantile(durs []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(durs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(durs) {
		rank = len(durs)
	}
	return durs[rank-1]
}
