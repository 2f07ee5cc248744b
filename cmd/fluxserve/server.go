package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fluxquery"
	"fluxquery/internal/faultinj"
	"fluxquery/internal/telemetry"
)

// Lifecycle states of the server, reported by GET /stats and the
// flux_server_draining gauge. Serving is the steady state; draining
// means a shutdown signal arrived — intake is closed (new /eval gets a
// structured 503 DRAINING) while in-flight passes finish under the
// drain deadline.
const (
	stateServing int32 = iota
	stateDraining
)

// server holds the compiled-query registry. Plans are compiled once at
// registration; each /eval assembles a StreamSet from the selected plans
// and evaluates the posted document in one shared pass. One process-wide
// BufferManager (when -budget is set) governs the buffer memory of every
// concurrent pass.
type server struct {
	d       *fluxquery.DTD
	maxBody int64
	proj    fluxquery.Projection
	bufs    *fluxquery.BufferManager
	policy  fluxquery.BufferPolicy
	budget  int64
	// parallel is a test-only override of how /eval's shared passes run
	// (StreamSet.SetParallel); 0, what the server always runs with,
	// pipelines when GOMAXPROCS >= 2.
	parallel int
	// dispatch selects each pass's fan-out strategy: fanout (every batch
	// to every query) or trie (events routed through the shared dispatch
	// trie, per-query delivery).
	dispatch fluxquery.Dispatch
	// pool bounds the number of concurrently streaming /eval passes: a
	// request that cannot claim a slot without blocking is rejected with
	// a structured 503 rather than queued, so saturation is visible to
	// the client instead of turning into unbounded goroutines all
	// contending for the one buffer budget. nil = unbounded.
	pool chan struct{}

	// evalTimeout, when > 0, bounds each /eval pass's wall time
	// (-eval-timeout): the per-request context gets the deadline and the
	// connection's read deadline is pinned to it, so a pass stuck in a
	// body read is unblocked too. Expiry maps to 504 TIMEOUT.
	evalTimeout time.Duration
	// state is the lifecycle state (stateServing/stateDraining).
	state atomic.Int32
	// passCtx is the ancestor of every /eval's request context; drain
	// cancels it (via passCancel) after the drain deadline so stuck
	// passes terminate instead of holding shutdown hostage.
	passCtx    context.Context
	passCancel context.CancelFunc
	// inflight tracks running /eval handlers so drain can wait for them.
	// lifeMu makes the state check and the inflight registration one
	// atomic step against beginDrain: once the state flips, no handler
	// can slip a new Add past drain's Wait.
	lifeMu   sync.Mutex
	inflight sync.WaitGroup

	// tel is the process-wide metrics registry behind GET /metrics; the
	// shared passes, the buffer manager and the ingest pool all publish
	// into it.
	tel *fluxquery.Telemetry
	// rec is the process-wide pass flight recorder behind the
	// GET /debug/passes endpoints (nil when -flightrec 0): every /eval
	// pass deposits one record, and passes over the -slow-pass /
	// -slow-stall thresholds dump a span-tree post-mortem through the
	// structured log, keyed by request id.
	rec *fluxquery.FlightRecorder
	// ledger attributes cumulative cost (eval CPU, events, bytes, buffer
	// peaks, errors) to registered query names across every /eval pass —
	// behind GET /queries/{name}/stats and GET /top.
	ledger *fluxquery.QueryLedger
	// started stamps process start for flux_server_uptime_seconds and
	// /stats; build describes the binary for flux_build_info.
	started time.Time
	build   buildMeta
	// log writes structured access logs; every request gets an id
	// (X-Request-Id) that also tags its ?trace=1 span tree.
	log    *slog.Logger
	reqSeq atomic.Uint64
	idBase string
	// mRejected, mHTTPReqs, mHTTPSecs are the server's own series:
	// shed-load rejections, request count and request latency.
	mRejected *telemetry.Counter
	mHTTPReqs *telemetry.Counter
	mHTTPSecs *telemetry.Histogram

	mu      sync.RWMutex
	queries map[string]*entry
	// agg accumulates per-query scan/buffer/spill statistics across
	// /eval calls for GET /stats.
	agg map[string]*queryAgg
	// evals counts completed /eval passes; rejected counts structured
	// 503 pool rejections.
	evals    int64
	rejected int64
	// pipeline accumulates pipelined-pass metrics across /eval calls;
	// dispatchStats accumulates trie-routed-pass metrics likewise.
	pipeline      pipelineAgg
	dispatchStats dispatchAgg
}

// dispatchAgg is the cumulative record of trie-routed shared passes for
// GET /stats.
type dispatchAgg struct {
	Passes     int64 `json:"passes"`
	Events     int64 `json:"events"`
	Deliveries int64 `json:"deliveries"`
	Flushes    int64 `json:"flushes"`
	TrieNodes  int   `json:"trie_nodes"`
	MaxFanout  int   `json:"max_fanout"`
}

// pipelineAgg is the cumulative record of pipelined shared passes for
// GET /stats.
type pipelineAgg struct {
	Passes              int64 `json:"passes"`
	Batches             int64 `json:"batches"`
	TokenizeStallMicros int64 `json:"tokenize_stall_us"`
	ValidateStallMicros int64 `json:"validate_stall_us"`
	DispatchStallMicros int64 `json:"dispatch_stall_us"`
	TokenRingPeak       int   `json:"token_ring_peak"`
	EventRingPeak       int   `json:"event_ring_peak"`
}

type entry struct {
	name string
	src  string
	plan *fluxquery.Plan
}

// queryAgg is the cumulative record of one registered query.
type queryAgg struct {
	Evals               int64 `json:"evals"`
	Errors              int64 `json:"errors"`
	BudgetRejections    int64 `json:"budget_rejections"`
	Events              int64 `json:"events"`
	OutputBytes         int64 `json:"output_bytes"`
	PeakBufferBytes     int64 `json:"peak_buffer_bytes"`
	PeakHeapBufferBytes int64 `json:"peak_heap_buffer_bytes"`
	SpilledBytes        int64 `json:"spilled_bytes"`
	RehydratedBytes     int64 `json:"rehydrated_bytes"`
	StallMicros         int64 `json:"stall_us"`
}

func newServer(dtdSrc string, maxBody int64, proj fluxquery.Projection, budget int64, policy fluxquery.BufferPolicy, spillDir string) (*server, error) {
	d, err := fluxquery.ParseDTD(dtdSrc)
	if err != nil {
		return nil, fmt.Errorf("parsing DTD: %w", err)
	}
	s := &server{
		d: d, maxBody: maxBody, proj: proj,
		budget: budget, policy: policy,
		queries: map[string]*entry{}, agg: map[string]*queryAgg{},
		ledger:  fluxquery.NewQueryLedger(),
		started: time.Now(),
		build:   readBuildMeta(),
	}
	s.passCtx, s.passCancel = context.WithCancel(context.Background())
	if budget > 0 {
		s.bufs = fluxquery.NewBufferManager(budget, policy, spillDir)
	}
	s.tel = fluxquery.NewTelemetry()
	s.log = slog.Default()
	s.idBase = fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff)
	reg := s.tel.Registry()
	s.mRejected = reg.Counter("flux_pool_rejected_total",
		"Eval requests shed with a structured 503 POOL_SATURATED.")
	s.mHTTPReqs = reg.Counter("flux_http_requests_total",
		"HTTP requests served.")
	s.mHTTPSecs = reg.Histogram("flux_http_request_seconds",
		"HTTP request wall time.", telemetry.LatencyBuckets, telemetry.ScaleNanos)
	if s.bufs != nil {
		s.bufs.RegisterMetrics(s.tel)
	}
	reg.GaugeFunc("flux_server_draining",
		"1 while the server is draining (intake closed, in-flight passes finishing), else 0.",
		func() int64 { return int64(s.state.Load()) })
	reg.GaugeFunc("flux_build_info",
		"Build metadata; the value is constant 1, the labels carry the versions.",
		func() int64 { return 1 },
		telemetry.L("version", s.build.Version),
		telemetry.L("goversion", s.build.GoVersion),
		telemetry.L("revision", s.build.Revision))
	reg.GaugeFunc("flux_server_uptime_seconds",
		"Seconds since process start.",
		func() int64 { return int64(time.Since(s.started).Seconds()) })
	faultinj.RegisterMetrics(reg)
	return s, nil
}

// buildMeta describes the running binary for flux_build_info and /stats.
type buildMeta struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
}

// readBuildMeta extracts the module version, Go toolchain version and
// VCS revision stamped into the binary by the Go linker. A binary built
// outside a module or VCS checkout (go test binaries, bare go run)
// reports "devel"/"unknown" rather than failing.
func readBuildMeta() buildMeta {
	m := buildMeta{Version: "devel", Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return m
	}
	m.GoVersion = bi.GoVersion
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		m.Version = v
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			m.Revision = kv.Value
		}
	}
	return m
}

// setFlightRecorder installs the pass flight recorder (size <= 0
// disables it and the /debug/passes endpoints). slowPass and slowStall
// arm the slow-pass capture policy. Must be called before the server
// handles requests.
func (s *server) setFlightRecorder(size int, slowPass, slowStall time.Duration) {
	if size <= 0 {
		s.rec = nil
		return
	}
	s.rec = fluxquery.NewFlightRecorder(fluxquery.FlightRecorderConfig{
		Size:        size,
		SlowLatency: slowPass,
		SlowStall:   slowStall,
		Logger:      s.log,
	})
}

// setEvalTimeout bounds each /eval pass's wall time (0 = unbounded).
func (s *server) setEvalTimeout(d time.Duration) { s.evalTimeout = d }

// lifecycle names the current state for /stats and logs.
func (s *server) lifecycle() string {
	if s.state.Load() == stateDraining {
		return "draining"
	}
	return "serving"
}

// beginDrain closes /eval intake: new passes are rejected with a
// structured 503 DRAINING while in-flight passes keep running.
// Idempotent.
func (s *server) beginDrain() {
	s.lifeMu.Lock()
	s.state.Store(stateDraining)
	s.lifeMu.Unlock()
}

// drain waits up to timeout for in-flight /eval passes to finish, then
// cancels the pass context so stragglers terminate through the engine's
// cancellation path. Returns true when every pass finished within the
// deadline (false means stragglers were cancelled and then joined).
func (s *server) drain(timeout time.Duration) bool {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var clean bool
	select {
	case <-done:
		clean = true
	case <-time.After(timeout):
	}
	// Cancel unconditionally: pending passes (timeout path) terminate,
	// and the watcher goroutines of any future Bind calls never leak.
	s.passCancel()
	<-done
	return clean
}

// setParallel pins how /eval's shared passes run, for tests: 1 is the
// sequential pass, n >= 2 the pipeline.
func (s *server) setParallel(n int) { s.parallel = n }

// setDispatch selects the fan-out strategy of /eval's shared passes.
func (s *server) setDispatch(d fluxquery.Dispatch) { s.dispatch = d }

// setPool bounds the in-flight /eval passes to n (0 = unbounded). Must
// be called before the server starts handling requests.
func (s *server) setPool(n int) {
	if n <= 0 {
		s.pool = nil
		return
	}
	s.pool = make(chan struct{}, n)
}

func (s *server) root() string { return s.d.Root() }

func (s *server) register(name, src string) error {
	if name == "" {
		return fmt.Errorf("empty query name")
	}
	q, err := fluxquery.ParseQuery(src)
	if err != nil {
		return err
	}
	p, err := fluxquery.Compile(q, s.d, fluxquery.Options{})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.queries[name] = &entry{name: name, src: src, plan: p}
	s.mu.Unlock()
	return nil
}

func (s *server) handler() http.Handler {
	// Pool occupancy is read at scrape time straight off the slot
	// channel (len = passes streaming now, cap = -pool). Registered here
	// rather than in newServer so setPool has run.
	reg := s.tel.Registry()
	reg.GaugeFunc("flux_pool_inflight",
		"Eval passes currently streaming.",
		func() int64 { return int64(len(s.pool)) })
	reg.GaugeFunc("flux_pool_capacity",
		"Maximum concurrently streaming eval passes (-pool; 0 = unbounded).",
		func() int64 { return int64(cap(s.pool)) })

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /queries", s.handleList)
	mux.HandleFunc("PUT /queries/{name}", s.handlePut)
	mux.HandleFunc("GET /queries/{name}", s.handleGet)
	mux.HandleFunc("DELETE /queries/{name}", s.handleDelete)
	mux.HandleFunc("POST /eval", s.handleEval)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /queries/{name}/stats", s.handleQueryStats)
	mux.HandleFunc("GET /top", s.handleTop)
	mux.HandleFunc("GET /debug/passes", s.handlePasses)
	mux.HandleFunc("GET /debug/passes/{id}", s.handlePass)
	return s.withObservability(mux)
}

// handleMetrics serves the registry in Prometheus text exposition
// format (version 0.0.4) for scraping.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", fluxquery.MetricsContentType)
	_ = s.tel.WritePrometheus(w)
}

// ctxReqID keys the request id in the request context.
type ctxKey int

const ctxReqID ctxKey = 0

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach the connection's deadline controls through the wrapper — the
// -eval-timeout read deadline is a silent no-op without it.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// withObservability assigns every request an id (returned as
// X-Request-Id and propagated to ?trace=1 span trees), writes a
// structured access log line, and feeds the request-rate and latency
// series.
func (s *server) withObservability(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("%s-%d", s.idBase, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), ctxReqID, id)))
		dur := time.Since(start)
		s.mHTTPReqs.Inc()
		s.mHTTPSecs.Observe(dur.Nanoseconds())
		s.log.Info("request",
			"id", id, "method", r.Method, "path", r.URL.Path,
			"status", rec.status, "dur", dur)
	})
}

// writeJSON is the one JSON writer of every endpoint. It encodes compact
// and leaves '<', '>' and '&' literal: /eval bodies are mostly XML result
// text, which HTML escaping would inflate to \u003c/\u003e, and
// indentation makes encoding/json marshal the value and then re-walk the
// whole body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Error codes of the structured error taxonomy: every non-200 response
// is {"error": ..., "code": ...}, where the HTTP status signals
// retryability and the code names the limit or stage that rejected the
// request (a 503 POOL_SATURATED is retryable after backoff, a 413
// BODY_TOO_LARGE is not).
const (
	codeBodyTooLarge  = "BODY_TOO_LARGE"   // 413: request body exceeds -max-body
	codePoolSaturated = "POOL_SATURATED"   // 503: all -pool eval slots are streaming
	codeQueryNotFound = "QUERY_NOT_FOUND"  // 404: no registered query by that name
	codeInvalidQuery  = "INVALID_QUERY"    // 422: query text does not compile
	codeInvalidDoc    = "INVALID_DOCUMENT" // 422: document malformed or DTD-invalid
	codeBadRequest    = "BAD_REQUEST"      // 400: unreadable request
	codeInternal      = "INTERNAL"         // 500: server-side registration failure
	codeTimeout       = "TIMEOUT"          // 504: pass exceeded -eval-timeout
	codeClientGone    = "CLIENT_GONE"      // 499: client disconnected mid-pass
	codeDraining      = "DRAINING"         // 503: server is shutting down, intake closed
	codePassNotFound  = "PASS_NOT_FOUND"   // 404: pass id not retained by the flight recorder
	codeRecorderOff   = "RECORDER_OFF"     // 404: server runs with -flightrec 0
)

// statusClientGone is nginx's non-standard 499 "client closed request";
// the client is gone so the status is for the access log, not the wire.
const statusClientGone = 499

func writeErr(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	})
}

// classifyStreamErr maps a failed pass's error to a status and code by
// asking which termination source fired: the -eval-timeout deadline
// (via the context or the connection read deadline) is a 504 TIMEOUT,
// a client disconnect is 499 CLIENT_GONE, a drain cancellation is 503
// DRAINING, and anything else is a genuine document rejection.
//
// deadline is the eval deadline (zero when -eval-timeout is unset) and
// is checked by clock as well: when the connection read deadline fires,
// net/http treats the failed body read as a dead connection and cancels
// the request context, so by classification time ctx can report
// Canceled rather than DeadlineExceeded and the read error may have
// been flattened into a parse message. A pass that ran past its own
// deadline is a timeout regardless of which of those races won.
func classifyStreamErr(ctx context.Context, r *http.Request, err error, passCtx context.Context, deadline time.Time) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(ctx.Err(), context.DeadlineExceeded) ||
		(!deadline.IsZero() && !time.Now().Before(deadline)):
		return http.StatusGatewayTimeout, codeTimeout
	case r.Context().Err() != nil:
		return statusClientGone, codeClientGone
	case passCtx.Err() != nil && errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, codeDraining
	default:
		return http.StatusUnprocessableEntity, codeInvalidDoc
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.queries)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "root": s.root(), "queries": n})
}

type queryInfo struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]queryInfo, 0, len(s.queries))
	for _, e := range s.queries {
		out = append(out, queryInfo{Name: e.name, Query: e.src})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "query exceeds -max-body (%d bytes)", s.maxBody)
			return
		}
		writeErr(w, http.StatusBadRequest, codeBadRequest, "reading body: %v", err)
		return
	}
	if err := s.register(name, string(src)); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, codeInvalidQuery, "compiling query %q: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"registered": name})
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	e, ok := s.queries[name]
	s.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, codeQueryNotFound, "no query %q", name)
		return
	}
	writeJSON(w, http.StatusOK, queryInfo{Name: e.name, Query: e.src})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.queries[name]
	delete(s.queries, name)
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, codeQueryNotFound, "no query %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

type evalStats struct {
	Events             int64 `json:"events"`
	PeakBufferBytes    int64 `json:"peak_buffer_bytes"`
	BufferedBytesTotal int64 `json:"buffered_bytes_total"`
	OutputBytes        int64 `json:"output_bytes"`
	SkippedSubtrees    int64 `json:"skipped_subtrees"`
	HandlerFirings     int64 `json:"handler_firings"`
	// Buffer-budget counters (zero unless the server runs with -budget):
	// heap-resident high-water, spill traffic, and backpressure stall.
	PeakHeapBufferBytes int64 `json:"peak_heap_buffer_bytes,omitempty"`
	SpilledBytes        int64 `json:"spilled_bytes,omitempty"`
	RehydratedBytes     int64 `json:"rehydrated_bytes,omitempty"`
	StallMicros         int64 `json:"stall_us,omitempty"`
}

type evalResult struct {
	Query  string `json:"query"`
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
	// Code classifies a per-query failure: 413 when the query was
	// rejected for exceeding the buffer budget (the 413-style per-query
	// rejection of a BufferFail server), 422 for any other evaluation
	// error. The HTTP status stays 200: the shared pass succeeded and
	// sibling queries carry results.
	Code  int       `json:"code,omitempty"`
	Stats evalStats `json:"stats"`
}

// scanStats reports the shared scan pass of one /eval: exactly one
// tokenize+validate pass feeds every selected query, and — with
// projection on — events no selected query can use are pruned before any
// evaluator sees them.
type scanStats struct {
	Passes          int64  `json:"passes"`
	Projection      string `json:"projection"`
	EventsDelivered int64  `json:"events_delivered"`
	EventsSkipped   int64  `json:"events_skipped"`
	SubtreesSkipped int64  `json:"subtrees_skipped"`
	BytesSkipped    int64  `json:"bytes_skipped"`
	// InputBytes is the raw input size the pass consumed, skipped
	// regions included.
	InputBytes int64 `json:"input_bytes"`
	// StallMicros is the time the shared pass spent blocked by
	// backpressure (zero unless -budget with -budget-policy backpressure).
	StallMicros int64 `json:"stall_us,omitempty"`
}

type evalResponse struct {
	DurationMicros int64     `json:"duration_us"`
	Scan           scanStats `json:"scan"`
	// Pipeline reports the pass's pipeline metrics when it ran pipelined
	// (absent for sequential passes).
	Pipeline *passInfo `json:"pipeline,omitempty"`
	// Dispatch reports the pass's trie-routing metrics when the server
	// runs with -dispatch trie (absent under plain fanout).
	Dispatch *dispatchInfo `json:"dispatch,omitempty"`
	Results  []evalResult  `json:"results"`
	// Trace is the pass's span tree, present only with ?trace=1: the
	// shared pass broken into scan and dispatch phases with one eval
	// span per query, plus tokenize/validate stage spans (with stall
	// attribution and ring high-water marks) for pipelined passes. The
	// trace's id is the request's X-Request-Id.
	Trace *fluxquery.Trace `json:"trace,omitempty"`
}

// passInfo is one pipelined pass: its Parallel setting, batches through
// the rings, per-stage stall time and ring high-water marks.
type passInfo struct {
	Parallel            int   `json:"parallel"`
	Batches             int64 `json:"batches"`
	TokenizeStallMicros int64 `json:"tokenize_stall_us"`
	ValidateStallMicros int64 `json:"validate_stall_us"`
	DispatchStallMicros int64 `json:"dispatch_stall_us"`
	TokenRingPeak       int   `json:"token_ring_peak"`
	EventRingPeak       int   `json:"event_ring_peak"`
}

// dispatchInfo is one trie-routed pass: trie snapshot size, routed
// events, per-query deliveries (the work a plain fanout would have
// multiplied by the query count) and per-query batch flushes.
type dispatchInfo struct {
	Mode        string `json:"mode"`
	Plans       int    `json:"plans"`
	TrieNodes   int    `json:"trie_nodes"`
	TrieLists   int    `json:"trie_lists"`
	MaxFanout   int    `json:"max_fanout"`
	Events      int64  `json:"events"`
	Deliveries  int64  `json:"deliveries"`
	Flushes     int64  `json:"flushes"`
	BuildMicros int64  `json:"build_us"`
}

// handleEval evaluates the selected queries over the posted document in a
// single shared tokenize+validate pass.
func (s *server) handleEval(w http.ResponseWriter, r *http.Request) {
	// A draining server accepts no new passes: the client gets a
	// retryable 503 naming the state, and the drain loop only has the
	// already-admitted passes to wait for.
	s.lifeMu.Lock()
	if s.state.Load() == stateDraining {
		s.lifeMu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, codeDraining,
			"server is draining; retry against another instance")
		return
	}
	s.inflight.Add(1)
	s.lifeMu.Unlock()
	defer s.inflight.Done()
	// Claim an ingest slot without blocking: when every slot is already
	// streaming a document, shed load with a structured 503 the client
	// can back off on, instead of stacking passes against the shared
	// buffer budget.
	if s.pool != nil {
		select {
		case s.pool <- struct{}{}:
			defer func() { <-s.pool }()
		default:
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
			s.mRejected.Inc()
			w.Header().Set("Retry-After", "1")
			// The body carries the live pool occupancy so a client can
			// tell a momentary spike (depth just hit capacity) from
			// sustained saturation without a second /stats round trip.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":         fmt.Sprintf("all %d eval slots are streaming; retry later", cap(s.pool)),
				"code":          codePoolSaturated,
				"pool_depth":    len(s.pool),
				"pool_capacity": cap(s.pool),
			})
			return
		}
	}
	names := r.URL.Query()["q"]
	s.mu.RLock()
	var selected []*entry
	if len(names) == 0 {
		for _, e := range s.queries {
			selected = append(selected, e)
		}
	} else {
		for _, name := range names {
			e, ok := s.queries[name]
			if !ok {
				s.mu.RUnlock()
				writeErr(w, http.StatusNotFound, codeQueryNotFound, "no query %q", name)
				return
			}
			selected = append(selected, e)
		}
	}
	s.mu.RUnlock()
	sort.Slice(selected, func(i, j int) bool { return selected[i].name < selected[j].name })

	set := fluxquery.NewStreamSet(s.d)
	set.SetProjection(s.proj)
	set.SetBuffers(s.bufs)
	set.SetParallel(s.parallel)
	set.SetDispatch(s.dispatch)
	set.SetTelemetry(s.tel)
	// The recorder and ledger are process-wide; the per-request set is
	// just this pass's route into them. The request id rides along so a
	// slow-pass dump joins back to the access-log line.
	set.SetRecorder(s.rec)
	set.SetLedger(s.ledger)
	reqID, _ := r.Context().Value(ctxReqID).(string)
	set.SetRequestID(reqID)
	traced := false
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		traced = true
		set.SetTracing(true, reqID)
	}
	outs := make([]*bytes.Buffer, len(selected))
	regs := make([]*fluxquery.StreamQuery, len(selected))
	for i, e := range selected {
		outs[i] = &bytes.Buffer{}
		// The registration name labels the plan's eval-latency series
		// and trace span, so metrics line up with /queries names.
		reg, err := set.RegisterNamed(e.plan, outs[i], e.name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, codeInternal, "registering %q: %v", e.name, err)
			return
		}
		regs[i] = reg
	}

	// The pass context merges three termination sources: the client's
	// own context (disconnect), the server's pass context (drain
	// cancellation), and the optional -eval-timeout deadline. The
	// connection read deadline is pinned to the same deadline so a pass
	// stuck inside a body read is unblocked when the budget expires —
	// context cancellation alone cannot interrupt a blocked TCP read.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.passCtx, cancel)
	defer stop()
	var evalDeadline time.Time
	if s.evalTimeout > 0 {
		evalDeadline = time.Now().Add(s.evalTimeout)
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithDeadline(ctx, evalDeadline)
		defer tcancel()
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(evalDeadline)
	}
	// The faultinj reader is a no-op unless a test or fluxbench -fault
	// armed the body.read site.
	body := io.Reader(&faultinj.Reader{
		Site: faultinj.SiteBodyRead,
		R:    http.MaxBytesReader(w, r.Body, s.maxBody),
	})

	start := time.Now()
	if err := set.RunContext(ctx, body); err != nil {
		// MaxBytesReader makes an oversized body a read error at the
		// limit, so a too-large document cannot be silently truncated
		// into a (possibly valid) prefix.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "document exceeds -max-body (%d bytes)", s.maxBody)
			return
		}
		status, code := classifyStreamErr(ctx, r, err, s.passCtx, evalDeadline)
		writeErr(w, status, code, "document rejected: %v", err)
		return
	}
	resp := evalResponse{DurationMicros: time.Since(start).Microseconds()}
	if traced {
		resp.Trace = set.LastTrace()
	}
	if ps := set.LastPass(); ps.Parallel >= 2 {
		resp.Pipeline = &passInfo{
			Parallel:            ps.Parallel,
			Batches:             ps.Batches,
			TokenizeStallMicros: ps.TokenizeStall.Microseconds(),
			ValidateStallMicros: ps.ValidateStall.Microseconds(),
			DispatchStallMicros: ps.DispatchStall.Microseconds(),
			TokenRingPeak:       ps.TokenRingPeak,
			EventRingPeak:       ps.EventRingPeak,
		}
	}
	if ds := set.LastDispatch(); ds.Mode == "trie" {
		resp.Dispatch = &dispatchInfo{
			Mode:        ds.Mode,
			Plans:       ds.Plans,
			TrieNodes:   ds.TrieNodes,
			TrieLists:   ds.TrieLists,
			MaxFanout:   ds.MaxFanout,
			Events:      ds.Events,
			Deliveries:  ds.Deliveries,
			Flushes:     ds.Flushes,
			BuildMicros: ds.BuildNanos / 1000,
		}
	}
	sc := set.LastScan()
	resp.Scan = scanStats{
		Passes:          sc.Passes,
		Projection:      s.proj.String(),
		EventsDelivered: sc.EventsDelivered,
		EventsSkipped:   sc.EventsSkipped,
		SubtreesSkipped: sc.SubtreesSkipped,
		BytesSkipped:    sc.BytesSkipped,
		InputBytes:      sc.InputBytes,
		StallMicros:     sc.Stall.Microseconds(),
	}
	type outcome struct {
		st  fluxquery.Stats
		err error
	}
	outcomes := make([]outcome, len(selected))
	for i, e := range selected {
		st, err := regs[i].Stats()
		outcomes[i] = outcome{st, err}
		res := evalResult{
			Query:  e.name,
			Output: outs[i].String(),
			Stats: evalStats{
				Events:              st.Events,
				PeakBufferBytes:     st.PeakBufferBytes,
				BufferedBytesTotal:  st.BufferedBytesTotal,
				OutputBytes:         st.OutputBytes,
				SkippedSubtrees:     st.SkippedSubtrees,
				HandlerFirings:      st.HandlerFirings,
				PeakHeapBufferBytes: st.PeakHeapBufferBytes,
				SpilledBytes:        st.SpilledBytes,
				RehydratedBytes:     st.RehydratedBytes,
				StallMicros:         st.BudgetStall.Microseconds(),
			},
		}
		if err != nil {
			res.Error = err.Error()
			res.Output = ""
			res.Code = http.StatusUnprocessableEntity
			if errors.Is(err, fluxquery.ErrBudgetExceeded) {
				res.Code = http.StatusRequestEntityTooLarge
			}
		}
		resp.Results = append(resp.Results, res)
	}
	// One hold of s.mu folds the whole pass into the /stats aggregates.
	s.mu.Lock()
	s.evals++
	for i, e := range selected {
		s.recordLocked(e.name, outcomes[i].st, outcomes[i].err)
	}
	if ps := set.LastPass(); ps.Parallel >= 2 {
		s.pipeline.Passes++
		s.pipeline.Batches += ps.Batches
		s.pipeline.TokenizeStallMicros += ps.TokenizeStall.Microseconds()
		s.pipeline.ValidateStallMicros += ps.ValidateStall.Microseconds()
		s.pipeline.DispatchStallMicros += ps.DispatchStall.Microseconds()
		if ps.TokenRingPeak > s.pipeline.TokenRingPeak {
			s.pipeline.TokenRingPeak = ps.TokenRingPeak
		}
		if ps.EventRingPeak > s.pipeline.EventRingPeak {
			s.pipeline.EventRingPeak = ps.EventRingPeak
		}
	}
	if ds := set.LastDispatch(); ds.Mode == "trie" {
		s.dispatchStats.Passes++
		s.dispatchStats.Events += ds.Events
		s.dispatchStats.Deliveries += ds.Deliveries
		s.dispatchStats.Flushes += ds.Flushes
		s.dispatchStats.TrieNodes = ds.TrieNodes
		s.dispatchStats.MaxFanout = ds.MaxFanout
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// recordLocked folds one query's pass outcome into the /stats
// aggregates. The caller holds s.mu.
func (s *server) recordLocked(name string, st fluxquery.Stats, err error) {
	a := s.agg[name]
	if a == nil {
		a = &queryAgg{}
		s.agg[name] = a
	}
	a.Evals++
	if err != nil {
		a.Errors++
		if errors.Is(err, fluxquery.ErrBudgetExceeded) {
			a.BudgetRejections++
		}
	}
	a.Events += st.Events
	a.OutputBytes += st.OutputBytes
	if st.PeakBufferBytes > a.PeakBufferBytes {
		a.PeakBufferBytes = st.PeakBufferBytes
	}
	if st.PeakHeapBufferBytes > a.PeakHeapBufferBytes {
		a.PeakHeapBufferBytes = st.PeakHeapBufferBytes
	}
	a.SpilledBytes += st.SpilledBytes
	a.RehydratedBytes += st.RehydratedBytes
	a.StallMicros += st.BudgetStall.Microseconds()
}

// statsResponse is the GET /stats document: per-query cumulative
// scan/buffer/spill aggregates plus the process-wide buffer-manager
// snapshot.
type statsResponse struct {
	// State is the lifecycle state: "serving", or "draining" once a
	// shutdown signal closed intake.
	State string `json:"state"`
	// Build describes the running binary (mirrors flux_build_info);
	// UptimeSeconds mirrors flux_server_uptime_seconds.
	Build         buildMeta            `json:"build"`
	UptimeSeconds int64                `json:"uptime_seconds"`
	Evals         int64                `json:"evals"`
	Queries       map[string]*queryAgg `json:"queries"`
	Buffers       *bufferStats         `json:"buffers,omitempty"`
	// Pool reports the bounded ingest pool (absent when unbounded);
	// Pipeline the cumulative pipelined-pass metrics (absent while no
	// pipelined pass has run).
	Pool     *poolStats   `json:"pool,omitempty"`
	Pipeline *pipelineAgg `json:"pipeline,omitempty"`
	// Dispatch reports cumulative trie-routing metrics (absent while no
	// trie-dispatched pass has run).
	Dispatch *dispatchAgg `json:"dispatch,omitempty"`
}

// poolStats reports the ingest pool: capacity, passes currently
// streaming, and structured-503 rejections since start.
type poolStats struct {
	Capacity int   `json:"capacity"`
	InFlight int   `json:"in_flight"`
	Rejected int64 `json:"rejected"`
}

// bufferStats embeds the manager snapshot (whose fields carry their
// own JSON tags, so new counters appear here automatically) plus the
// stall in the microsecond unit the rest of the API uses.
type bufferStats struct {
	fluxquery.BufferMetrics
	StallMicros int64 `json:"stall_us"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	resp := statsResponse{
		State:         s.lifecycle(),
		Build:         s.build,
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Evals:         s.evals,
		Queries:       make(map[string]*queryAgg, len(s.agg)),
	}
	for name, a := range s.agg {
		cp := *a
		resp.Queries[name] = &cp
	}
	if s.pool != nil {
		resp.Pool = &poolStats{Capacity: cap(s.pool), InFlight: len(s.pool), Rejected: s.rejected}
	}
	if s.pipeline.Passes > 0 {
		cp := s.pipeline
		resp.Pipeline = &cp
	}
	if s.dispatchStats.Passes > 0 {
		cp := s.dispatchStats
		resp.Dispatch = &cp
	}
	s.mu.RUnlock()
	if s.bufs != nil {
		mt := s.bufs.Metrics()
		resp.Buffers = &bufferStats{BufferMetrics: mt, StallMicros: mt.Stall.Microseconds()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// passesResponse is the GET /debug/passes document: recorder state,
// time-windowed rollups computed from the ring at request time, and the
// retained pass records, most recent first.
type passesResponse struct {
	// Total counts passes ever recorded; Retained of those still in the
	// ring (Capacity bounds it).
	Total    uint64 `json:"total"`
	Retained int    `json:"retained"`
	Capacity int    `json:"capacity"`
	// Rollups aggregates the last minute, the last five minutes and
	// everything retained ("1m", "5m", "all").
	Rollups map[string]fluxquery.PassRollup `json:"rollups"`
	Passes  []fluxquery.PassRecord          `json:"passes"`
}

// handlePasses serves the flight recorder: GET /debug/passes[?n=K]
// returns the rollups and the K most recent records (all retained when
// n is absent or 0).
func (s *server) handlePasses(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeErr(w, http.StatusNotFound, codeRecorderOff, "flight recorder disabled (-flightrec 0)")
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeErr(w, http.StatusBadRequest, codeBadRequest, "bad n=%q (want a non-negative integer)", v)
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, passesResponse{
		Total:    s.rec.Total(),
		Retained: s.rec.Len(),
		Capacity: s.rec.Cap(),
		Rollups: map[string]fluxquery.PassRollup{
			"1m":  s.rec.Rollup(time.Minute),
			"5m":  s.rec.Rollup(5 * time.Minute),
			"all": s.rec.Rollup(0),
		},
		Passes: s.rec.Snapshot(n),
	})
}

// handlePass serves one retained pass record by id:
// GET /debug/passes/{id}.
func (s *server) handlePass(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeErr(w, http.StatusNotFound, codeRecorderOff, "flight recorder disabled (-flightrec 0)")
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, "bad pass id %q", r.PathValue("id"))
		return
	}
	rec, ok := s.rec.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, codePassNotFound,
			"pass %d not retained (ring keeps the most recent %d)", id, s.rec.Cap())
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleQueryStats serves one registered query's cumulative cost ledger:
// GET /queries/{name}/stats. A registered query that no /eval has
// touched yet reports a zero entry rather than a 404.
func (s *server) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	_, registered := s.queries[name]
	s.mu.RUnlock()
	qs, ok := s.ledger.Get(name)
	if !ok {
		if !registered {
			writeErr(w, http.StatusNotFound, codeQueryNotFound, "no query %q", name)
			return
		}
		qs = fluxquery.QueryStats{Name: name}
	}
	writeJSON(w, http.StatusOK, qs)
}

// topResponse is the GET /top document: the K most expensive registered
// queries on one cost axis.
type topResponse struct {
	Axis    string                 `json:"axis"`
	Axes    []string               `json:"axes"`
	Queries []fluxquery.QueryStats `json:"queries"`
}

// handleTop ranks registered queries by cumulative cost:
// GET /top[?axis=cpu|events|bytes|buffer|errors|passes][&k=N]
// (default: top 10 by eval CPU).
func (s *server) handleTop(w http.ResponseWriter, r *http.Request) {
	axis := r.URL.Query().Get("axis")
	if axis == "" {
		axis = "cpu"
	}
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeBadRequest, "bad k=%q (want an integer)", v)
			return
		}
		k = parsed
	}
	top, err := s.ledger.TopK(axis, k)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, topResponse{Axis: axis, Axes: fluxquery.LedgerAxes(), Queries: top})
}
