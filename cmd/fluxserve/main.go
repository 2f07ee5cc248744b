// Command fluxserve is a continuous-query server over the shared-stream
// multi-query engine: clients register compiled XQuery plans once, then
// POST XML documents; every registered query is evaluated over each
// document in a single tokenize+validate pass (fluxquery.StreamSet).
//
// Usage:
//
//	fluxserve -dtd bib.dtd [-addr :8080] [-proj fast|validate|off]
//	          [-budget 64M -budget-policy fail|spill|backpressure [-spill-dir DIR]]
//	          [-dispatch fanout|trie] [-pool N]
//	          [-debug-addr :6060] [-q name=query.xq ...]
//
// Endpoints:
//
//	GET    /healthz              liveness (also reports query count)
//	GET    /queries              list registered queries
//	PUT    /queries/{name}       register/replace a query (body: XQuery text)
//	GET    /queries/{name}       show one query
//	DELETE /queries/{name}       unregister a query
//	POST   /eval                 evaluate all queries over the posted XML
//	POST   /eval?q=a&q=b         evaluate a subset
//	POST   /eval?trace=1         additionally return the pass's span tree
//	GET    /stats                per-query and aggregate buffer/spill metrics
//	GET    /metrics              Prometheus text exposition of all series
//	GET    /queries/{name}/stats one query's cumulative cost ledger
//	GET    /top?axis=cpu&k=10    most expensive queries by one cost axis
//	GET    /debug/passes         flight recorder: recent passes + rollups
//	GET    /debug/passes/{id}    one retained pass record by pass id
//
// Observability: every request is assigned an id (echoed as
// X-Request-Id and written to the structured stderr access log); with
// ?trace=1 an /eval response additionally carries the shared pass's
// span tree — scan and dispatch phases, one eval span per query, and
// for a pipelined pass the tokenize/validate stage spans with stall
// attribution and ring high-water marks — tagged with that request id.
// GET /metrics exposes scan, pipeline, buffer-manager, ingest-pool and
// HTTP series for scraping (plus flux_build_info and
// flux_server_uptime_seconds); -debug-addr starts a second listener
// with Go's pprof profiling endpoints (/debug/pprof/), kept off the
// public address so profiling is opt-in.
//
// Flight recorder: every /eval pass deposits one record — engine
// configuration, input bytes, MB/s, per-stage stall breakdown, ring
// peaks, buffer/spill accounting, fault hits, cancellation reason and
// terminal error — into a fixed ring of -flightrec records (default
// 256; 0 disables). GET /debug/passes returns the retained records with
// 1m/5m/since-start rollups (latency percentiles computed from the
// ring), GET /debug/passes/{id} one record by pass id. A pass slower
// than -slow-pass, or with cumulative stage stall over -slow-stall,
// additionally retains its full span tree and is dumped through the
// structured log with its request id. GET /queries/{name}/stats serves
// one query's cumulative cost ledger (eval CPU, events, output bytes,
// buffer peaks, errors) and GET /top ranks queries by any cost axis.
// The companion command fluxtop renders these endpoints as a live
// terminal dashboard (fluxtop -addr http://host:8080).
//
// Every endpoint responds with compact JSON: one line, with '<', '>' and
// '&' left literal. The /eval response carries:
//
//   - "scan": the shared pass itself — "passes" (always 1: one
//     tokenize+validate pass no matter how many queries ride it), the
//     projection mode, and the events delivered to the plans vs events,
//     subtrees and raw bytes pruned by the union skip automaton (the
//     projection of everything no selected query can touch; see -proj).
//   - "results": one object per query carrying the output document, the
//     query's statistics from the shared pass, and any per-query error (a
//     failing query never disturbs the others or the stream).
//
// With -proj fast (the default), stream regions outside every selected
// query's path-set are checked for tag balance but not validated against
// the DTD; -proj validate keeps full validation while still pruning
// delivery, and -proj off disables projection.
//
// With -budget, one process-wide buffer manager governs the runtime
// buffers of every concurrent /eval pass. -budget-policy selects the
// overflow behavior: "spill" and "backpressure" bound the aggregate
// live heap of all passes against the one budget (spill evicts cold
// buffered subtrees to an unlinked temp file under -spill-dir and
// rehydrates them on access — byte-identical output, bounded heap;
// backpressure throttles an over-budget pass while other passes drain).
// "fail" is a per-query cap, not an aggregate bound: each query is
// rejected when its own buffers would exceed the budget (its /eval
// result carries code 413 while sibling queries complete), so N
// concurrent passes may together hold up to N budgets. GET /stats
// exposes the manager's counters and per-query cumulative aggregates.
//
// With -dispatch trie, each /eval's shared pass routes events through a
// dispatch trie interning every selected query's projection automaton:
// an event is delivered only to the queries whose paths reach it, so
// per-event cost tracks the distinct registered paths instead of the
// query count. Outputs are byte-identical to fanout; the /eval response
// and GET /stats gain a "dispatch" object with the trie size and
// routing totals.
//
// When GOMAXPROCS >= 2, each /eval's shared pass runs pipelined:
// tokenizer, validator and dispatcher on separate goroutines connected
// by bounded batch rings, each plan evaluating on its own goroutine.
// GOMAXPROCS=1 selects the sequential single-goroutine pass;
// there is no flag, GOMAXPROCS is the one control.
//
// -pool bounds the number of concurrently streaming /eval passes
// (default 2×GOMAXPROCS); a request arriving with every slot busy is
// shed with a structured 503 ({"error": ..., "code":
// "POOL_SATURATED"}) rather than queued, so many documents streaming
// against the one buffer budget stay bounded. Every non-200 response
// carries such a "code" (BODY_TOO_LARGE, POOL_SATURATED,
// QUERY_NOT_FOUND, INVALID_QUERY, INVALID_DOCUMENT, BAD_REQUEST,
// INTERNAL, TIMEOUT, CLIENT_GONE, DRAINING); GET /stats reports pool
// occupancy/rejections and, for pipelined passes, cumulative per-stage
// stall metrics.
//
// Timeouts and cancellation: -eval-timeout bounds each /eval pass's
// wall time — the deadline rides the request context into the engine
// (every layer down to the buffer-manager gate observes it) and is
// also pinned onto the connection's read deadline so a pass stuck
// reading the body is unblocked too; expiry returns a 504 TIMEOUT. A
// client that disconnects mid-pass cancels its pass the same way (499
// CLIENT_GONE in the access log). -read-timeout, when set, deadlines
// the whole request read at the HTTP layer (http.Server.ReadTimeout;
// 0 keeps only the 10s header deadline).
//
// Shutdown: on SIGTERM or SIGINT the server stops intake — new /eval
// requests get a structured 503 DRAINING, /stats reports "state":
// "draining" — and waits up to -drain-timeout for in-flight passes to
// finish; stragglers are then cancelled through the same context path.
// The process exits 0 after a drain in which every admitted pass
// terminated (finished or cancelled cleanly).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fluxquery"
	"fluxquery/internal/unit"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dtdPath   = flag.String("dtd", "", "path to the DTD file governing all streams (required)")
		maxBody   = flag.Int64("max-body", 64<<20, "maximum request body size in bytes")
		projMode  = flag.String("proj", "fast", "stream projection for shared passes: fast, validate or off")
		budget    = flag.String("budget", "", "buffer byte budget for all passes, e.g. 64M (empty = unlimited)")
		budPolicy = flag.String("budget-policy", "spill", "buffer overflow policy: fail, spill or backpressure")
		spillDir  = flag.String("spill-dir", "", "directory for the spill segment file (default: system temp)")
		dispMode  = flag.String("dispatch", "fanout", "shared-pass fan-out strategy: fanout (every batch to every query) or trie (trie-routed per-query delivery)")
		pool      = flag.Int("pool", 2*runtime.GOMAXPROCS(0), "maximum concurrently streaming /eval passes; excess requests get a structured 503 (0 = unbounded)")
		debugAddr = flag.String("debug-addr", "", "separate listen address for pprof profiling endpoints (empty = disabled)")
		flightrec = flag.Int("flightrec", 256, "pass flight-recorder ring size behind GET /debug/passes (0 = disabled)")
		slowPass  = flag.Duration("slow-pass", 0, "latency threshold of the slow-pass capture policy: slower passes keep their span tree and dump to the log (0 = off)")
		slowStall = flag.Duration("slow-stall", 0, "stall threshold of the slow-pass capture policy: passes with more cumulative stage stall keep their span tree and dump to the log (0 = off)")
		evalTO    = flag.Duration("eval-timeout", 0, "wall-time budget per /eval pass; expiry cancels the pass and returns a 504 TIMEOUT (0 = unbounded)")
		readTO    = flag.Duration("read-timeout", 0, "whole-request read deadline at the HTTP layer (0 = header deadline only)")
		drainTO   = flag.Duration("drain-timeout", 15*time.Second, "on SIGTERM/SIGINT, how long in-flight /eval passes may finish before being cancelled")
	)
	var preload multiFlag
	flag.Var(&preload, "q", "preload a query as name=path.xq (repeatable)")
	flag.Parse()

	if *dtdPath == "" {
		fmt.Fprintln(os.Stderr, "fluxserve: -dtd is required")
		os.Exit(2)
	}
	dtdSrc, err := os.ReadFile(*dtdPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxserve:", err)
		os.Exit(1)
	}
	projection, err := fluxquery.ParseProjection(*projMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxserve:", err)
		os.Exit(2)
	}
	budgetBytes, err := unit.ParseBytes(*budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxserve: -budget:", err)
		os.Exit(2)
	}
	policy, err := fluxquery.ParseBufferPolicy(*budPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxserve:", err)
		os.Exit(2)
	}
	// The server captures slog.Default at construction, so the handler
	// must be installed first.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	srv, err := newServer(string(dtdSrc), *maxBody, projection, budgetBytes, policy, *spillDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxserve:", err)
		os.Exit(1)
	}
	dispatch, err := fluxquery.ParseDispatch(*dispMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxserve:", err)
		os.Exit(2)
	}
	srv.setDispatch(dispatch)
	srv.setPool(*pool)
	srv.setEvalTimeout(*evalTO)
	srv.setFlightRecorder(*flightrec, *slowPass, *slowStall)
	for _, spec := range preload {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "fluxserve: -q wants name=path, got %q\n", spec)
			os.Exit(2)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fluxserve:", err)
			os.Exit(1)
		}
		if err := srv.register(name, string(src)); err != nil {
			fmt.Fprintf(os.Stderr, "fluxserve: -q %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	// Profiling stays on its own opt-in listener: pprof handlers expose
	// heap contents and must never ride the public address.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "fluxserve: pprof on %s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				fmt.Fprintln(os.Stderr, "fluxserve: debug listener:", err)
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "fluxserve: serving DTD root <%s> on %s (%d queries preloaded)\n",
		srv.root(), *addr, len(preload))
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.handler(),
		// A long-running server must not let half-open connections pin
		// goroutines forever (slow-loris); document bodies can be large,
		// so only the header read is deadlined here unless -read-timeout
		// opts into a whole-request read deadline.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTO,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: the first SIGTERM/SIGINT starts the drain; a
	// second signal (stop() restores default handling) kills the process
	// the ordinary way if the drain itself wedges.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fluxserve:", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "fluxserve: draining (timeout %s)\n", *drainTO)
	// Order matters: close /eval intake before http.Server.Shutdown, so
	// no request slips in between the two; Shutdown then waits for the
	// connections of the already-admitted (or already-drained) passes.
	clean := srv.drain(*drainTO)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "fluxserve: shutdown:", err)
	}
	if clean {
		fmt.Fprintln(os.Stderr, "fluxserve: drained, exiting")
	} else {
		fmt.Fprintln(os.Stderr, "fluxserve: drain deadline hit, in-flight passes cancelled")
	}
	os.Exit(0)
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
