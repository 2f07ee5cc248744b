// Package fluxquery is an optimizing XQuery processor for streaming XML
// data — a from-scratch reproduction of the FluXQuery engine (Koch,
// Scherzinger, Schweikardt, Stegmaier; VLDB 2004).
//
// The engine evaluates a practical XQuery fragment (nested for-loops,
// where-joins, conditionals, element constructors; no aggregation) over
// XML streams. A DTD is mandatory: FluXQuery's contribution is that it
// exploits schema constraints — cardinality, order and co-occurrence
// constraints derived from the DTD's content models — to rewrite the
// query into the event-based FluX language and thereby minimize main
// memory buffering.
//
// Basic use:
//
//	d, _ := fluxquery.ParseDTD(`<!ELEMENT bib (book)*> ...`)
//	q, _ := fluxquery.ParseQuery(`<results>{ for $b in $ROOT/bib/book
//	    return <result>{ $b/title }{ $b/author }</result> }</results>`)
//	plan, _ := fluxquery.Compile(q, d, fluxquery.Options{})
//	stats, _ := plan.Execute(inputStream, outputStream)
//	fmt.Println(stats.PeakBufferBytes) // bytes buffered at the high-water mark
//
// Three engines share the same front-end and produce byte-identical
// results: EngineFlux (the paper's streaming engine), EngineProjection
// (document projection à la Marian & Siméon, VLDB 2003) and EngineNaive
// (a conventional main-memory processor). The latter two reproduce the
// comparison systems of the paper's evaluation.
package fluxquery

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"fluxquery/internal/baseline"
	"fluxquery/internal/bufmgr"
	"fluxquery/internal/core"
	"fluxquery/internal/dtd"
	"fluxquery/internal/flightrec"
	"fluxquery/internal/mqe"
	"fluxquery/internal/nf"
	"fluxquery/internal/opt"
	"fluxquery/internal/proj"
	"fluxquery/internal/runtime"
	"fluxquery/internal/telemetry"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xquery"
	"fluxquery/internal/xsax"
)

// Engine selects the execution strategy.
type Engine int

// Available engines.
const (
	// EngineFlux is the paper's engine: schema-based scheduling into FluX
	// and streamed evaluation with minimal buffers.
	EngineFlux Engine = iota
	// EngineProjection builds an in-memory tree pruned to the query's
	// paths (Marian & Siméon-style document projection), then evaluates.
	EngineProjection
	// EngineNaive builds the full document tree, then evaluates.
	EngineNaive
)

// String returns the engine's name.
func (e Engine) String() string {
	switch e {
	case EngineFlux:
		return "flux"
	case EngineProjection:
		return "projection"
	case EngineNaive:
		return "naive"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine converts an engine name ("flux", "projection", "naive").
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "flux":
		return EngineFlux, nil
	case "projection":
		return EngineProjection, nil
	case "naive":
		return EngineNaive, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want flux, projection or naive)", s)
	}
}

// Projection selects how the flux engine treats stream regions the query
// provably cannot touch (the plan's projection path-set, derived from its
// FluX handlers and buffer description forest — see docs/ARCHITECTURE.md).
type Projection int

// Projection modes.
const (
	// ProjectionFast (the default) bulk-skips irrelevant subtrees in the
	// tokenizer: their bytes are scanned only for the matching end tag —
	// no attribute materialization, no entity expansion, no event fanout.
	// Skipped regions are checked for XML tag balance, but element
	// declarations and content models inside them are not enforced; every
	// element at or above the projection frontier is still fully DTD
	// validated. Output is byte-identical to an unprojected run on every
	// valid document (the differential suite asserts it); on an invalid
	// document, an error buried inside an irrelevant subtree may go
	// undetected.
	ProjectionFast Projection = iota
	// ProjectionValidate filters event delivery through the same
	// automaton but still tokenizes and DTD-validates the whole stream:
	// error behavior is exactly that of ProjectionOff, while evaluators
	// and the shared-stream fanout still skip the irrelevant events.
	ProjectionValidate
	// ProjectionOff disables stream projection entirely.
	ProjectionOff
)

// String returns the mode's flag spelling ("fast", "validate", "off").
func (p Projection) String() string { return p.mode().String() }

// ParseProjection converts a flag value ("fast", "validate", "off").
func ParseProjection(s string) (Projection, error) {
	m, ok := proj.ParseMode(s)
	if !ok {
		return 0, fmt.Errorf("unknown projection mode %q (want fast, validate or off)", s)
	}
	switch m {
	case proj.ModeValidate:
		return ProjectionValidate, nil
	case proj.ModeOff:
		return ProjectionOff, nil
	default:
		return ProjectionFast, nil
	}
}

func (p Projection) mode() proj.Mode {
	switch p {
	case ProjectionValidate:
		return proj.ModeValidate
	case ProjectionOff:
		return proj.ModeOff
	default:
		return proj.ModeFast
	}
}

// BufferPolicy selects what a budgeted execution does when the next
// buffer fill would push live heap buffer bytes past the budget.
type BufferPolicy int

// Overflow policies.
const (
	// BufferFail aborts the over-budget plan with ErrBudgetExceeded.
	// The cap is per plan, so in a shared pass the failing query never
	// disturbs its siblings — this is the deterministic "reject" mode a
	// server uses to bound any single query.
	BufferFail BufferPolicy = iota
	// BufferSpill evicts the plan's coldest buffered subtrees — largest
	// first — to an unlinked temp-file segment store and transparently
	// rehydrates them when the evaluator first touches them. Output is
	// byte-identical to an unbudgeted run; live heap buffer bytes stay
	// under the budget whenever any cold subtree remains to evict.
	BufferSpill
	// BufferBackpressure lets reservations through but blocks the
	// stream feed of an over-budget pass while any other pass still
	// holds memory it can drain, throttling concurrent work instead of
	// failing it. A lone pass never blocks (nothing could drain).
	BufferBackpressure
)

// String returns the policy's flag spelling.
func (p BufferPolicy) String() string { return p.policy().String() }

// ParseBufferPolicy converts a flag value ("fail", "spill",
// "backpressure").
func ParseBufferPolicy(s string) (BufferPolicy, error) {
	pol, ok := bufmgr.ParsePolicy(s)
	if !ok {
		return 0, fmt.Errorf("unknown buffer policy %q (want fail, spill or backpressure)", s)
	}
	switch pol {
	case bufmgr.PolicySpill:
		return BufferSpill, nil
	case bufmgr.PolicyBackpressure:
		return BufferBackpressure, nil
	default:
		return BufferFail, nil
	}
}

func (p BufferPolicy) policy() bufmgr.Policy {
	switch p {
	case BufferSpill:
		return bufmgr.PolicySpill
	case BufferBackpressure:
		return bufmgr.PolicyBackpressure
	default:
		return bufmgr.PolicyFail
	}
}

// ErrBudgetExceeded is the typed error a BufferFail plan aborts with
// when it would exceed its buffer budget; match it with errors.Is.
var ErrBudgetExceeded = bufmgr.ErrBudgetExceeded

// BufferManager governs the buffer memory of any number of plan
// executions and StreamSet passes against one byte budget. Create one
// per process (or per tenant), hand it to Options.Buffers and
// StreamSet.SetBuffers, and Close it when done to release the spill
// store. All methods are safe for concurrent use.
type BufferManager struct {
	m *bufmgr.Manager
}

// NewBufferManager returns a manager enforcing budget bytes (<= 0
// accounts without enforcing) under the given policy. spillDir is where
// BufferSpill keeps its segment file ("" = the system temp directory);
// the file is created lazily and unlinked immediately, so it cannot
// outlive the process.
func NewBufferManager(budget int64, policy BufferPolicy, spillDir string) *BufferManager {
	return &BufferManager{m: bufmgr.New(bufmgr.Config{
		Budget:   budget,
		Policy:   policy.policy(),
		SpillDir: spillDir,
	})}
}

// Close releases the manager's spill store. Executions drawing on the
// manager must have finished.
func (b *BufferManager) Close() error {
	if b == nil {
		return nil
	}
	return b.m.Close()
}

// BufferMetrics is a point-in-time snapshot of a BufferManager.
type BufferMetrics = bufmgr.Metrics

// Metrics returns the manager's counters: current and peak reserved
// bytes, spill and rehydrate traffic, backpressure stall time, and
// PolicyFail rejections.
func (b *BufferManager) Metrics() BufferMetrics {
	if b == nil {
		return BufferMetrics{}
	}
	return b.m.Metrics()
}

// Telemetry is the engine's metrics handle: a registry of counters,
// gauges and histograms that every wired component publishes to, and
// that WritePrometheus renders as a /metrics scrape. Create one per
// process, hand it to Options.Telemetry and StreamSet.SetTelemetry (and
// BufferManager.RegisterMetrics), and serve WritePrometheus over HTTP.
// A nil *Telemetry disables everything at the cost of a few nil checks
// per pass — there is no background goroutine and no sampling either way.
type Telemetry struct {
	reg *telemetry.Registry
}

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return &Telemetry{reg: telemetry.New()} }

// MetricsContentType is the HTTP Content-Type of WritePrometheus output
// (Prometheus text exposition format v0.0.4).
const MetricsContentType = telemetry.ContentType

// WritePrometheus renders every registered series in Prometheus text
// exposition format. Safe for concurrent use with ongoing executions;
// scrapes of an unchanged registry are byte-identical.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.WritePrometheus(w)
}

// Registry exposes the underlying instrument registry so servers inside
// this module can add their own series (request counters, pool gauges)
// to the same scrape. Nil-safe.
func (t *Telemetry) Registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Trace is one pass's span tree, captured by Plan.ExecuteTrace or a
// StreamSet with tracing enabled: per-stage durations with stall
// attribution, data-flow counters and ring high-water marks. It marshals
// to JSON and renders as a human-readable timeline via WriteTree.
type Trace = telemetry.Trace

// TraceSpan is one node of a Trace.
type TraceSpan = telemetry.Span

// RegisterMetrics publishes the manager's ledger (reserved bytes, spill
// traffic, backpressure stalls, rejections) on the telemetry registry as
// flux_bufmgr_* series. Values are read from the live ledger at scrape
// time; nothing is added to the reservation path.
func (b *BufferManager) RegisterMetrics(t *Telemetry) {
	if b == nil {
		return
	}
	b.m.RegisterMetrics(t.Registry())
}

// Options configures compilation.
type Options struct {
	// Engine selects the execution strategy (default EngineFlux).
	Engine Engine
	// Projection selects the flux engine's stream-projection mode for
	// Plan.Execute (default ProjectionFast). StreamSet passes have their
	// own set-level switch, StreamSet.SetProjection. The baseline engines
	// ignore it.
	Projection Projection
	// DisableOptimizer skips the algebraic optimization step entirely.
	DisableOptimizer bool
	// NoLoopMerging disables the cardinality-constraint loop-merging rule
	// (ablation).
	NoLoopMerging bool
	// NoConditionalElimination disables the language-constraint
	// unsatisfiable-conditional rule (ablation).
	NoConditionalElimination bool
	// NoBufferProjection disables the BDF's sub-path projection inside
	// buffers: buffered children are kept whole, as pure document
	// projection would keep them (ablation for the paper's improvement
	// over [10]).
	NoBufferProjection bool
	// BufferBudget bounds the live heap bytes of the plan's runtime
	// buffers (EngineFlux only; 0 = unlimited). Compile creates a
	// plan-owned BufferManager with BufferPolicy and BufferSpillDir;
	// every Execute of the plan draws on it, and Plan.Close releases
	// its spill store. Ignored when Buffers is set.
	BufferBudget   int64
	BufferPolicy   BufferPolicy
	BufferSpillDir string
	// Buffers, when non-nil, makes the plan's executions draw on a
	// shared, process-wide BufferManager instead (the budget then spans
	// every plan and StreamSet wired to it).
	Buffers *BufferManager
	// Parallel overrides how EngineFlux executes. The pipelined pass
	// runs the validating scan on a goroutine of its own, a bounded
	// batch ring ahead of evaluation, so the scan overlaps the
	// evaluator; the sequential pass runs both on one goroutine. 0, the default, pipelines when GOMAXPROCS >= 2 and runs
	// sequentially on one P; 1 (or any negative n) pins the sequential
	// pass and any n >= 2 the pipeline (the number sets no worker
	// count). Output is byte-identical either way. StreamSet passes have
	// their own override, StreamSet.SetParallel.
	Parallel int
	// Telemetry, when non-nil, publishes the plan's execution metrics
	// (pass counts, latency, input bytes and events) on the registry.
	// StreamSet passes have their own hook, StreamSet.SetTelemetry.
	Telemetry *Telemetry
}

// DTD is a parsed document type definition.
type DTD struct {
	d *dtd.DTD
}

// ParseDTD parses DTD declaration text (<!ELEMENT ...> <!ATTLIST ...>).
func ParseDTD(src string) (*DTD, error) {
	d, err := dtd.Parse(src)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// DTDFromDocument extracts and parses the DOCTYPE internal subset from a
// document's prolog (everything before the root element). It fails if
// the document carries no DOCTYPE with an internal subset.
func DTDFromDocument(doc io.Reader) (*DTD, error) {
	sc := xmltok.NewScanner(doc)
	for {
		tok, err := sc.Next()
		if err != nil {
			return nil, fmt.Errorf("no DOCTYPE declaration found: %w", err)
		}
		switch tok.Kind {
		case xmltok.Directive:
			d, err := dtd.ParseDoctype(tok.Data)
			if err != nil {
				return nil, err
			}
			return &DTD{d: d}, nil
		case xmltok.StartElement:
			return nil, fmt.Errorf("document has no DOCTYPE before the root element")
		}
	}
}

// Root returns the expected document element name.
func (d *DTD) Root() string { return d.d.Root }

// String renders the DTD in declaration syntax.
func (d *DTD) String() string { return d.d.String() }

// ConstraintSummary renders the schema constraints derived for one
// element: cardinalities, order constraints and co-occurrence conflicts.
func (d *DTD) ConstraintSummary(element string) string {
	return d.d.ConstraintSummary(element)
}

// Validate checks a document stream against the DTD.
func (d *DTD) Validate(r io.Reader) error {
	return xsax.Validate(r, d.d)
}

// Query is a parsed query.
type Query struct {
	src  string
	expr xquery.Expr
}

// ParseQuery parses a query in the supported XQuery fragment. The
// document root is addressed as $ROOT (or a leading /).
func ParseQuery(src string) (*Query, error) {
	e, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{src: src, expr: e}, nil
}

// String returns the parsed query rendered back to XQuery.
func (q *Query) String() string { return q.expr.String() }

// Stats reports one execution.
type Stats struct {
	// Engine that produced the result.
	Engine Engine
	// Events is the number of XML tokens consumed.
	Events int64
	// PeakBufferBytes is the high-water mark of live buffered data — the
	// paper's main memory metric (deterministic byte accounting, not heap
	// size).
	PeakBufferBytes int64
	// BufferedBytesTotal is cumulative buffer fill traffic.
	BufferedBytesTotal int64
	// BufferedNodes counts buffered subtree roots.
	BufferedNodes int64
	// OutputBytes is the size of the result stream.
	OutputBytes int64
	// SkippedSubtrees counts input subtrees consumed without processing.
	SkippedSubtrees int64
	// HandlerFirings counts handler/loop-body executions (flux engine).
	HandlerFirings int64
	// ScanEventsDelivered and ScanEventsSkipped report the stream
	// projection of the scan that fed this execution: events delivered to
	// the evaluator vs pruned before it (zero when projection is off).
	// For a StreamSet run the scan is shared, so these appear in
	// StreamSet.LastScan rather than per plan.
	ScanEventsDelivered int64
	ScanEventsSkipped   int64
	// ScanSubtreesSkipped counts pruned subtrees; ScanBytesSkipped counts
	// raw input bytes the tokenizer bulk-skipped (ProjectionFast only).
	ScanSubtreesSkipped int64
	ScanBytesSkipped    int64
	// PeakHeapBufferBytes is the high-water of heap-resident buffered
	// bytes — the quantity a buffer budget bounds. Equal to
	// PeakBufferBytes unless BufferSpill moved subtrees to disk.
	PeakHeapBufferBytes int64
	// SpilledBytes and RehydratedBytes count the execution's traffic to
	// and from the spill store (BufferSpill only).
	SpilledBytes    int64
	RehydratedBytes int64
	// BudgetStall is the time the pass spent blocked by
	// BufferBackpressure (for a StreamSet run, the shared pass's stall).
	BudgetStall time.Duration
	// InputBytes is the raw input size the pass consumed (flux engine).
	InputBytes int64
	// PassID is the process-unique id of the execution pass, correlating
	// these stats with logs, traces and metric scrapes.
	PassID uint64
	// Duration is the wall-clock execution time.
	Duration time.Duration
}

// Plan is a compiled, executable query.
//
// A Plan is immutable after Compile: Execute and ExecuteString may be
// called from any number of goroutines concurrently, each call carrying
// its own execution state. The per-execution machinery (scanner window,
// validator stack, writer buffer) is drawn from internal sync.Pools, so
// steady-state executions allocate only the buffers the query's buffer
// description forest actually requires.
type Plan struct {
	opts       Options
	d          *dtd.DTD
	normalized xquery.Expr
	optimized  xquery.Expr
	optTrace   opt.Trace
	flux       *core.Query
	phys       *runtime.Plan
	// bufs governs the buffer memory of the plan's executions: the
	// shared manager from Options.Buffers, a plan-owned one built from
	// Options.BufferBudget, or nil (unmanaged). ownBufs marks the
	// plan-owned case, which Plan.Close releases.
	bufs    *bufmgr.Manager
	ownBufs bool
	// pm holds the plan's resolved telemetry instruments (nil when
	// Options.Telemetry was not set).
	pm *planMetrics
}

// planMetrics is the instrument bundle of single-plan executions,
// resolved once at Compile. The series names are shared with StreamSet
// passes — a registry wired to both aggregates them, which is the
// intended reading (every execution is one pass over one input).
type planMetrics struct {
	passes      *telemetry.Counter
	bytes       *telemetry.Counter
	events      *telemetry.Counter
	passSeconds *telemetry.Histogram
}

func newPlanMetrics(t *Telemetry) *planMetrics {
	reg := t.Registry()
	if reg == nil {
		return nil
	}
	return &planMetrics{
		passes: reg.Counter("flux_scan_passes_total",
			"Completed shared scan passes."),
		bytes: reg.Counter("flux_scan_bytes_total",
			"Raw input bytes consumed by scan passes."),
		events: reg.Counter("flux_scan_events_total",
			"Validated events fanned out to riding plans."),
		passSeconds: reg.Histogram("flux_pass_seconds",
			"Wall time of one shared scan pass.",
			telemetry.PassLatencyBuckets, telemetry.ScaleNanos),
	}
}

// Close releases the plan-owned buffer manager created by
// Options.BufferBudget (its lazily created spill store holds an open
// file descriptor). It is a no-op — and the Plan remains usable — for
// unbudgeted plans and plans drawing on a shared Options.Buffers
// manager, whose owner closes it. Executions of this plan must have
// finished.
func (p *Plan) Close() error {
	if !p.ownBufs {
		return nil
	}
	return p.bufs.Close()
}

// Compile runs the full pipeline of the paper's architecture (Figure 2):
// normalization, algebraic optimization against the DTD, translation into
// FluX, and physical plan generation. For the baseline engines the
// pipeline stops after optimization.
func Compile(q *Query, d *DTD, o Options) (*Plan, error) {
	n, err := nf.Normalize(q.expr)
	if err != nil {
		return nil, err
	}
	p := &Plan{opts: o, d: d.d, normalized: n, optimized: n}
	if !o.DisableOptimizer {
		optimized, trace, err := opt.Optimize(n, d.d, opt.Options{
			NoLoopMerging:     o.NoLoopMerging,
			NoCondElimination: o.NoConditionalElimination,
		})
		if err != nil {
			return nil, err
		}
		p.optimized = optimized
		p.optTrace = trace
	}
	if o.Engine == EngineFlux {
		flux, err := core.Schedule(p.optimized, d.d)
		if err != nil {
			return nil, err
		}
		phys, err := runtime.CompileOptions(flux, runtime.Options{
			FullBuffers: o.NoBufferProjection,
			Projection:  o.Projection.mode(),
		})
		if err != nil {
			return nil, err
		}
		p.flux = flux
		p.phys = phys
	}
	if o.Buffers != nil {
		p.bufs = o.Buffers.m
	} else if o.BufferBudget > 0 {
		p.bufs = bufmgr.New(bufmgr.Config{
			Budget:   o.BufferBudget,
			Policy:   o.BufferPolicy.policy(),
			SpillDir: o.BufferSpillDir,
		})
		p.ownBufs = true
	}
	if o.Telemetry != nil {
		p.pm = newPlanMetrics(o.Telemetry)
	}
	return p, nil
}

// MustCompile panics on error; for tests and examples with fixed inputs.
func MustCompile(query, dtdSrc string, o Options) *Plan {
	q, err := ParseQuery(query)
	if err != nil {
		panic(err)
	}
	d, err := ParseDTD(dtdSrc)
	if err != nil {
		panic(err)
	}
	p, err := Compile(q, d, o)
	if err != nil {
		panic(err)
	}
	return p
}

// Execute runs the plan over an input document stream and writes the
// result stream to w. It is safe for concurrent use: the plan is
// read-only and all mutable state is per-call.
func (p *Plan) Execute(r io.Reader, w io.Writer) (Stats, error) {
	return p.execute(nil, r, w, nil)
}

// ExecuteContext is Execute under a cancellation context: the feed loop
// checks ctx at every batch boundary, parked gate waits and pipeline
// stages unpark on cancellation, and a cancelled execution returns ctx's
// error as the plan's terminal status — never a silently truncated
// result stream. The baseline engines (EngineProjection, EngineNaive)
// exist for the paper's measurements only and do not observe ctx.
func (p *Plan) ExecuteContext(ctx context.Context, r io.Reader, w io.Writer) (Stats, error) {
	return p.execute(ctx, r, w, nil)
}

// ExecuteTrace is Execute with per-pass span tracing: it returns the
// execution's span tree alongside the stats. id tags the trace (a
// request id, a file name — anything that correlates it with its
// caller); the trace's PassID matches Stats.PassID. For the flux engine
// the tree breaks the pass into scan/eval spans (pipelined executions
// add a read stage span with stall attribution and the ring's
// high-water mark); the baseline engines report a root span only.
func (p *Plan) ExecuteTrace(r io.Reader, w io.Writer, id string) (Stats, *Trace, error) {
	tr := telemetry.NewTrace(id)
	st, err := p.execute(nil, r, w, tr)
	if tr.Root != nil && tr.Root.Dur == 0 {
		tr.End() // baseline engines: root span only
	}
	return st, tr, err
}

func (p *Plan) execute(ctx context.Context, r io.Reader, w io.Writer, tr *telemetry.Trace) (Stats, error) {
	start := time.Now()
	var rst *runtime.Stats
	var err error
	switch p.opts.Engine {
	case EngineFlux:
		rst, err = p.executeFlux(ctx, r, w, tr)
	case EngineProjection:
		rst, err = baseline.RunProjection(p.optimized, p.d, r, w)
	case EngineNaive:
		rst, err = baseline.RunNaive(p.optimized, p.d, r, w)
	default:
		return Stats{}, fmt.Errorf("unknown engine %v", p.opts.Engine)
	}
	wall := time.Since(start)
	st := statsFrom(rst, p.opts.Engine, wall)
	if st.PassID == 0 {
		if tr != nil {
			st.PassID = tr.PassID
		} else {
			st.PassID = telemetry.NextPassID()
		}
	}
	if pm := p.pm; pm != nil && err == nil {
		pm.passes.Inc()
		pm.bytes.Add(st.InputBytes)
		pm.events.Add(st.Events)
		pm.passSeconds.Observe(wall.Nanoseconds())
	}
	return st, err
}

// executeFlux runs the plan as the one consumer of an mqe.Dispatcher
// pass — the same pass loop a StreamSet runs over many plans.
func (p *Plan) executeFlux(ctx context.Context, r io.Reader, w io.Writer, tr *telemetry.Trace) (*runtime.Stats, error) {
	// A Dispatcher pass scans to the end of the stream; the plan's
	// consumer cancels this context once the plan has terminated, so the
	// pass stops reading. The pass then ends with context.Canceled, which
	// is never returned: the plan's own error is.
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	gate := p.bufs.NewGate()
	gate.Bind(ctx)
	acct := gate.NewAccount()
	c := &planRun{se: p.phys.NewStepExecBudgeted(w, acct), acct: acct, stop: stop}
	passID := telemetry.NextPassID()
	var obs *mqe.PassObs
	if tr != nil {
		passID = tr.PassID
		obs = &mqe.PassObs{Scan: tr.Span().Child("scan"), Dispatch: tr.Span().Child("eval")}
	}
	disp := &mqe.Dispatcher{
		DTD:      p.d,
		Proj:     p.phys.ProjAutomaton(),
		ProjMode: p.phys.ProjMode(),
		// One plan has no per-plan rendezvous to amortize: the pipelined
		// pass's 4x default batches, tuned for many plans, slow joins.
		BatchEvents: 256,
		BatchBytes:  32 << 10,
		Gate:        gate,
		Parallel:    mqe.ResolveParallel(p.opts.Parallel),
		Obs:         obs,
		Ctx:         ctx,
	}
	sc, ps, _ := disp.RunScanPass(r, []mqe.Consumer{c})
	stall := gate.Stall()
	gate.Close()
	if st := c.st; st != nil {
		st.ScanEventsDelivered = sc.EventsDelivered
		st.ScanEventsSkipped = sc.EventsSkipped
		st.ScanSubtreesSkipped = sc.SubtreesSkipped
		st.ScanBytesSkipped = sc.BytesSkipped
		st.ScanBytesRead = sc.BytesRead
		st.PassID = passID
		st.BudgetStall = stall
	}
	if tr != nil {
		obs.StampTrace(tr, sc, ps, stall)
	}
	return c.st, c.err
}

// planRun is Execute's one consumer: the plan's StepExec and budget
// account, and the cancel that stops the pass once the plan terminates.
type planRun struct {
	se   *runtime.StepExec
	acct *bufmgr.Account
	stop context.CancelFunc
	st   *runtime.Stats
	err  error
}

func (c *planRun) BeginFeed(evs []xsax.Event) { c.se.BeginFeed(evs) }

func (c *planRun) EndFeed() (bool, error) {
	done, err := c.se.EndFeed()
	if done {
		c.stop()
	}
	return done, err
}

func (c *planRun) Close(cause error) {
	if c.se == nil {
		return
	}
	c.st, c.err = c.se.Close(cause)
	c.se = nil
	if c.acct != nil {
		as := c.acct.Close()
		if c.st != nil {
			c.st.PeakHeapBufferBytes = as.PeakBytes
			c.st.SpilledBytes = as.SpilledBytes
			c.st.RehydratedBytes = as.RehydratedBytes
		}
	}
}

// statsFrom converts the runtime's counters into the public Stats.
func statsFrom(rst *runtime.Stats, e Engine, d time.Duration) Stats {
	st := Stats{Engine: e, Duration: d}
	if rst != nil {
		st.Events = rst.Events
		st.PeakBufferBytes = rst.PeakBufferBytes
		st.BufferedBytesTotal = rst.BufferedBytesTotal
		st.BufferedNodes = rst.BufferedNodes
		st.OutputBytes = rst.OutputBytes
		st.SkippedSubtrees = rst.SkippedSubtrees
		st.HandlerFirings = rst.HandlerFirings
		st.ScanEventsDelivered = rst.ScanEventsDelivered
		st.ScanEventsSkipped = rst.ScanEventsSkipped
		st.ScanSubtreesSkipped = rst.ScanSubtreesSkipped
		st.ScanBytesSkipped = rst.ScanBytesSkipped
		st.PeakHeapBufferBytes = rst.PeakHeapBufferBytes
		st.SpilledBytes = rst.SpilledBytes
		st.RehydratedBytes = rst.RehydratedBytes
		st.BudgetStall = rst.BudgetStall
		st.InputBytes = rst.ScanBytesRead
		st.PassID = rst.PassID
	}
	return st
}

// ExecuteString is a convenience wrapper for string input and output.
func (p *Plan) ExecuteString(doc string) (string, Stats, error) {
	var out strings.Builder
	st, err := p.Execute(strings.NewReader(doc), &out)
	return out.String(), st, err
}

// StreamSet evaluates any number of compiled plans over a shared input
// stream in a single tokenize+validate pass (the multi-query engine,
// internal/mqe). Where N independent Execute calls scan a document N
// times, a StreamSet scans it once and fans the validated events out to
// every registered plan; each plan's output is byte-identical to what its
// own Execute would produce.
//
// Plans are registered with a per-plan output writer and can be
// registered and unregistered concurrently with Run: registrations take
// effect at the next Run, unregistrations detach from an in-flight Run at
// the next event-batch boundary. A plan that fails mid-stream (bad
// output writer, runtime error) is detached and reported through its
// StreamQuery; the stream and the other plans continue.
type StreamSet struct {
	d   *DTD
	set *mqe.Set
	// rec and led retain the installed wrapper handles so Recorder()
	// and Ledger() hand back what SetRecorder/SetLedger received.
	rec *FlightRecorder
	led *QueryLedger
}

// NewStreamSet returns an empty StreamSet for streams governed by d.
func NewStreamSet(d *DTD) *StreamSet {
	return &StreamSet{d: d, set: mqe.NewSet(d.d)}
}

// Register adds a compiled plan to the set, streaming its result to out
// on every subsequent Run. The plan must use EngineFlux (the baseline
// engines materialize documents and do not ride event streams) and be
// compiled against the set's DTD.
func (s *StreamSet) Register(p *Plan, out io.Writer) (*StreamQuery, error) {
	return s.RegisterNamed(p, out, "")
}

// RegisterNamed is Register with an explicit plan name. The name labels
// the plan's telemetry: its per-batch eval latency series
// (flux_eval_batch_seconds{plan="..."}) and its eval span in traces.
// An empty name auto-assigns q0, q1, … in registration order.
func (s *StreamSet) RegisterNamed(p *Plan, out io.Writer, name string) (*StreamQuery, error) {
	if p.opts.Engine != EngineFlux {
		return nil, fmt.Errorf("fluxquery: StreamSet requires EngineFlux plans, got %v", p.opts.Engine)
	}
	sub, err := s.set.RegisterNamed(p.phys, out, name)
	if err != nil {
		return nil, err
	}
	return &StreamQuery{sub: sub}, nil
}

// Len returns the number of registered plans.
func (s *StreamSet) Len() int { return s.set.Len() }

// SetProjection selects how shared passes treat stream regions that no
// registered plan can use. The set maintains the union of every
// registered plan's projection path-set as one skip automaton, recomputed
// on Register/Unregister; the mode (default ProjectionFast) decides
// whether the pruned remainder is bulk-skipped in the tokenizer, still
// validated, or delivered anyway. Takes effect at the next Run.
func (s *StreamSet) SetProjection(m Projection) { s.set.SetProjection(m.mode()) }

// SetBuffers installs the BufferManager governing the set's shared
// passes (nil = unmanaged). Each Run opens one backpressure gate for the
// pass and one budget account per riding plan, so a BufferFail overflow
// rejects only the offending query while its siblings complete, and
// BufferSpill keeps each plan's live heap buffers under the shared
// budget. Takes effect at the next Run.
func (s *StreamSet) SetBuffers(b *BufferManager) {
	if b == nil {
		s.set.SetBuffers(nil)
		return
	}
	s.set.SetBuffers(b.m)
}

// SetParallel overrides how the set's shared passes execute. Any n >= 2
// runs the pipelined pass — the validating scan on its own goroutine, a
// bounded batch ring ahead of dispatch, each plan evaluating on its own
// goroutine; the number sets no worker count. 1 pins the
// sequential single-goroutine pass, and so does a negative n, which the
// pass reports as 1. 0, the default, runs the pipeline when GOMAXPROCS
// >= 2 and the sequential pass on one P. Per-plan outputs are
// byte-identical either way. Takes effect at the next Run.
func (s *StreamSet) SetParallel(n int) { s.set.SetParallel(n) }

// Dispatch selects how a StreamSet's shared passes fan the validated
// event stream out to the registered plans.
type Dispatch int

// Dispatch modes.
const (
	// DispatchFanout (the default) delivers every event batch to every
	// riding plan; each plan's own projection logic discards what it
	// cannot use. Per-event cost is linear in the registration count.
	DispatchFanout Dispatch = iota
	// DispatchTrie routes each event through a dispatch trie that interns
	// the registered plans' projection automata into one id-indexed
	// structure: the event resolves its trie node once and is delivered
	// only to the plans whose paths actually reach it, with per-plan
	// pending batches flushed as they fill. Per-event cost tracks the
	// number of distinct registered paths, not the registration count, so
	// the marginal cost of one more overlapping query stays near-flat.
	// Outputs are byte-identical to DispatchFanout (and to independent
	// Execute calls); delivered-event statistics differ, since plans that
	// tolerate it no longer receive shells of irrelevant subtrees.
	DispatchTrie
)

// String returns the mode's flag spelling ("fanout", "trie").
func (d Dispatch) String() string { return d.mode().String() }

// ParseDispatch converts a flag value ("fanout", "trie").
func ParseDispatch(s string) (Dispatch, error) {
	m, ok := mqe.ParseDispatchMode(s)
	if !ok {
		return 0, fmt.Errorf("unknown dispatch mode %q (want fanout or trie)", s)
	}
	if m == mqe.DispatchTrie {
		return DispatchTrie, nil
	}
	return DispatchFanout, nil
}

func (d Dispatch) mode() mqe.DispatchMode {
	if d == DispatchTrie {
		return mqe.DispatchTrie
	}
	return mqe.DispatchFanout
}

// SetDispatch selects the set's fan-out strategy (default
// DispatchFanout). Takes effect at the next Run; the dispatch trie is
// rebuilt lazily after registration changes, under the same
// immutable-snapshot discipline as the projection union.
func (s *StreamSet) SetDispatch(d Dispatch) { s.set.SetDispatch(d.mode()) }

// DispatchStats reports the dispatch-layer statistics of the most
// recent shared pass: the mode and plan count always, and — under
// DispatchTrie — the trie snapshot's size, the pass's routing totals
// and the trie build time.
type DispatchStats = mqe.DispatchStats

// LastDispatch returns the dispatch statistics of the most recent
// successfully completed Run.
func (s *StreamSet) LastDispatch() DispatchStats { return s.set.LastDispatch() }

// SetTelemetry wires the set's shared passes into t's metrics registry:
// pass/byte/event counters, pass-latency and input-size histograms,
// per-stage stall and ring-occupancy series, and per-plan eval latency
// histograms labeled by registration name. nil detaches. Takes effect
// at the next Run; the disabled path costs one nil check per batch.
func (s *StreamSet) SetTelemetry(t *Telemetry) {
	if t == nil {
		s.set.SetTelemetry(nil)
		return
	}
	s.set.SetTelemetry(t.reg)
}

// SetTracing toggles per-pass span tracing. While enabled, every Run
// builds a span tree — scan and dispatch phases, one eval span per
// riding plan, stage spans with stall attribution for pipelined passes
// — retrievable through LastTrace. id tags the traces (reused across
// runs until changed). Takes effect at the next Run.
func (s *StreamSet) SetTracing(on bool, id string) { s.set.SetTracing(on, id) }

// LastTrace returns the span tree of the most recent completed Run, or
// nil if tracing was off for that run.
func (s *StreamSet) LastTrace() *Trace { return s.set.LastTrace() }

// PassRecord is one completed shared pass as retained by the
// FlightRecorder: engine configuration, data-flow totals, per-stage
// stall breakdown, ring peaks, buffer and spill accounting, fault hits,
// cancellation reason and terminal error. It marshals to JSON (duration
// fields in nanoseconds).
type PassRecord = flightrec.Record

// PassRollup is a windowed aggregate over retained PassRecords: counts,
// data flow, nearest-rank latency percentiles and stall attribution.
type PassRollup = flightrec.Rollup

// FlightRecorderConfig configures a FlightRecorder.
type FlightRecorderConfig struct {
	// Size is the ring capacity in pass records (default 256); the ring
	// is preallocated, so recording never allocates ring storage.
	Size int
	// SlowLatency and SlowStall arm the slow-pass capture policy: a
	// pass whose wall time exceeds SlowLatency, or whose summed stage
	// stall exceeds SlowStall, retains its full span tree in the record
	// and is dumped through Logger with its request id. Zero disables
	// the respective trigger.
	SlowLatency time.Duration
	SlowStall   time.Duration
	// Logger receives slow-pass dumps (nil = slog.Default()).
	Logger *slog.Logger
}

// FlightRecorder is the engine's pass flight recorder: a fixed-size ring
// of completed pass records with time-windowed rollups and a slow-pass
// capture policy. Create one per process, install it on StreamSets with
// SetRecorder, and query it after the fact — the recorder answers "what
// did pass #N do" where Telemetry answers "how is the process doing".
// All methods are safe for concurrent use and nil-safe.
type FlightRecorder struct {
	rec *flightrec.Recorder
}

// NewFlightRecorder returns a recorder with a preallocated ring.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return &FlightRecorder{rec: flightrec.New(flightrec.Config{
		Size:        cfg.Size,
		SlowLatency: cfg.SlowLatency,
		SlowStall:   cfg.SlowStall,
		Logger:      cfg.Logger,
	})}
}

// Len returns the number of retained records; Cap the ring capacity;
// Total the number of records ever deposited.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return f.rec.Len()
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.rec.Cap()
}

// Total returns the number of records ever deposited (Total - Len have
// been overwritten).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.rec.Total()
}

// Snapshot returns up to n retained pass records, most recent first
// (n <= 0 returns all retained).
func (f *FlightRecorder) Snapshot(n int) []PassRecord {
	if f == nil {
		return nil
	}
	return f.rec.Snapshot(n)
}

// Get returns the retained record with the given pass id.
func (f *FlightRecorder) Get(passID uint64) (PassRecord, bool) {
	if f == nil {
		return PassRecord{}, false
	}
	return f.rec.Get(passID)
}

// Rollup aggregates the retained records whose pass ended within window
// of now (window <= 0 covers every retained record). Percentiles are
// computed from the ring at call time, not maintained as histograms.
func (f *FlightRecorder) Rollup(window time.Duration) PassRollup {
	if f == nil {
		return PassRollup{Window: window}
	}
	return f.rec.Rollup(window)
}

// SetRecorder installs the flight recorder receiving one PassRecord per
// completed Run, success or failure (nil detaches). When the recorder's
// slow-pass thresholds are armed, passes build a span tree even with
// tracing off, so slow passes dump with full stage attribution. Takes
// effect at the next Run.
func (s *StreamSet) SetRecorder(f *FlightRecorder) {
	s.rec = f
	if f == nil {
		s.set.SetRecorder(nil)
		return
	}
	s.set.SetRecorder(f.rec)
}

// Recorder returns the installed flight recorder (nil when none).
func (s *StreamSet) Recorder() *FlightRecorder { return s.rec }

// SetRequestID labels subsequent Runs' flight-recorder records (and
// slow-pass log dumps) with the driving request's id ("" clears it), so
// a slow pass joins back to its access-log line. Takes effect at the
// next Run.
func (s *StreamSet) SetRequestID(id string) { s.set.SetRequestID(id) }

// QueryStats is the cumulative cost ledger of one registered query name:
// passes ridden, evaluator CPU attributed, events and bytes delivered,
// buffer high-water marks, spill traffic, error count and last error.
type QueryStats = mqe.QueryStats

// QueryLedger attributes cost to registered query names across shared
// passes. Create one per process, install it on StreamSets with
// SetLedger; entries accrue across Runs and across StreamSets sharing
// the ledger, keyed by registration name. All methods are safe for
// concurrent use and nil-safe.
type QueryLedger struct {
	l *mqe.Ledger
}

// NewQueryLedger returns an empty ledger.
func NewQueryLedger() *QueryLedger { return &QueryLedger{l: mqe.NewLedger()} }

// Len returns the number of distinct query names in the ledger.
func (q *QueryLedger) Len() int {
	if q == nil {
		return 0
	}
	return q.l.Len()
}

// Get returns the entry for one query name.
func (q *QueryLedger) Get(name string) (QueryStats, bool) {
	if q == nil {
		return QueryStats{}, false
	}
	return q.l.Get(name)
}

// Stats returns every entry, sorted by name.
func (q *QueryLedger) Stats() []QueryStats {
	if q == nil {
		return nil
	}
	return q.l.Stats()
}

// TopK returns the k entries with the largest value on the given axis —
// one of LedgerAxes: "cpu" (evaluator CPU), "events", "bytes" (output),
// "buffer" (peak heap buffer), "errors", "passes" — descending, ties
// broken by name. k <= 0 returns every entry.
func (q *QueryLedger) TopK(axis string, k int) ([]QueryStats, error) {
	if q == nil {
		return nil, nil
	}
	return q.l.TopK(axis, k)
}

// Reset clears every entry.
func (q *QueryLedger) Reset() {
	if q == nil {
		return
	}
	q.l.Reset()
}

// LedgerAxes returns the axis names QueryLedger.TopK accepts.
func LedgerAxes() []string { return mqe.Axes() }

// SetLedger installs the cost ledger (nil detaches): every Run folds
// each riding plan's cost — evaluator CPU, delivered events, output
// bytes, buffer peaks, errors — into the ledger entry of its
// registration name. Takes effect at the next Run.
func (s *StreamSet) SetLedger(q *QueryLedger) {
	s.led = q
	if q == nil {
		s.set.SetLedger(nil)
		return
	}
	s.set.SetLedger(q.l)
}

// Ledger returns the installed cost ledger (nil when none).
func (s *StreamSet) Ledger() *QueryLedger { return s.led }

// PassStats reports the pipeline metrics of a shared pass. Apart from
// Batches, all are zero after sequential passes.
type PassStats struct {
	// Parallel is the pass's resolved Parallel setting (>= 2) when it ran
	// pipelined, whatever the number of riding plans; 0 when it ran
	// sequentially.
	Parallel int
	// Batches counts the non-empty validated event batches the pass took
	// from its scan, sequential or pipelined, fanout or trie dispatch.
	Batches int64
	// ScanStall and DispatchStall are the two stages' blocked times: the
	// validating reader on a full ring (evaluation was the bottleneck)
	// and the dispatcher waiting for a validated batch (the scan was the
	// bottleneck).
	ScanStall     time.Duration
	DispatchStall time.Duration
	// RingPeak is the high-water occupancy of the ring between them.
	RingPeak int
}

// LastPass returns the pipeline metrics of the most recent successfully
// completed Run.
func (s *StreamSet) LastPass() PassStats {
	ps := s.set.LastPass()
	return PassStats{
		Parallel:      ps.Parallel,
		Batches:       ps.Batches,
		ScanStall:     ps.ScanStall,
		DispatchStall: ps.DispatchStall,
		RingPeak:      ps.RingPeak,
	}
}

// ScanStats reports one shared scan pass of a StreamSet.
type ScanStats struct {
	// Passes counts completed Run calls (each is exactly one
	// tokenize+validate pass regardless of how many plans ride it).
	Passes int64
	// EventsDelivered and EventsSkipped report the most recent pass's
	// projection: events fanned out to the plans vs pruned at the scan.
	EventsDelivered int64
	EventsSkipped   int64
	// SubtreesSkipped counts pruned subtrees; BytesSkipped counts raw
	// input bytes bulk-skipped by the tokenizer (ProjectionFast only).
	SubtreesSkipped int64
	BytesSkipped    int64
	// InputBytes is the raw input size the most recent pass consumed,
	// skipped regions included.
	InputBytes int64
	// Stall is the time the pass spent blocked by BufferBackpressure.
	Stall time.Duration
}

// LastScan returns the scan statistics of the most recent Run.
func (s *StreamSet) LastScan() ScanStats {
	sc, passes := s.set.LastScan()
	return ScanStats{
		Passes:          passes,
		EventsDelivered: sc.EventsDelivered,
		EventsSkipped:   sc.EventsSkipped,
		SubtreesSkipped: sc.SubtreesSkipped,
		BytesSkipped:    sc.BytesSkipped,
		InputBytes:      sc.BytesRead,
		Stall:           s.set.LastStall(),
	}
}

// Run evaluates every registered plan over one document in a single
// shared pass. Per-plan outcomes are reported through each StreamQuery;
// Run's own error is the stream's (tokenizer or validation failure), nil
// on a well-formed, valid document. Concurrent Run calls are serialized,
// since every plan streams to the fixed writer it was registered with.
func (s *StreamSet) Run(r io.Reader) error { return s.set.Run(r) }

// RunContext is Run under a cancellation context: the shared pass checks
// ctx at every batch boundary, parked stages (backpressure gate waits,
// pipeline ring hand-offs) unpark on cancellation, and ctx's error
// becomes both RunContext's return and every riding query's Err() — a
// cancelled pass always reports the cancellation on each query, never a
// silently truncated result.
func (s *StreamSet) RunContext(ctx context.Context, r io.Reader) error {
	return s.set.RunContext(ctx, r)
}

// RunString is a convenience wrapper over Run for string input.
func (s *StreamSet) RunString(doc string) error { return s.Run(strings.NewReader(doc)) }

// StreamQuery is one plan's registration in a StreamSet.
type StreamQuery struct {
	sub *mqe.Sub
}

// Unregister removes the plan from its StreamSet. If a Run is in flight
// the plan is detached at the next batch boundary and that run's result
// records the abort. Unregister is idempotent.
func (q *StreamQuery) Unregister() { q.sub.Unregister() }

// Stats returns the plan's outcome from the most recent Run that included
// it: execution statistics and the error that ended the evaluation (nil
// for a clean run). Before any Run it reports an error.
func (q *StreamQuery) Stats() (Stats, error) {
	rst, err := q.sub.Result()
	return statsFrom(&rst, EngineFlux, q.sub.Duration()), err
}

// FluxString renders the scheduled FluX query (flux engine only).
func (p *Plan) FluxString() string {
	if p.flux == nil {
		return ""
	}
	return p.flux.String()
}

// Explain describes every stage of the compilation pipeline.
func (p *Plan) Explain() string {
	var b strings.Builder
	b.WriteString("== normal form ==\n")
	b.WriteString(p.normalized.String())
	b.WriteString("\n\n== algebraic optimization ==\n")
	if len(p.optTrace) == 0 {
		b.WriteString("(no rewrites)\n")
	} else {
		for _, s := range p.optTrace {
			b.WriteString("  " + s.String() + "\n")
		}
		b.WriteString(p.optimized.String())
		b.WriteString("\n")
	}
	if p.flux != nil {
		b.WriteString("\n== flux query ==\n")
		b.WriteString(p.flux.String())
		b.WriteString("\n== scheduling decisions ==\n")
		for _, s := range p.flux.Trace {
			b.WriteString("  " + s + "\n")
		}
		b.WriteString("\n== buffer description forest ==\n")
		b.WriteString(p.phys.BDF.String())
	}
	return b.String()
}
