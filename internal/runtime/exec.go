package runtime

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"fluxquery/internal/bdf"
	"fluxquery/internal/bufmgr"
	"fluxquery/internal/core"
	"fluxquery/internal/dom"
	"fluxquery/internal/eval"
	"fluxquery/internal/proj"
	"fluxquery/internal/telemetry"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xquery"
	"fluxquery/internal/xsax"
)

// Stats reports a plan execution. Buffer sizes use the deterministic
// byte accounting of the dom package, so "peak buffer" is the engine's
// machine-independent memory-consumption metric.
type Stats struct {
	// Events counts XML tokens consumed from the stream.
	Events int64
	// PeakBufferBytes is the high-water mark of live buffered data.
	PeakBufferBytes int64
	// BufferedBytesTotal accumulates every byte that was ever buffered
	// (fill traffic, not residency).
	BufferedBytesTotal int64
	// BufferedNodes counts buffered subtree roots.
	BufferedNodes int64
	// OutputBytes is the size of the produced result stream.
	OutputBytes int64
	// SkippedSubtrees counts children consumed without processing.
	SkippedSubtrees int64
	// HandlerFirings counts handler executions.
	HandlerFirings int64
	// Scan* report the stream projection of the pass that fed this
	// execution (zero when projection was off): events delivered to the
	// evaluator vs pruned before it, pruned subtrees, and raw bytes the
	// tokenizer bulk-skipped.
	ScanEventsDelivered int64
	ScanEventsSkipped   int64
	ScanSubtreesSkipped int64
	ScanBytesSkipped    int64
	// PeakHeapBufferBytes is the high-water of heap-resident buffered
	// bytes. It equals PeakBufferBytes (the logical metric above) unless
	// a buffer manager spilled subtrees to disk, in which case it is the
	// quantity the budget bounds.
	PeakHeapBufferBytes int64
	// SpilledBytes and RehydratedBytes count the execution's traffic to
	// and from the spill store (PolicySpill only).
	SpilledBytes    int64
	RehydratedBytes int64
	// BudgetStall is the time the pass spent blocked at its backpressure
	// gate (PolicyBackpressure only; for a shared pass the stall belongs
	// to the pass and every riding plan reports the same value).
	BudgetStall time.Duration
	// ScanBytesRead is the raw input size the pass consumed.
	ScanBytesRead int64
	// PassID is the process-unique id of the pass that fed this
	// execution, correlating the stats with logs, traces and metrics.
	PassID uint64
}

// execPool recycles the per-execution machinery (the evaluator frame; the
// validating reader and output writer have pools of their own) so that a
// compiled Plan executes from many goroutines with near-zero steady-state
// allocation.
var execPool = sync.Pool{New: func() any { return &exec{} }}

// Batch sizing for the pull driver: enough events to amortize the
// per-batch rendezvous to noise, small enough that the owned-copy arena
// stays cache-resident.
const (
	feedBatchEvents = 256
	feedBatchBytes  = 32 << 10
)

// Run executes the plan on an input stream, writing the result stream to
// out. It is the single-query wrapper over the incremental push API: a
// pooled validating reader tokenizes and validates the stream, and
// batches of owned events are fed to a StepExec. The shared-stream
// dispatcher (internal/mqe) drives the same StepExec machinery with one
// reader and many plans.
func (p *Plan) Run(in io.Reader, out io.Writer) (*Stats, error) {
	return p.RunManaged(in, out, nil)
}

// RunManaged is Run with the execution's buffer memory governed by m: a
// per-pass gate throttles the feed loop under backpressure and a
// per-plan account enforces the budget at every buffer-fill point (nil m
// = unmanaged, the plain Run).
func (p *Plan) RunManaged(in io.Reader, out io.Writer, m *bufmgr.Manager) (*Stats, error) {
	return p.runManaged(nil, in, out, m, nil)
}

// RunManagedContext is RunManaged under a cancellation context: the feed
// loop checks ctx at every batch boundary and the backpressure gate
// unparks on cancellation, so a cancelled run terminates promptly with
// ctx's error as the plan's terminal status (never a silently truncated
// result). A nil ctx degrades to RunManaged.
func (p *Plan) RunManagedContext(ctx context.Context, in io.Reader, out io.Writer, m *bufmgr.Manager) (*Stats, error) {
	return p.runManaged(ctx, in, out, m, nil)
}

// RunManagedTrace is RunManaged with span capture: tr's root span gains
// "scan" (batch fill) and "eval" (plan evaluation) children whose
// accumulated durations partition the pass's wall time (modulo loop
// overhead), and the trace is ended when the run returns. A nil trace
// degrades to RunManaged.
func (p *Plan) RunManagedTrace(in io.Reader, out io.Writer, m *bufmgr.Manager, tr *telemetry.Trace) (*Stats, error) {
	return p.runManaged(nil, in, out, m, tr)
}

// RunManagedTraceContext is RunManagedTrace under a cancellation context.
func (p *Plan) RunManagedTraceContext(ctx context.Context, in io.Reader, out io.Writer, m *bufmgr.Manager, tr *telemetry.Trace) (*Stats, error) {
	return p.runManaged(ctx, in, out, m, tr)
}

func (p *Plan) runManaged(ctx context.Context, in io.Reader, out io.Writer, m *bufmgr.Manager, tr *telemetry.Trace) (*Stats, error) {
	gate := m.NewGate()
	gate.Bind(ctx)
	acct := gate.NewAccount()
	se := p.NewStepExecBudgeted(out, acct)
	xr := xsax.GetReader(in, p.d)
	if p.pmode != proj.ModeOff {
		xr.SetProjection(p.pauto, p.pmode)
	}
	passID := telemetry.NextPassID()
	traced := tr != nil
	if traced {
		passID = tr.PassID
	}
	scanSpan := tr.Span().Child("scan")
	evalSpan := tr.Span().Child("eval")
	var scanTime, evalTime time.Duration
	b := xsax.GetBatch()
	var cause error
	for cause == nil {
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
			break
		}
		// The backpressure point: under PolicyBackpressure the gate
		// blocks the feed while the process is over budget and another
		// pass can still drain. With a bound context it doubles as the
		// cancellation checkpoint, unparking on ctx.Done.
		if err := gate.Wait(); err != nil {
			cause = err
			break
		}
		b.Reset()
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		for b.Len() < feedBatchEvents && b.ArenaBytes() < feedBatchBytes {
			ev, err := xr.NextEvent()
			if err != nil {
				cause = err
				break
			}
			b.Append(ev)
		}
		var t1 time.Time
		if traced {
			t1 = time.Now()
			scanTime += t1.Sub(t0)
		}
		done, _ := se.Feed(b.Events)
		if traced {
			evalTime += time.Since(t1)
		}
		if done {
			break
		}
	}
	st, err := se.Close(cause)
	if st != nil {
		sc := xr.ScanStats()
		st.ScanEventsDelivered = sc.EventsDelivered
		st.ScanEventsSkipped = sc.EventsSkipped
		st.ScanSubtreesSkipped = sc.SubtreesSkipped
		st.ScanBytesSkipped = sc.BytesSkipped
		st.ScanBytesRead = sc.BytesRead
		st.PassID = passID
		scanSpan.AddBytes(sc.BytesRead)
		scanSpan.AddEvents(st.Events)
	}
	if acct != nil {
		as := acct.Close()
		if st != nil {
			st.PeakHeapBufferBytes = as.PeakBytes
			st.SpilledBytes = as.SpilledBytes
			st.RehydratedBytes = as.RehydratedBytes
			st.BudgetStall = gate.Stall()
		}
	}
	if traced {
		scanSpan.AddTime(scanTime)
		evalSpan.AddTime(evalTime)
		tr.Span().AddStall(gate.Stall())
		tr.End()
	}
	gate.Close()
	xsax.PutBatch(b)
	xsax.PutReader(xr)
	return st, err
}

// RunManagedParallel is RunManaged in pipelined form: tokenization and
// DTD validation run ahead of evaluation on their own goroutines,
// connected by bounded batch rings (xsax.Pipeline), so the scan overlaps
// the plan's evaluator instead of alternating with it. Output and error
// semantics are identical to RunManaged.
func (p *Plan) RunManagedParallel(in io.Reader, out io.Writer, m *bufmgr.Manager) (*Stats, error) {
	return p.runManagedParallel(nil, in, out, m, nil)
}

// RunManagedParallelContext is RunManagedParallel under a cancellation
// context: the driver stops waiting on the validated-batch ring as soon
// as ctx is done, stage goroutines parked at the backpressure gate or on
// ring hand-offs unpark, and the pipeline is joined before returning
// ctx's error as the plan's terminal status.
func (p *Plan) RunManagedParallelContext(ctx context.Context, in io.Reader, out io.Writer, m *bufmgr.Manager) (*Stats, error) {
	return p.runManagedParallel(ctx, in, out, m, nil)
}

// RunManagedParallelTrace is RunManagedParallel with span capture. The
// "scan" child accumulates the feed loop's wait on the validated-batch
// ring and carries "tokenize"/"validate" sub-spans with stage stall and
// ring-peak attribution; "eval" is the plan's evaluation time. Stage
// spans describe concurrent goroutines, so unlike the sequential form
// their durations overlap the wall clock rather than partitioning it.
func (p *Plan) RunManagedParallelTrace(in io.Reader, out io.Writer, m *bufmgr.Manager, tr *telemetry.Trace) (*Stats, error) {
	return p.runManagedParallel(nil, in, out, m, tr)
}

// RunManagedParallelTraceContext is RunManagedParallelTrace under a
// cancellation context.
func (p *Plan) RunManagedParallelTraceContext(ctx context.Context, in io.Reader, out io.Writer, m *bufmgr.Manager, tr *telemetry.Trace) (*Stats, error) {
	return p.runManagedParallel(ctx, in, out, m, tr)
}

func (p *Plan) runManagedParallel(ctx context.Context, in io.Reader, out io.Writer, m *bufmgr.Manager, tr *telemetry.Trace) (*Stats, error) {
	gate := m.NewGate()
	gate.Bind(ctx)
	acct := gate.NewAccount()
	se := p.NewStepExecBudgeted(out, acct)
	var pa *proj.Automaton
	if p.pmode != proj.ModeOff {
		pa = p.pauto
	}
	pl := xsax.NewPipeline(in, p.d, xsax.PipelineConfig{
		BatchEvents: feedBatchEvents,
		BatchBytes:  feedBatchBytes,
		Proj:        pa,
		ProjMode:    p.pmode,
		// The backpressure point moves into the tokenizer stage: under
		// PolicyBackpressure it parks before each batch while the
		// process is over budget and another pass can still drain.
		Throttle: gate.Wait,
		Ctx:      ctx,
	})
	passID := telemetry.NextPassID()
	traced := tr != nil
	if traced {
		passID = tr.PassID
	}
	scanSpan := tr.Span().Child("scan")
	evalSpan := tr.Span().Child("eval")
	var scanTime, evalTime time.Duration
	var cause error
	for cause == nil {
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
			break
		}
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		vb, err := pl.Next()
		var t1 time.Time
		if traced {
			t1 = time.Now()
			scanTime += t1.Sub(t0)
		}
		if err != nil {
			cause = err
			break
		}
		done, _ := se.Feed(vb.Events)
		pl.Recycle(vb)
		if traced {
			evalTime += time.Since(t1)
		}
		if done {
			break
		}
	}
	st, err := se.Close(cause)
	if acct != nil {
		as := acct.Close()
		if st != nil {
			st.PeakHeapBufferBytes = as.PeakBytes
			st.SpilledBytes = as.SpilledBytes
			st.RehydratedBytes = as.RehydratedBytes
		}
	}
	// The account is closed first: a tokenizer stage parked in the gate
	// can only drain once this pass's reservations release.
	sc, pps, _ := pl.Close()
	if st != nil {
		// The gate parks the tokenizer stage, so its stall is final only
		// once Close has joined the stages.
		st.BudgetStall = gate.Stall()
		st.ScanEventsDelivered = sc.EventsDelivered
		st.ScanEventsSkipped = sc.EventsSkipped
		st.ScanSubtreesSkipped = sc.SubtreesSkipped
		st.ScanBytesSkipped = sc.BytesSkipped
		st.ScanBytesRead = sc.BytesRead
		st.PassID = passID
		scanSpan.AddBytes(sc.BytesRead)
		scanSpan.AddEvents(st.Events)
	}
	if traced {
		scanSpan.AddTime(scanTime)
		evalSpan.AddTime(evalTime)
		tok := scanSpan.Child("tokenize")
		tok.AddStall(pps.TokStall)
		tok.SetRingPeak(pps.TokRingPeak)
		val := scanSpan.Child("validate")
		val.AddStall(pps.ValStall)
		val.SetRingPeak(pps.ValRingPeak)
		tr.Span().AddStall(gate.Stall())
		tr.End()
	}
	gate.Close()
	return st, err
}

func (ex *exec) run(p *Plan) (*Stats, error) {
	if err := ex.evalTop(p.root); err != nil {
		return ex.st, err
	}
	if err := ex.w.Flush(); err != nil {
		return ex.st, err
	}
	ex.st.OutputBytes = ex.w.Written()
	return ex.st, nil
}

type exec struct {
	xr  eventSource
	w   *xmltok.Writer
	st  *Stats
	cur int64 // live buffered bytes (logical)
	// acct, when non-nil, is the execution's budget ledger: every
	// buffer-fill point reserves against it and every free releases, so
	// the buffer manager can fail, spill or throttle per its policy.
	acct *bufmgr.Account
}

func (ex *exec) grow(n int64) {
	ex.cur += n
	ex.st.BufferedBytesTotal += n
	if ex.cur > ex.st.PeakBufferBytes {
		ex.st.PeakBufferBytes = ex.cur
	}
}

func (ex *exec) shrink(n int64) { ex.cur -= n }

// fill accounts one freshly buffered subtree (or text node) of size sz
// appended to f.buf: the logical ledgers always, and the budget account
// when managed. spillable registers n as a spill candidate; a budget
// rejection (PolicyFail) aborts the plan with the returned error.
func (ex *exec) fill(f *psFrame, n *dom.Node, sz int64, spillable bool) error {
	f.bufBytes += sz
	ex.grow(sz)
	if ex.acct == nil {
		return nil
	}
	return ex.acct.Filled(n, sz, spillable)
}

// unbuffer accounts the release of one buffered child: it reports the
// child's logical size (the buffer manager remembers fill-time sizes for
// spilled units — a spilled child's resident Size no longer tells) and
// drains the budget ledger.
func (ex *exec) unbuffer(c *dom.Node) int64 {
	if ex.acct == nil {
		return c.Size()
	}
	return ex.acct.FreeTree(c)
}

// element is the evaluator's view of one element instance: either the
// live stream positioned right after its start tag, or a materialized
// node (replay mode).
type element struct {
	name     string
	attrs    []xmltok.Attr
	node     *dom.Node // replay mode when non-nil
	consumed bool
}

// evalTop runs the plan root. The document scope is special: the virtual
// $ROOT element's only child is the document element.
func (ex *exec) evalTop(p pnode) error {
	root := &element{name: dtdDocName}
	if err := ex.eval(p, root, nil); err != nil {
		return err
	}
	// Consume any trailing tokens (comments, whitespace) and verify the
	// document was well-formed to the end.
	return ex.drain()
}

const dtdDocName = "#document"

func (ex *exec) drain() error {
	for {
		_, err := ex.xr.NextEvent()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		ex.st.Events++
	}
}

// eval executes a physical node. el is the current element whose content
// may be consumed (nil in buffered handler bodies); env carries the
// buffer bindings for XQ nodes.
func (ex *exec) eval(p pnode, el *element, env *eval.Env) error {
	switch t := p.(type) {
	case pText:
		ex.w.Text(t.data)
		return nil
	case pOpen:
		ex.w.StartElement(t.name, toTokAttrs(t.attrs))
		return nil
	case pClose:
		ex.w.EndElement(t.name)
		return nil
	case pSeq:
		for _, c := range t.items {
			if err := ex.eval(c, el, env); err != nil {
				return err
			}
		}
		return nil
	case pElement:
		ex.w.StartElement(t.name, toTokAttrs(t.attrs))
		for _, c := range t.children {
			if err := ex.eval(c, el, env); err != nil {
				return err
			}
		}
		ex.w.EndElement(t.name)
		return nil
	case pXQ:
		ex.st.HandlerFirings++
		return eval.Eval(t.expr, env, ex.w)
	case pCopy:
		return ex.copyElement(el)
	case pAtomic:
		return ex.atomicElement(el, t.step)
	case *pPS:
		return ex.runPS(t, el)
	default:
		return fmt.Errorf("runtime: cannot execute %T", p)
	}
}

func toTokAttrs(attrs []xquery.Attr) []xmltok.Attr {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]xmltok.Attr, len(attrs))
	for i, a := range attrs {
		out[i] = xmltok.Attr{Name: a.Name, Value: a.Value}
	}
	return out
}

// copyElement streams a verbatim copy of the current element to the
// output. Events pass straight from the scanner window to the writer
// buffer without materializing strings.
func (ex *exec) copyElement(el *element) error {
	if el == nil {
		return fmt.Errorf("runtime: copy outside an element context")
	}
	if el.node != nil {
		el.node.WriteXML(ex.w)
		return nil
	}
	if el.consumed {
		return fmt.Errorf("runtime: element $%s already consumed", el.name)
	}
	el.consumed = true
	ex.w.StartElement(el.name, el.attrs)
	depth := 1
	for depth > 0 {
		ev, err := ex.xr.NextEvent()
		if err != nil {
			return err
		}
		ex.st.Events++
		switch ev.Kind {
		case xmltok.StartElement:
			depth++
			ex.w.StartElementRaw(ev.Name, ev.Attrs)
		case xmltok.EndElement:
			depth--
			if depth > 0 {
				ex.w.EndElement(ev.Name)
			}
		case xmltok.Text:
			ex.w.TextBytes(ev.Data)
		}
	}
	ex.w.EndElement(el.name)
	return nil
}

// atomicElement emits the atomized step of the current element (its
// direct text, or an attribute) and consumes the element.
func (ex *exec) atomicElement(el *element, step xquery.Step) error {
	if el == nil {
		return fmt.Errorf("runtime: atomic emission outside an element context")
	}
	if el.node != nil {
		switch step.Axis {
		case xquery.Attribute:
			if v, ok := el.node.Attr(step.Name); ok {
				ex.w.Text(v)
			}
		case xquery.TextAxis:
			var b strings.Builder
			for _, c := range el.node.Kids() {
				if c.Kind == dom.TextNode {
					b.WriteString(c.Text)
				}
			}
			ex.w.Text(b.String())
		}
		return nil
	}
	if el.consumed {
		return fmt.Errorf("runtime: element $%s already consumed", el.name)
	}
	el.consumed = true
	if step.Axis == xquery.Attribute {
		for _, a := range el.attrs {
			if a.Name == step.Name {
				ex.w.Text(a.Value)
				break
			}
		}
		return ex.skipRest(1)
	}
	// text(): stream the direct text children to the output.
	depth := 1
	for depth > 0 {
		ev, err := ex.xr.NextEvent()
		if err != nil {
			return err
		}
		ex.st.Events++
		switch ev.Kind {
		case xmltok.StartElement:
			depth++
		case xmltok.EndElement:
			depth--
		case xmltok.Text:
			if depth == 1 {
				ex.w.TextBytes(ev.Data)
			}
		}
	}
	return nil
}

// skipRest consumes the rest of the current element (depth open levels)
// without copying a byte.
func (ex *exec) skipRest(depth int) error {
	for depth > 0 {
		ev, err := ex.xr.NextEvent()
		if err != nil {
			return err
		}
		ex.st.Events++
		switch ev.Kind {
		case xmltok.StartElement:
			depth++
		case xmltok.EndElement:
			depth--
		}
	}
	return nil
}

// runPS processes the children of the current element with the scope's
// handlers. In replay mode (el.node != nil) the children are iterated
// from the materialized subtree.
func (ex *exec) runPS(ps *pPS, el *element) error {
	if el == nil {
		return fmt.Errorf("runtime: process-stream $%s outside an element context", ps.v)
	}
	f := &psFrame{
		ps:    ps,
		state: ps.auto.Start(),
		buf:   dom.NewElement(ps.elem),
	}
	if el.node == nil {
		f.buf.Attrs = append(f.buf.Attrs, el.attrs...)
	} else {
		f.buf.Attrs = append(f.buf.Attrs, el.node.Attrs...)
	}

	// Trigger check at element start.
	if err := ex.fireEligible(f); err != nil {
		return err
	}

	if el.node != nil {
		return ex.runPSReplay(ps, f, el.node)
	}
	if el.consumed {
		return fmt.Errorf("runtime: element $%s already consumed", el.name)
	}
	el.consumed = true

	for {
		ev, err := ex.xr.NextEvent()
		if err == io.EOF && ps.elem == dtdDocName {
			// The virtual document element "ends" at EOF.
			return ex.finishPS(f)
		}
		if err != nil {
			return err
		}
		ex.st.Events++
		switch ev.Kind {
		case xmltok.EndElement:
			return ex.finishPS(f)
		case xmltok.Text:
			if f.ps.scope.Text {
				// Buffer-fill point: the BDF keeps this text, so copy it
				// out of the scanner window.
				n := dom.NewText(string(ev.Data))
				f.buf.AppendChild(n)
				if err := ex.fill(f, n, n.Size(), false); err != nil {
					return err
				}
			}
		case xmltok.StartElement:
			if err := ex.dispatchChild(f, ev); err != nil {
				return err
			}
			// The completed child advanced the automaton: re-check
			// triggers.
			if err := ex.fireEligible(f); err != nil {
				return err
			}
		}
	}
}

// psFrame is the per-element-instance state of a process-stream.
type psFrame struct {
	ps       *pPS
	state    int // content-model automaton state
	nextOnce int // index into ps.once of the next unfired once-handler
	buf      *dom.Node
	bufBytes int64
	// stopped[id] marks name ids whose buffers were freed; further
	// children with that id are no longer buffered. Allocated lazily by
	// the first buffer-freeing once-handler.
	stopped []bool
}

// dispatchChild handles one child start tag in stream mode. ev's views
// are only valid until the next reader call, so every branch that
// retains data copies it first (the buffering branches) or hands the
// owned conversions to the handler (the streaming branch).
//
// All per-child decisions key on the element's dense name id: the
// content-model step, the buffering verdict and the handler lookup are
// each one slice load.
func (ex *exec) dispatchChild(f *psFrame, ev *xsax.Event) error {
	label := ev.Name
	id := ev.Elem.ID()
	f.state = f.ps.auto.StepID(f.state, id)

	proj, buffered := f.ps.bufProj[id], f.ps.bufOn[id]
	if buffered && f.stopped != nil && f.stopped[id] {
		buffered = false
	}
	hIdx := int(f.ps.onElemID[id])
	streamed := hIdx >= 0

	switch {
	case streamed && !buffered:
		h := f.ps.hs[hIdx]
		ex.st.HandlerFirings++
		child := &element{name: label, attrs: ev.OwnedAttrs()}
		if err := ex.eval(h.body, child, nil); err != nil {
			return err
		}
		if !child.consumed {
			ex.st.SkippedSubtrees++
			return ex.skipRest(1)
		}
		return nil
	case buffered && !streamed:
		n, sz, err := ex.materialize(ev, proj)
		if err != nil {
			return err
		}
		f.buf.AppendChild(n)
		f.bufBytes += sz
		ex.grow(sz)
		ex.st.BufferedNodes++
		return nil
	case buffered && streamed:
		// Materialize fully (the streaming handler replays the node),
		// then run the handler over the materialized child.
		n, sz, err := ex.materialize(ev, nil)
		if err != nil {
			return err
		}
		f.buf.AppendChild(n)
		f.bufBytes += sz
		ex.grow(sz)
		ex.st.BufferedNodes++
		h := f.ps.hs[hIdx]
		ex.st.HandlerFirings++
		// Pinned while the handler replays it: the node must not be a
		// spill victim of a reservation its own handler body makes.
		ex.acct.Pin(n)
		err = ex.eval(h.body, &element{name: label, node: n}, nil)
		ex.acct.Unpin(n)
		return err
	default:
		ex.st.SkippedSubtrees++
		return ex.skipRest(1)
	}
}

// materialize builds a dom subtree for the element whose start tag was
// just read, applying the BDF projection (nil proj = keep everything).
// This is the evaluator's buffer-fill point: names come interned from the
// DTD, text and attribute values are copied into owned strings here.
//
// When the execution is budget-managed, construction streams through a
// bufmgr.Filler: completed sub-subtrees are reserved (and registered as
// eviction units) as their end tags arrive, so a buffer far larger than
// the budget spills its earlier chunks while the later ones are still
// being parsed — the accounted residency never waits for the whole
// subtree.
func (ex *exec) materialize(start *xsax.Event, proj *bdf.Node) (*dom.Node, int64, error) {
	rootNode := dom.NewElement(start.Name)
	rootNode.Attrs = start.OwnedAttrs()
	fl := ex.acct.NewFiller(rootNode)
	type frame struct {
		node *dom.Node // nil when the level is being dropped
		proj *bdf.Node // nil = copy all below
	}
	stack := []frame{{node: rootNode, proj: proj}}
	for len(stack) > 0 {
		ev, err := ex.xr.NextEvent()
		if err != nil {
			return nil, 0, err
		}
		ex.st.Events++
		top := &stack[len(stack)-1]
		switch ev.Kind {
		case xmltok.StartElement:
			if top.node == nil {
				stack = append(stack, frame{})
				continue
			}
			var childProj *bdf.Node
			keep := true
			if top.proj != nil {
				childProj, keep = top.proj.Keep(ev.Name)
			}
			if !keep {
				stack = append(stack, frame{})
				continue
			}
			child := dom.NewElement(ev.Name)
			child.Attrs = ev.OwnedAttrs()
			top.node.AppendChild(child)
			fl.Push(child)
			stack = append(stack, frame{node: child, proj: childProj})
		case xmltok.EndElement:
			kept := top.node != nil
			stack = stack[:len(stack)-1]
			if kept && len(stack) > 0 {
				if err := fl.Pop(); err != nil {
					return nil, 0, err
				}
			}
		case xmltok.Text:
			if top.node == nil {
				continue
			}
			if top.proj == nil || top.proj.CopyAll || top.proj.Text {
				n := dom.NewText(string(ev.Data))
				top.node.AppendChild(n)
				fl.Text(n)
			}
		}
	}
	total, err := fl.Finish()
	if err != nil {
		return nil, 0, err
	}
	if ex.acct == nil {
		total = rootNode.Size()
	}
	return rootNode, total, nil
}

func copyAttrs(attrs []xmltok.Attr) []xmltok.Attr {
	if len(attrs) == 0 {
		return nil
	}
	return append([]xmltok.Attr(nil), attrs...)
}

// fireEligible fires pending once-handlers whose past condition holds in
// the current automaton state, in handler order. The condition is the
// handler's precompiled per-state vector: one slice load.
func (ex *exec) fireEligible(f *psFrame) error {
	for f.nextOnce < len(f.ps.once) {
		idx := f.ps.once[f.nextOnce]
		h := &f.ps.hs[idx]
		if h.kind == core.OnEnd {
			return nil // only at the end tag
		}
		// A dead content-model state (shell-elided dispatch stream) never
		// satisfies a past condition mid-stream; the handler still fires at
		// the end tag via finishPS. Unreachable for plans with non-trivial
		// past vectors — those report NeedShells and keep their shells.
		if f.state < 0 || !h.pastOK[f.state] {
			return nil
		}
		if err := ex.fireOnce(f, idx); err != nil {
			return err
		}
	}
	return nil
}

// fireOnce executes once-handler idx and frees buffers it was the last
// reader of.
func (ex *exec) fireOnce(f *psFrame, idx int) error {
	h := f.ps.hs[idx]
	ex.st.HandlerFirings++
	env := eval.NewEnv(f.ps.v, eval.Item(f.buf))
	if err := ex.eval(h.body, nil, env); err != nil {
		return err
	}
	f.nextOnce++
	// Free buffered labels whose last reader has fired.
	for label, last := range f.ps.scope.LastRef {
		if last != idx {
			continue
		}
		if f.stopped == nil {
			f.stopped = make([]bool, f.ps.numIDs)
		}
		if e := f.ps.d.Element(label); e != nil {
			f.stopped[e.ID()] = true
		}
		kept := f.buf.Children[:0]
		for _, c := range f.buf.Children {
			match := c.Kind == dom.ElementNode && (c.Name == label || label == "*")
			if match {
				sz := ex.unbuffer(c)
				f.bufBytes -= sz
				ex.shrink(sz)
				continue
			}
			kept = append(kept, c)
		}
		f.buf.Children = kept
	}
	return nil
}

// finishPS fires the remaining once-handlers at the end tag and releases
// the frame's buffers.
func (ex *exec) finishPS(f *psFrame) error {
	for f.nextOnce < len(f.ps.once) {
		if err := ex.fireOnce(f, f.ps.once[f.nextOnce]); err != nil {
			return err
		}
	}
	if ex.acct != nil {
		// Drain the budget ledger child by child so spilled units return
		// their segments; any residue (rounding between the logical and
		// resident views cannot occur, but a defensive remainder release
		// keeps the ledger exact if it ever did) is released in one sweep.
		rem := f.bufBytes
		for _, c := range f.buf.Children {
			rem -= ex.acct.FreeTree(c)
		}
		ex.acct.Release(rem)
	}
	ex.shrink(f.bufBytes)
	f.bufBytes = 0
	return nil
}

// runPSReplay iterates a materialized element's children.
func (ex *exec) runPSReplay(ps *pPS, f *psFrame, node *dom.Node) error {
	for _, c := range node.Kids() {
		switch c.Kind {
		case dom.TextNode:
			if f.ps.scope.Text {
				n := dom.NewText(c.Text)
				f.buf.AppendChild(n)
				if err := ex.fill(f, n, n.Size(), false); err != nil {
					return err
				}
			}
		case dom.ElementNode:
			f.state = ps.auto.Step(f.state, c.Name)
			proj, buffered := ps.scope.Buffered[c.Name]
			if !buffered {
				if star, ok := ps.scope.Buffered["*"]; ok {
					proj, buffered = star, true
				}
			}
			if buffered && f.stopped != nil {
				if e := ps.d.Element(c.Name); e != nil && f.stopped[e.ID()] {
					buffered = false
				}
			}
			hIdx, streamed := ps.onElem[c.Name]
			if buffered {
				n := projectNode(c, proj)
				f.buf.AppendChild(n)
				if err := ex.fill(f, n, n.Size(), true); err != nil {
					return err
				}
				ex.st.BufferedNodes++
			}
			if streamed {
				ex.st.HandlerFirings++
				if err := ex.eval(ps.hs[hIdx].body, &element{name: c.Name, node: c}, nil); err != nil {
					return err
				}
			}
			if !buffered && !streamed {
				ex.st.SkippedSubtrees++
			}
			if err := ex.fireEligible(f); err != nil {
				return err
			}
		}
	}
	return ex.finishPS(f)
}

// projectNode copies a materialized subtree under a BDF projection.
func projectNode(n *dom.Node, proj *bdf.Node) *dom.Node {
	if proj == nil || proj.CopyAll {
		return n.Clone()
	}
	out := dom.NewElement(n.Name)
	out.Attrs = copyAttrs(n.Attrs)
	for _, c := range n.Kids() {
		switch c.Kind {
		case dom.TextNode:
			if proj.Text {
				out.AppendChild(dom.NewText(c.Text))
			}
		case dom.ElementNode:
			if sub, keep := proj.Keep(c.Name); keep {
				out.AppendChild(projectNode(c, sub))
			}
		}
	}
	return out
}
