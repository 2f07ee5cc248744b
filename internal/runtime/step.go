package runtime

import (
	"fmt"
	"io"
	"sync"

	"fluxquery/internal/bufmgr"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xsax"
)

// This file implements the incremental push/step execution API. The
// streamed evaluator in exec.go is written as a recursive pull consumer —
// the natural shape for the paper's handler semantics — so the push form
// inverts control: the evaluator runs on its own goroutine against a
// pushSource whose NextEvent blocks until the driver Feeds the next batch
// of owned events. The rendezvous is strict: Feed (or BeginFeed/EndFeed)
// returns only once the evaluator has either consumed the whole batch and
// asked for more, or terminated. That strictness is what makes the
// shared-stream dispatcher safe: after every consumer's EndFeed the batch
// arena may be reused, because no evaluator can still be reading it.
//
// Batching amortizes the two channel operations per rendezvous over a few
// hundred events, so a single-plan execution — a one-consumer pass of the
// same dispatcher — keeps its throughput.
//
// The evaluator goroutine grows its stack on entry (growStack). A new
// goroutine starts with a small stack, and the recursive evaluator
// (eval → runPS → dispatchChild) would otherwise outgrow it two or three
// times mid-pass, each growth copying and re-walking every live frame.
// With one goroutine per plan per pass, that growth was 16 % of a
// fluxserve child's CPU serving 100 registered queries over 7 KB
// documents on 2 vCPUs. An 8 KB pad claimed while the goroutine is one
// frame deep costs a single near-empty copy and removed every later
// growth for those 100 plans (stack growth fell to 3 % of CPU, all of it
// the pad's own).
// The pad goes away with the per-plan goroutine itself once the
// evaluator runs in push mode (ROADMAP 4b).

// eventSource is the evaluator's view of its input: the validating pull
// reader in single-pass terms, or a pushSource fed by a driver.
type eventSource interface {
	NextEvent() (*xsax.Event, error)
}

// pushBatch is one unit handed from driver to evaluator. A non-nil err is
// terminal and delivered after the events: io.EOF for clean end of
// stream, anything else as the stream's failure at this position.
type pushBatch struct {
	evs []xsax.Event
	err error
}

// ackMsg reports the evaluator's state back to the driver: either "batch
// consumed, ready for the next" (done=false) or "terminated" with the
// final stats and error.
type ackMsg struct {
	done bool
	st   *Stats
	err  error
}

// pushSource adapts the push protocol to the evaluator's pull loop.
type pushSource struct {
	batches chan pushBatch
	acks    chan ackMsg
	// cur/idx iterate the current batch locally, without channel traffic.
	cur pushBatch
	idx int
	// needAck marks that a batch was received and its consumption must be
	// acknowledged before blocking for the next one.
	needAck bool
	// w is the execution's output writer, whose sticky error ends the
	// evaluation at the next batch boundary.
	w *xmltok.Writer
}

func (s *pushSource) reset() {
	s.cur = pushBatch{}
	s.idx = 0
	s.needAck = false
}

// NextEvent returns the next event of the current batch, rendezvousing
// with the driver when the batch is exhausted; an output writer that has
// failed is reported instead of asking for the next batch. A terminal
// error is sticky: once delivered, every further call returns it without
// synchronization (drain loops spin on io.EOF this way).
func (s *pushSource) NextEvent() (*xsax.Event, error) {
	for s.idx >= len(s.cur.evs) {
		if s.cur.err != nil {
			return nil, s.cur.err
		}
		// A failed output writer ends the plan here rather than at its
		// final Flush, so the pass stops feeding it.
		if err := s.w.Err(); err != nil {
			s.cur = pushBatch{err: err}
			return nil, err
		}
		if s.needAck {
			s.acks <- ackMsg{}
		}
		s.needAck = true
		s.cur = <-s.batches
		s.idx = 0
	}
	ev := &s.cur.evs[s.idx]
	s.idx++
	return ev, nil
}

// StepExec is an incremental execution of a compiled Plan. The caller
// pushes validated events with Feed (or the split BeginFeed/EndFeed pair)
// and terminates with Close; output is written to the writer given at
// creation as the evaluation progresses.
//
// A StepExec is driven from a single goroutine. The protocol is:
// any number of Feed calls (each BeginFeed paired with an EndFeed before
// any other call), then exactly one Close. Once Feed reports done the
// evaluator has terminated and further batches are discarded; Close must
// still be called to collect the result and release pooled state.
type StepExec struct {
	src *pushSource
	ex  *exec
	// inflight marks a BeginFeed awaiting its EndFeed.
	inflight bool
	done     bool
	released bool
	// managed marks a budget-accounted execution; unmanaged runs report
	// their logical peak as the heap peak (nothing ever spills).
	managed bool
	st      *Stats
	err     error
}

// srcPool recycles the rendezvous channels; after Close a pushSource is
// quiescent (its goroutine has exited and both channels are empty).
var srcPool = sync.Pool{New: func() any {
	return &pushSource{batches: make(chan pushBatch), acks: make(chan ackMsg)}
}}

// NewStepExec starts an incremental execution of the plan, writing the
// result stream to out. The caller must eventually call Close.
func (p *Plan) NewStepExec(out io.Writer) *StepExec {
	return p.NewStepExecBudgeted(out, nil)
}

// NewStepExecBudgeted is NewStepExec with the execution's buffer memory
// governed by the given account: every BDF buffer-fill point reserves
// against it and every buffer free releases. The caller retains
// ownership of the account — it must Close it after the StepExec's own
// Close to collect the final spill/residency stats (nil = unmanaged).
func (p *Plan) NewStepExecBudgeted(out io.Writer, acct *bufmgr.Account) *StepExec {
	src := srcPool.Get().(*pushSource)
	src.reset()
	ex := execPool.Get().(*exec)
	ex.xr = src
	ex.w = xmltok.GetWriter(out)
	src.w = ex.w
	ex.st = &Stats{}
	ex.cur = 0
	ex.acct = acct
	e := &StepExec{src: src, ex: ex, managed: acct != nil}
	go func() {
		growStack()
		st, err := runProtected(ex, p)
		src.acks <- ackMsg{done: true, st: st, err: err}
	}()
	return e
}

// evalStackPad is the stack frame growStack claims; see the file comment.
const evalStackPad = 8 << 10

// growStackSink is always zero and never written; reading the pad
// through it keeps the pad in growStack's frame.
var growStackSink byte

// growStack grows the calling goroutine's stack to hold evalStackPad
// bytes while the goroutine is one frame deep, so the one stack copy
// moves almost nothing. It must not be inlined: the pad has to be a
// frame of its own.
//
//go:noinline
func growStack() {
	var pad [evalStackPad]byte
	if v := pad[growStackSink]; v != 0 {
		growStackSink = v
	}
}

// runProtected converts an evaluator panic into an error so a wedged plan
// cannot deadlock its driver (or take down a serving process). An error
// payload (the buffer manager panics its I/O failures through here) is
// wrapped, not flattened, so callers can still classify it with
// errors.Is.
func runProtected(ex *exec, p *Plan) (st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				st, err = ex.st, fmt.Errorf("runtime: internal error: %w", e)
			} else {
				st, err = ex.st, fmt.Errorf("runtime: internal error: %v", r)
			}
		}
	}()
	return ex.run(p)
}

// BeginFeed hands a batch of owned events to the evaluator without
// waiting for consumption. The events — including every byte view they
// carry — must remain valid until the paired EndFeed returns. Splitting
// the feed lets a dispatcher start all consumers on the same batch and
// only then wait, so the evaluators run concurrently.
func (e *StepExec) BeginFeed(evs []xsax.Event) {
	if e.done || e.inflight || len(evs) == 0 {
		return
	}
	select {
	case e.src.batches <- pushBatch{evs: evs}:
		e.inflight = true
	case a := <-e.src.acks:
		// The evaluator terminated before consuming any input (a plan
		// whose root fails immediately); it is not receiving.
		e.settle(a)
	}
}

// EndFeed blocks until the evaluator has consumed the batch from the
// preceding BeginFeed (a no-op if none is pending). It reports whether
// the evaluator has terminated, with its error; once done, the execution
// only awaits Close.
func (e *StepExec) EndFeed() (done bool, err error) {
	if e.inflight {
		e.inflight = false
		a := <-e.src.acks
		if a.done {
			e.settle(a)
		}
	}
	return e.done, e.err
}

// Feed is BeginFeed and EndFeed in one synchronous call.
func (e *StepExec) Feed(evs []xsax.Event) (done bool, err error) {
	e.BeginFeed(evs)
	return e.EndFeed()
}

func (e *StepExec) settle(a ackMsg) {
	e.done = true
	e.st = a.st
	e.err = a.err
}

// Close terminates the execution and returns its result. cause io.EOF
// (or nil) signals a clean end of stream: the evaluator finishes its
// pending handlers and flushes the output. Any other cause is delivered
// to the evaluator as the stream's failure, aborting the evaluation with
// that error. Close is idempotent in effect but must be called exactly
// once per StepExec; the StepExec must not be used afterwards.
func (e *StepExec) Close(cause error) (*Stats, error) {
	if cause == nil {
		cause = io.EOF
	}
	if e.inflight {
		e.EndFeed()
	}
	for !e.done {
		select {
		case e.src.batches <- pushBatch{err: cause}:
			// Terminal delivered; the evaluator's next act is the final
			// ack (NextEvent never rendezvouses after a terminal error).
			a := <-e.src.acks
			if !a.done {
				panic("runtime: step protocol violation: ack after terminal batch")
			}
			e.settle(a)
		case a := <-e.src.acks:
			if !a.done {
				panic("runtime: step protocol violation: unsolicited ack")
			}
			e.settle(a)
		}
	}
	if !e.released {
		e.released = true
		xmltok.PutWriter(e.ex.w)
		e.ex.xr, e.ex.w, e.ex.st, e.ex.acct = nil, nil, nil, nil
		execPool.Put(e.ex)
		e.ex = nil
		e.src.w = nil
		srcPool.Put(e.src)
		e.src = nil
	}
	if e.st != nil && !e.managed {
		e.st.PeakHeapBufferBytes = e.st.PeakBufferBytes
	}
	return e.st, e.err
}
