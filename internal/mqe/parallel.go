package mqe

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"fluxquery/internal/proj"
	"fluxquery/internal/xsax"
)

// This file implements the pipelined form of the shared pass and the
// feed step every pass shares. The tokenize and validate stages move onto
// their own goroutines (see xsax.Pipeline); this dispatcher becomes the
// third stage, pulling validated batches off the event ring and handing
// each one to the registered plans through feedAll. Every plan already
// evaluates on its own goroutine, so the dispatcher only begins each
// plan's feed and then collects the acknowledgements: a plan never sees
// batch k+1 before it acknowledged batch k, and the batch arena recycles
// only after the slowest plan.

// ResolveParallel is the one place a Parallel setting (Options.Parallel,
// Set.SetParallel) turns into the pass that runs. 0, the default, picks
// the pipelined pass (reported as GOMAXPROCS) when the process has two or
// more Ps and the sequential pass (1) when it has one: a forced pipeline
// on one P only adds ring hand-offs. Any other value is kept: 1 pins the
// sequential pass, n >= 2 the pipeline; the number sets no worker count.
func ResolveParallel(n int) int {
	if n != 0 {
		return n
	}
	if p := runtime.GOMAXPROCS(0); p >= 2 {
		return p
	}
	return 1
}

// PassStats reports a pipelined shared pass's execution metrics; all
// zeros for sequential passes.
type PassStats struct {
	// Parallel is the pass's resolved Parallel setting (>= 2) when it ran
	// pipelined, 0 when it ran sequentially.
	Parallel int
	// Batches counts validated batches fanned out.
	Batches int64
	// TokenizeStall, ValidateStall and DispatchStall are the per-stage
	// blocked times: the tokenizer waiting on a full token ring, the
	// validator waiting on a full event ring, and the dispatcher waiting
	// for a validated batch.
	TokenizeStall, ValidateStall, DispatchStall time.Duration
	// TokenRingPeak and EventRingPeak are high-water ring occupancies.
	TokenRingPeak, EventRingPeak int
}

// RunScanPass is RunScan, additionally reporting pipeline metrics. With
// Parallel >= 2 the pass runs in pipelined form; otherwise it is the
// sequential single-goroutine pass and the PassStats are zero.
func (d *Dispatcher) RunScanPass(r io.Reader, consumers []Consumer) (xsax.ScanStats, PassStats, error) {
	if d.Trie != nil {
		return d.runTrie(r, consumers)
	}
	if d.Parallel >= 2 {
		return d.runPipelined(r, consumers)
	}
	sc, err := d.RunScan(r, consumers)
	return sc, PassStats{}, err
}

// newPipeline starts the tokenize and validate stages of a pipelined
// pass. Pipelined batches default to 4x the sequential size: every batch
// pays two ring hand-offs plus one feed rendezvous per plan, so larger
// batches amortize the coordination without changing delivery
// semantics. Explicit Dispatcher sizes still win.
func (d *Dispatcher) newPipeline(r io.Reader) *xsax.Pipeline {
	var pa *proj.Automaton
	if d.Proj != nil && d.ProjMode != proj.ModeOff {
		pa = d.Proj
	}
	be, bb := d.BatchEvents, d.BatchBytes
	if be <= 0 {
		be = 4 * defaultBatchEvents
	}
	if bb <= 0 {
		bb = 4 * defaultBatchBytes
	}
	return xsax.NewPipeline(r, d.DTD, xsax.PipelineConfig{
		BatchEvents: be,
		BatchBytes:  bb,
		Proj:        pa,
		ProjMode:    d.ProjMode,
		Throttle:    d.Gate.Wait,
		Ctx:         d.Ctx,
	})
}

// passStats is the PassStats of a pipelined pass that fanned out batches.
func (d *Dispatcher) passStats(batches int64, pps xsax.PipeStats) PassStats {
	return PassStats{
		Parallel:      d.Parallel,
		Batches:       batches,
		TokenizeStall: pps.TokStall,
		ValidateStall: pps.ValStall,
		DispatchStall: pps.DispStall,
		TokenRingPeak: pps.TokRingPeak,
		EventRingPeak: pps.ValRingPeak,
	}
}

func (d *Dispatcher) runPipelined(r io.Reader, consumers []Consumer) (xsax.ScanStats, PassStats, error) {
	f := newFanout(consumers)
	pl := d.newPipeline(r)
	obs := d.Obs
	var scanTime, dispTime time.Duration
	var cause error
	var batches, events int64
	for cause == nil {
		if err := d.ctxErr(); err != nil {
			cause = err
			break
		}
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
		}
		vb, err := pl.Next()
		var t1 time.Time
		if obs != nil {
			t1 = time.Now()
			scanTime += t1.Sub(t0)
		}
		if err != nil {
			cause = err
			break
		}
		if vb.Len() > 0 && len(f.live) > 0 {
			batches++
			events += int64(vb.Len())
			f.feed(vb.Events)
			if obs != nil {
				dispTime += time.Since(t1)
			}
		}
		pl.Recycle(vb)
	}
	// Close consumers (releasing their budget accounts) before joining
	// the pipeline: the tokenizer stage may be parked in a gate wait
	// that only drains when accounts release.
	f.close(cause)
	sc, pps, _ := pl.Close()
	if obs != nil {
		// In a pipelined pass the dispatcher's "scan" time is its wait on
		// the validated-batch ring — the stage goroutines overlap it, so
		// child spans here describe concurrent work, not a partition of
		// the wall clock (the sequential pass's spans do partition it).
		obs.Scan.AddTime(scanTime)
		obs.Scan.AddStall(pps.DispStall)
		obs.Dispatch.AddTime(dispTime)
		obs.Batches = batches
		obs.Events = events
	}
	ps := d.passStats(batches, pps)
	if cause == io.EOF {
		return sc, ps, nil
	}
	return sc, ps, cause
}

// feedResult is one task's outcome of one feed step: whether it
// terminated, and — when a panic escaped its feed hooks — the panic as
// its error. A plan that terminated on its own recorded its error itself.
type feedResult struct {
	done bool
	err  error
}

// feedAll is the one fan-out step of every pass: it begins every task on
// its batch (evs(i) for tasks[i]), so the plans evaluate concurrently on
// their own goroutines, then collects each acknowledgement in order. It
// returns one result per task, reusing res's storage. A panic escaping a
// task's BeginFeed or EndFeed terminates that task alone; its siblings
// are fed and collected as usual, and the pass goes on.
func feedAll(tasks []Consumer, evs func(i int) []xsax.Event, res []feedResult) []feedResult {
	res = slices.Grow(res[:0], len(tasks))[:len(tasks)]
	for i, c := range tasks {
		res[i] = beginFeed(c, evs(i))
	}
	for i, c := range tasks {
		if !res[i].done {
			res[i] = endFeed(c)
		}
	}
	return res
}

func beginFeed(c Consumer, evs []xsax.Event) (res feedResult) {
	defer func() {
		if r := recover(); r != nil {
			res = feedResult{done: true, err: feedPanic(r)}
		}
	}()
	c.BeginFeed(evs)
	return feedResult{}
}

func endFeed(c Consumer) (res feedResult) {
	defer func() {
		if r := recover(); r != nil {
			res = feedResult{done: true, err: feedPanic(r)}
		}
	}()
	done, _ := c.EndFeed()
	return feedResult{done: done}
}

func feedPanic(r any) error { return fmt.Errorf("mqe: consumer feed panic: %v", r) }

// fanout is whole-batch delivery: every batch goes to every live
// consumer, and a consumer that terminates is closed and detached.
type fanout struct {
	live []Consumer
	res  []feedResult
}

func newFanout(consumers []Consumer) *fanout {
	return &fanout{live: slices.Clone(consumers)}
}

// feed fans one owned batch out to every live consumer.
func (f *fanout) feed(evs []xsax.Event) {
	f.res = feedAll(f.live, func(int) []xsax.Event { return evs }, f.res)
	keep := f.live[:0]
	for i, c := range f.live {
		if f.res[i].done {
			c.Close(f.res[i].err)
			continue
		}
		keep = append(keep, c)
	}
	f.live = keep
}

// close delivers the stream's terminal status to every live consumer.
func (f *fanout) close(cause error) {
	for _, c := range f.live {
		c.Close(cause)
	}
	f.live = nil
}
