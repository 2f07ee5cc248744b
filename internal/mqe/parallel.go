package mqe

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fluxquery/internal/proj"
	"fluxquery/internal/xsax"
)

// This file implements the pipelined form of the shared pass. The
// tokenize and validate stages move onto their own goroutines (see
// xsax.Pipeline); this dispatcher becomes the third stage, pulling
// validated batches off the event ring and fanning each one out to the
// registered plans through a pool of feed workers.
//
// The workers shard the plan set: plans are ordered by descending cost
// estimate and dealt round-robin, so each worker owns a balanced stripe.
// Per batch, a worker claims the plans of its own stripe first (an
// atomic flag per plan keeps claims exclusive), then steals any plan a
// loaded sibling has not started yet, begins every claimed feed (the
// plan evaluators run concurrently on their own goroutines) and finally
// collects the acknowledgements. A counting barrier per batch keeps
// delivery in order for every plan — a plan never sees batch k+1 before
// it acknowledged batch k — and lets the batch arena recycle safely.

// ResolveParallel is the one place a Parallel setting (Options.Parallel,
// Set.SetParallel) turns into the pass that runs. 0, the default, picks
// the pipelined pass with GOMAXPROCS feed workers when the process has
// two or more Ps and the sequential pass (1) when it has one: a forced
// pipeline on one P only adds ring hand-offs. Any other value is kept:
// 1 pins the sequential pass, n >= 2 the pipeline with n workers.
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
	// Parallel is the evaluator worker count the pass ran with.
	Parallel int
	// Batches counts validated batches fanned out.
	Batches int64
	// Steals counts plan feeds claimed by a worker outside its own
	// stripe.
	Steals int64
	// TokenizeStall, ValidateStall and DispatchStall are the per-stage
	// blocked times: the tokenizer waiting on a full token ring, the
	// validator waiting on a full event ring, and the dispatcher waiting
	// for a validated batch.
	TokenizeStall, ValidateStall, DispatchStall time.Duration
	// TokenRingPeak and EventRingPeak are high-water ring occupancies.
	TokenRingPeak, EventRingPeak int
}

// Costed is implemented by consumers whose relative per-batch feeding
// cost can be estimated; the evaluator pool uses it to balance its
// worker stripes. Consumers without it weigh 1.
type Costed interface{ FeedCost() int }

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

func (d *Dispatcher) runPipelined(r io.Reader, consumers []Consumer) (xsax.ScanStats, PassStats, error) {
	live := make([]Consumer, len(consumers))
	copy(live, consumers)
	// Cost-ordered so the round-robin deal below balances the stripes.
	sort.SliceStable(live, func(i, j int) bool { return feedCost(live[i]) > feedCost(live[j]) })

	var pa *proj.Automaton
	if d.Proj != nil && d.ProjMode != proj.ModeOff {
		pa = d.Proj
	}
	// Pipelined batches default to 4x the sequential size: every batch
	// pays two ring handoffs plus a feed-worker barrier (one wakeup per
	// worker), so larger batches amortize the coordination without
	// changing delivery semantics. Explicit Dispatcher sizes still win.
	be, bb := d.BatchEvents, d.BatchBytes
	if be <= 0 {
		be = 4 * defaultBatchEvents
	}
	if bb <= 0 {
		bb = 4 * defaultBatchBytes
	}
	pl := xsax.NewPipeline(r, d.DTD, xsax.PipelineConfig{
		BatchEvents: be,
		BatchBytes:  bb,
		Proj:        pa,
		ProjMode:    d.ProjMode,
		Throttle:    d.Gate.Wait,
		Ctx:         d.Ctx,
	})

	workers := d.Parallel
	if workers > len(live) {
		workers = len(live)
	}
	var pool *evalPool
	if workers >= 2 {
		pool = newEvalPool(workers)
	} else {
		workers = 1
	}

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
		if vb.Len() > 0 && len(live) > 0 {
			batches++
			events += int64(vb.Len())
			if pool != nil && len(live) > 1 {
				pool.feed(live, vb.Events)
				keep := live[:0]
				for i, c := range live {
					if pool.res[i].done {
						// A worker-side failure (panic isolation) reaches the
						// consumer here; an evaluator-side termination already
						// recorded its own error and ignores the cause.
						c.Close(pool.res[i].err)
						continue
					}
					keep = append(keep, c)
				}
				live = keep
			} else {
				for _, c := range live {
					c.BeginFeed(vb.Events)
				}
				keep := live[:0]
				for _, c := range live {
					if done, _ := c.EndFeed(); done {
						c.Close(nil)
						continue
					}
					keep = append(keep, c)
				}
				live = keep
			}
			if obs != nil {
				dispTime += time.Since(t1)
			}
		}
		pl.Recycle(vb)
	}
	// Close consumers (releasing their budget accounts) before joining
	// the pipeline: the tokenizer stage may be parked in a gate wait
	// that only drains when accounts release.
	for _, c := range live {
		c.Close(cause)
	}
	var steals int64
	if pool != nil {
		steals = pool.close()
	}
	sc, pps, _ := pl.Close()
	ps := PassStats{
		Parallel:      workers,
		Batches:       batches,
		Steals:        steals,
		TokenizeStall: pps.TokStall,
		ValidateStall: pps.ValStall,
		DispatchStall: pps.DispStall,
		TokenRingPeak: pps.TokRingPeak,
		EventRingPeak: pps.ValRingPeak,
	}
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
	if cause == io.EOF {
		return sc, ps, nil
	}
	return sc, ps, cause
}

func feedCost(c Consumer) int {
	if cc, ok := c.(Costed); ok {
		return cc.FeedCost()
	}
	return 1
}

// feedResult is one consumer's acknowledgement of one batch.
type feedResult struct {
	done bool
	err  error
}

// evalPool is a fixed set of feed workers fanning batches to consumers.
// Worker-owned state (mine) and claimed slots are exclusive per batch;
// the ready/done channel pair is the per-batch barrier that publishes
// tasks/evs/res between the dispatcher and the workers.
type evalPool struct {
	n     int
	ready []chan struct{}
	donec chan struct{}
	wg    sync.WaitGroup

	tasks []Consumer
	evs   []xsax.Event
	// evsEach, when non-nil, gives every task its own event slice
	// (trie-routed passes feed per-plan batches); otherwise all tasks
	// share evs.
	evsEach [][]xsax.Event
	claims  []int32
	res     []feedResult
	// coll marks tasks whose acknowledgement was collected this batch;
	// panic recovery uses it to fail only the claimed-but-uncollected
	// tasks of the panicking worker.
	coll   []bool
	mine   [][]int
	steals atomic.Int64
}

func newEvalPool(n int) *evalPool {
	p := &evalPool{n: n, donec: make(chan struct{}, n), mine: make([][]int, n)}
	for w := 0; w < n; w++ {
		ch := make(chan struct{}, 1)
		p.ready = append(p.ready, ch)
		p.wg.Add(1)
		go p.worker(w, ch)
	}
	return p
}

func (p *evalPool) worker(id int, ready chan struct{}) {
	defer p.wg.Done()
	for range ready {
		p.safeFeed(id)
		p.donec <- struct{}{}
	}
}

// safeFeed runs one batch's fan-out with panic isolation: a panic
// escaping a consumer's feed hooks terminates only the tasks this
// worker had claimed — each is marked done with the panic as its
// per-plan error, delivered through Close by the driver — while
// sibling workers, their tasks and the shared pass itself continue.
// (Plan evaluator panics never reach here: the StepExec goroutine
// converts them to per-plan errors itself.)
func (p *evalPool) safeFeed(id int) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("mqe: feed worker panic: %v", r)
			for _, i := range p.mine[id] {
				if !p.coll[i] {
					p.res[i] = feedResult{done: true, err: err}
				}
			}
		}
	}()
	p.feedWorker(id)
}

// feed fans one batch out to every task and waits for all workers to
// collect every acknowledgement; afterwards res holds one entry per
// task.
func (p *evalPool) feed(tasks []Consumer, evs []xsax.Event) {
	p.tasks, p.evs, p.evsEach = tasks, evs, nil
	p.run()
}

// feedEach is feed with a distinct event slice per task: evsEach[i]
// goes to tasks[i]. Trie-routed passes use it to flush several plans'
// pending batches through the worker pool at once.
func (p *evalPool) feedEach(tasks []Consumer, evsEach [][]xsax.Event) {
	p.tasks, p.evs, p.evsEach = tasks, nil, evsEach
	p.run()
}

func (p *evalPool) run() {
	tasks := p.tasks
	if cap(p.claims) < len(tasks) {
		p.claims = make([]int32, len(tasks))
		p.res = make([]feedResult, len(tasks))
		p.coll = make([]bool, len(tasks))
	}
	p.claims = p.claims[:len(tasks)]
	p.res = p.res[:len(tasks)]
	p.coll = p.coll[:len(tasks)]
	for i := range p.claims {
		p.claims[i] = 0
		p.res[i] = feedResult{}
		p.coll[i] = false
	}
	for _, ch := range p.ready {
		ch <- struct{}{}
	}
	for range p.ready {
		<-p.donec
	}
}

func (p *evalPool) feedWorker(id int) {
	n := len(p.tasks)
	mine := p.mine[id][:0]
	evsFor := func(i int) []xsax.Event {
		if p.evsEach != nil {
			return p.evsEach[i]
		}
		return p.evs
	}
	// Own stripe first (tasks are cost-ordered and dealt round-robin)…
	// p.mine[id] is kept current claim-by-claim so panic recovery knows
	// exactly which tasks this worker owns.
	for i := id; i < n; i += p.n {
		if atomic.CompareAndSwapInt32(&p.claims[i], 0, 1) {
			mine = append(mine, i)
			p.mine[id] = mine
			p.tasks[i].BeginFeed(evsFor(i))
		}
	}
	// …then steal whatever a loaded sibling has not started yet.
	for i := 0; i < n; i++ {
		if atomic.CompareAndSwapInt32(&p.claims[i], 0, 1) {
			p.steals.Add(1)
			mine = append(mine, i)
			p.mine[id] = mine
			p.tasks[i].BeginFeed(evsFor(i))
		}
	}
	p.mine[id] = mine
	for _, i := range mine {
		done, err := p.tasks[i].EndFeed()
		p.res[i] = feedResult{done: done, err: err}
		p.coll[i] = true
	}
}

// close joins the workers and returns the pass's steal count.
func (p *evalPool) close() int64 {
	for _, ch := range p.ready {
		close(ch)
	}
	p.wg.Wait()
	return p.steals.Load()
}
