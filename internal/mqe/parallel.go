package mqe

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"fluxquery/internal/xsax"
)

// This file holds the Parallel setting's resolution and the feed step
// every pass shares. In a pipelined pass the validating reader runs on
// its own goroutine (see batchSource) and the pass loop becomes the
// second stage, pulling validated batches off the ring; sequential or
// pipelined, each batch reaches the plans through feedAll.
// Every plan already evaluates on its own goroutine, so the loop only
// begins each plan's feed and then collects the acknowledgements: a plan
// never sees batch k+1 before it acknowledged batch k, and the batch
// arena recycles only after the slowest plan.

// ResolveParallel is the one place a Parallel setting (Options.Parallel,
// Set.SetParallel) turns into the pass that runs. 0, the default, picks
// the pipelined pass (reported as GOMAXPROCS) when the process has two or
// more Ps and the sequential pass (1) when it has one: a forced pipeline
// on one P only adds ring hand-offs. 1 pins the sequential pass and any
// n >= 2 the pipeline (the number sets no worker count); a negative n is
// the sequential pass and resolves to 1.
func ResolveParallel(n int) int {
	if n < 0 {
		return 1
	}
	if n != 0 {
		return n
	}
	if p := runtime.GOMAXPROCS(0); p >= 2 {
		return p
	}
	return 1
}

// PassStats reports a shared pass's execution metrics. Apart from
// Batches they describe the pipeline and are zero for sequential passes.
type PassStats struct {
	// Parallel is the pass's resolved Parallel setting (>= 2) when it ran
	// pipelined, 0 when it ran sequentially.
	Parallel int
	// Batches counts the non-empty validated batches the pass loop took
	// from its source, in every pass kind, whether or not a consumer was
	// still live. Trie flushes are counted in DispatchStats.Flushes.
	Batches int64
	// ScanStall and DispatchStall are the two stages' blocked times: the
	// reader waiting on a full ring (the plans were the bottleneck) and
	// the pass loop waiting for a validated batch (the scan was).
	ScanStall, DispatchStall time.Duration
	// RingPeak is the ring's high-water occupancy, observed at send.
	RingPeak int
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
