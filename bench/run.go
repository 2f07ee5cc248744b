package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"fluxquery"
)

// metric is one measured value. Samples is how many operations or
// replays stand behind it (0 for counts read off a single pass).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// outcome is one (workload, mode) run.
type outcome struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds a prepared workload with its reference outputs and knows
// how to run one operation of it.
type runner struct {
	p    *prepared
	e    *env
	refs [][]byte // reference outputs of p.queries over p.doc

	// in-process workloads
	set  *fluxquery.StreamSet
	regs []*fluxquery.StreamQuery
	sums []sum
	want []sum

	// serve workloads
	small, big *request
}

func newRunner(p *prepared, e *env) (*runner, error) {
	r := &runner{p: p, e: e}
	var err error
	if r.refs, err = reference(p.dtd, p.queries, p.doc); err != nil {
		return nil, err
	}
	r.want = sumsOf(r.refs)
	switch p.spec.kind {
	case kindSet:
		// Library defaults; registered once, Run repeatedly.
		r.set = fluxquery.NewStreamSet(p.dtd)
		r.sums = make([]sum, len(p.plans))
		for i, pl := range p.plans {
			reg, err := r.set.RegisterNamed(pl, &r.sums[i], p.queries[i].name)
			if err != nil {
				return nil, err
			}
			r.regs = append(r.regs, reg)
		}
	case kindServe, kindServeOpen:
		r.small = p.child.request(p.doc, p.queries, r.refs, true)
		seven := p.queries[:len(xmark7)]
		bigRefs, err := reference(p.dtd, seven, p.bigDoc)
		if err != nil {
			return nil, err
		}
		r.big = p.child.request(p.bigDoc, seven, bigRefs, false)
	}
	return r, nil
}

// pass is one in-process operation: every plan's output streams through
// the length + FNV-64 check, and the largest peak buffer is returned.
func (r *runner) pass() (peak int64, err error) {
	if r.set == nil {
		out := newSum()
		st, err := r.p.plans[0].Execute(bytes.NewReader(r.p.doc), &out)
		if err != nil {
			return 0, err
		}
		if out != r.want[0] {
			return 0, fmt.Errorf("%s: output differs from reference", r.p.queries[0].name)
		}
		if r.p.spec.spill {
			return st.PeakHeapBufferBytes, nil
		}
		return st.PeakBufferBytes, nil
	}
	for i := range r.sums {
		r.sums[i] = newSum()
	}
	if err := r.set.Run(bytes.NewReader(r.p.doc)); err != nil {
		return 0, err
	}
	for i, reg := range r.regs {
		st, err := reg.Stats()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.p.queries[i].name, err)
		}
		if r.sums[i] != r.want[i] {
			return 0, fmt.Errorf("%s: output differs from reference", r.p.queries[i].name)
		}
		peak = max(peak, st.PeakBufferBytes)
	}
	return peak, nil
}

// warmup fills pools, symbol tables and lazy state: three passes in
// process, one second of closed-loop requests against the child.
func (r *runner) warmup() {
	if r.p.spec.kind.serve() {
		closedLoop(r.p.child, r.e.nproc, r.small, time.Second)
		r.p.child.post(r.big)
		return
	}
	for i := 0; i < warmupPasses; i++ {
		r.pass()
	}
}

// window runs the workload for d.
func (r *runner) window(d time.Duration) *window {
	switch r.p.spec.kind {
	case kindServe:
		return closedLoop(r.p.child, r.e.nproc, r.small, d)
	case kindServeOpen:
		return openLoop(r.p.child, r.e.nproc, r.small, r.big, d)
	}
	w := &window{}
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		peak, err := r.pass()
		w.attempted++
		if err != nil {
			w.fail(err)
			continue
		}
		w.record(start, t0, time.Now(), len(r.p.doc), peak)
	}
	w.elapsed = time.Since(start)
	return w
}

// p95slices is how many consecutive slices of a window latency_p95_ms is
// taken over.
const p95slices = 4

// p95 is the median of the 95th percentiles of p95slices consecutive
// slices of the window, in milliseconds. A burst of outside noise lifts
// one slice's percentile and leaves the median alone, where it would lift
// the whole window's percentile; a slower system lifts every slice.
func (w *window) p95() float64 {
	order := make([]int, len(w.lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return w.at[order[i]] < w.at[order[j]] })
	var slices []float64
	for k := 0; k < p95slices; k++ {
		var lat []float64
		for _, i := range order[k*len(order)/p95slices : (k+1)*len(order)/p95slices] {
			lat = append(lat, float64(w.lat[i])/1e6)
		}
		if len(lat) > 0 {
			slices = append(slices, quantile(lat, 0.95))
		}
	}
	return median(slices)
}

// setUp prepares the workload setupReps times and keeps the last; the
// median of the times is setup_s.
func setUp(s *spec, seed int64, e *env) (*prepared, metric, error) {
	var p *prepared
	var times []float64
	for i := 0; i < setupReps; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, metric{}, err
			}
		}
		t0 := time.Now()
		var err error
		if p, err = prepare(s, seed, e); err != nil {
			return nil, metric{}, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return p, metric{Value: median(times), Unit: "s", Samples: setupReps}, nil
}

// verdict fills the outcome's correctness fields from a window. Serve
// workloads tolerate one failed request in a hundred; in process nothing
// may fail.
func (o *outcome) verdict(w *window, serve bool) {
	o.Attempted, o.Failed = w.attempted, w.failed
	o.Correct = w.attempted > 0 && w.failed == 0
	if serve {
		o.Correct = w.attempted > 0 && w.failed*100 <= w.attempted
	}
	if w.firstErr != nil {
		o.Error = w.firstErr.Error()
	}
}

// measure is the untraced run: the end-to-end metrics of one workload.
func measure(s *spec, seed int64, d time.Duration, e *env) (o *outcome, err error) {
	p, setup, err := setUp(s, seed, e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	r, err := newRunner(p, e)
	if err != nil {
		return nil, err
	}
	r.warmup()
	w := r.window(d)
	if len(w.lat) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %w", w.firstErr)
	}
	o = &outcome{Workload: s.name}
	o.verdict(w, s.kind.serve())
	lat := ms(w.lat)
	o.Metrics = map[string]metric{
		"throughput_mb_s":   {Value: float64(w.bytes) / 1e6 / w.elapsed.Seconds(), Unit: "MB/s", Samples: len(lat)},
		"latency_p50_ms":    {Value: quantile(lat, 0.50), Unit: "ms", Samples: len(lat)},
		"latency_p95_ms":    {Value: w.p95(), Unit: "ms", Samples: len(lat)},
		"peak_buffer_bytes": {Value: float64(w.peak), Unit: "B"},
		"setup_s":           setup,
	}
	return o, nil
}
