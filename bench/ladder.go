package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	goruntime "runtime"
	"time"

	"fluxquery"
	"fluxquery/internal/bufmgr"
	"fluxquery/internal/core"
	"fluxquery/internal/dtd"
	"fluxquery/internal/nf"
	"fluxquery/internal/opt"
	"fluxquery/internal/proj"
	"fluxquery/internal/runtime"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xquery"
	"fluxquery/internal/xsax"
)

// The evaluator's feed batch bounds (runtime.feedBatchEvents/Bytes).
const (
	batchEvents = 256
	batchBytes  = 32 << 10
)

// layerUnits names every per-layer metric and its unit. Every workload
// reports all of them; a layer the workload does not use reads 0.
var layerUnits = map[string]string{
	"read.ns_per_byte":              "ns/B",
	"xmltok.scan_ns_per_byte":       "ns/B",
	"xmltok.events":                 "count",
	"xsax.validate_ns_per_byte":     "ns/B",
	"proj.ns_per_byte":              "ns/B",
	"proj.skip_ratio":               "ratio",
	"proj.events_delivered":         "count",
	"runtime.eval_ns_per_event":     "ns/event",
	"runtime.events_in":             "count",
	"runtime.allocs_per_mb":         "1/MB",
	"xmltok.write_ns_per_out_byte":  "ns/B",
	"out.bytes":                     "B",
	"mqe.marginal_us_per_plan":      "us",
	"mqe.setup_us_per_registration": "us",
	"shared.trie_nodes":             "count",
	"mqe.deliveries_per_event":      "ratio",
	"mqe.pipelined_ratio":           "ratio",
	"mqe.trie_ratio":                "ratio",
	"bufmgr.spilled_bytes":          "B",
	"bufmgr.rehydrated_bytes":       "B",
	"bufmgr.rehydrates_per_pass":    "count",
	"bufmgr.spill_retries":          "count",
	"bufmgr.spill_time_share":       "ratio",
	"compile.ms_per_query":          "ms",
	"fluxserve.http_overhead_ms":    "ms",
	"fluxserve.floor_ms":            "ms",
	"fluxserve.rejected":            "count",
	"fluxserve.response_bytes":      "B",
	"fluxserve.latency_p99_ms":      "ms",
	"fluxserve.request_ms":          "ms",
	"loadgen.late_ms_p95":           "ms",
	"telemetry.overhead_ratio":      "ratio",
	"gc.cycles":                     "count",
	"gc.pause_total_ms":             "ms",
	"trace.overhead_ratio":          "ratio",
	"untraced.op_ms":                "ms",
	"share.scan":                    "ratio",
	"share.eval":                    "ratio",
	"share.http_registration":       "ratio",
	"gomaxprocs":                    "count",
}

// layers collects the per-layer metrics of one traced run.
type layers map[string]metric

func (l layers) set(name string, v float64, samples int) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: unnamed layer metric " + name)
	}
	l[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func compileRuntime(src string, d *dtd.DTD) (*runtime.Plan, error) {
	e, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	if e, err = nf.Normalize(e); err != nil {
		return nil, err
	}
	if e, _, err = opt.Optimize(e, d, opt.Options{}); err != nil {
		return nil, err
	}
	q, err := core.Schedule(e, d)
	if err != nil {
		return nil, err
	}
	return runtime.CompileOptions(q, runtime.Options{})
}

// tracedPass is runtime.Plan.runManaged written out in the benchmark, so
// that a span can stand around each call into a layer: "scan" around the
// projecting validating reader filling a batch (xmltok + xsax + proj),
// "eval" around StepExec.Feed and Close (runtime + eval + xmltok.Writer).
// What is left of the "pass" span is the driver's own time.
func tracedPass(tr *tracer, pl *runtime.Plan, d *dtd.DTD, doc []byte, out io.Writer, m *bufmgr.Manager) (time.Duration, error) {
	root := tr.op("pass")
	gate := m.NewGate()
	acct := gate.NewAccount()
	se := pl.NewStepExecBudgeted(out, acct)
	xr := xsax.GetReader(bytes.NewReader(doc), d)
	xr.SetProjection(pl.ProjAutomaton(), proj.ModeFast)
	b := xsax.GetBatch()
	var cause error
	for cause == nil {
		if cause = gate.Wait(); cause != nil {
			break
		}
		b.Reset()
		sp := tr.child("scan", root)
		for b.Len() < batchEvents && b.ArenaBytes() < batchBytes {
			ev, err := xr.NextEvent()
			if err != nil {
				cause = err
				break
			}
			b.Append(ev)
		}
		tr.end(sp)
		sp = tr.child("eval", root)
		done, _ := se.Feed(b.Events)
		tr.end(sp)
		if done {
			break
		}
	}
	sp := tr.child("eval", root)
	_, err := se.Close(cause)
	tr.end(sp)
	acct.Close()
	gate.Close()
	xsax.PutBatch(b)
	xsax.PutReader(xr)
	return tr.end(root), err
}

// timed records one replay of a ladder stage as an operation of its own.
func (tr *tracer) timed(name string, f func() error) (time.Duration, error) {
	id := tr.op(name)
	err := f()
	return tr.end(id), err
}

// stage replays f reps times under the tracer and returns the median.
func (tr *tracer) stage(name string, reps int, f func() error) (time.Duration, error) {
	times := make([]float64, reps)
	for i := range times {
		d, err := tr.timed(name, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		times[i] = float64(d)
	}
	return time.Duration(median(times)), nil
}

// readEvents pulls a validating reader to the end of its stream.
func readEvents(xr *xsax.Reader) error {
	for {
		if _, err := xr.NextEvent(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// feed is one plan's projected event stream as owned batches, collected
// ahead of the evaluation stage so that no scan time is inside it. The
// events resolve symbols through the reader, which stays checked out
// until release.
type feed struct {
	pl      *runtime.Plan
	xr      *xsax.Reader
	batches []*xsax.Batch
	events  int64
}

func collect(pl *runtime.Plan, d *dtd.DTD, doc []byte) (*feed, error) {
	f := &feed{pl: pl, xr: xsax.GetReader(bytes.NewReader(doc), d)}
	f.xr.SetProjection(pl.ProjAutomaton(), proj.ModeFast)
	for {
		b := xsax.GetBatch()
		f.batches = append(f.batches, b)
		for b.Len() < batchEvents && b.ArenaBytes() < batchBytes {
			ev, err := f.xr.NextEvent()
			if err == io.EOF {
				f.events += int64(b.Len())
				return f, nil
			}
			if err != nil {
				f.release()
				return nil, err
			}
			b.Append(ev)
		}
		f.events += int64(b.Len())
	}
}

func (f *feed) release() {
	for _, b := range f.batches {
		xsax.PutBatch(b)
	}
	xsax.PutReader(f.xr)
}

// eval feeds the collected batches to a fresh StepExec writing to out.
func (f *feed) eval(out io.Writer) error {
	se := f.pl.NewStepExec(out)
	for _, b := range f.batches {
		if done, _ := se.Feed(b.Events); done {
			break
		}
	}
	_, err := se.Close(io.EOF)
	return err
}

// tokens parses result streams back into owned tokens for the writer
// stage.
func tokens(outs [][]byte) ([]xmltok.Token, error) {
	var toks []xmltok.Token
	for _, out := range outs {
		sc := xmltok.NewScanner(bytes.NewReader(out))
		for {
			t, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			t.Attrs = append([]xmltok.Attr(nil), t.Attrs...)
			toks = append(toks, t)
		}
	}
	return toks, nil
}

// stageTimes are the ladder's stage medians over one document.
type stageTimes struct {
	project, eval time.Duration
}

// climb times one document through each layer on its own, ladderReps
// replays per stage, and records the layer metrics that need no more than
// the document, the plans and the reference outputs.
func climb(tr *tracer, l layers, doc []byte, d *dtd.DTD, plans []*runtime.Plan, refs [][]byte, reps int) (stageTimes, error) {
	var st stageTimes
	n := float64(len(doc))

	read, err := tr.stage("ladder.read", reps, func() error {
		_, err := io.Copy(io.Discard, struct{ io.Reader }{bytes.NewReader(doc)})
		return err
	})
	if err != nil {
		return st, err
	}
	l.set("read.ns_per_byte", float64(read)/n, reps)

	sc := xmltok.NewScanner(nil)
	var events int64
	scan, err := tr.stage("ladder.scan", reps, func() error {
		sc.Reset(bytes.NewReader(doc))
		events = 0
		for {
			if _, err := sc.NextEvent(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			events++
		}
	})
	if err != nil {
		return st, err
	}
	l.set("xmltok.scan_ns_per_byte", float64(scan)/n, reps)
	l.set("xmltok.events", float64(events), 0)

	validate, err := tr.stage("ladder.validate", reps, func() error {
		xr := xsax.GetReader(bytes.NewReader(doc), d)
		defer xsax.PutReader(xr)
		return readEvents(xr)
	})
	if err != nil {
		return st, err
	}
	l.set("xsax.validate_ns_per_byte", float64(validate-scan)/n, reps)

	// One plan scans under its own automaton, a set under the union of
	// its plans' path-sets, as mqe.Set builds it.
	auto := plans[0].ProjAutomaton()
	if len(plans) > 1 {
		sets := make([]*proj.PathSet, len(plans))
		for i, pl := range plans {
			sets[i] = pl.Paths()
		}
		auto = proj.CompileVocab(proj.Union(sets...), d.IDNames())
	}
	var scanned xsax.ScanStats
	st.project, err = tr.stage("ladder.project", reps, func() error {
		xr := xsax.GetReader(bytes.NewReader(doc), d)
		defer xsax.PutReader(xr)
		xr.SetProjection(auto, proj.ModeFast)
		err := readEvents(xr)
		scanned = xr.ScanStats()
		return err
	})
	if err != nil {
		return st, err
	}
	l.set("proj.ns_per_byte", float64(st.project)/n, reps)
	l.set("proj.skip_ratio", float64(scanned.BytesSkipped)/float64(scanned.BytesRead), 0)
	l.set("proj.events_delivered", float64(scanned.EventsDelivered), 0)

	feeds := make([]*feed, len(plans))
	var eventsIn int64
	for i, pl := range plans {
		if feeds[i], err = collect(pl, d, doc); err != nil {
			return st, err
		}
		defer feeds[i].release()
		eventsIn += feeds[i].events
		out := newSum()
		if err := feeds[i].eval(&out); err != nil {
			return st, err
		}
		if out != sumOf(refs[i]) {
			return st, fmt.Errorf("ladder.eval: plan %d: output differs from reference", i)
		}
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	st.eval, err = tr.stage("ladder.eval", reps, func() error {
		for _, f := range feeds {
			if err := f.eval(io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	goruntime.ReadMemStats(&after)
	l.set("runtime.eval_ns_per_event", float64(st.eval)/float64(eventsIn), reps)
	l.set("runtime.events_in", float64(eventsIn), 0)
	l.set("runtime.allocs_per_mb", float64(after.Mallocs-before.Mallocs)/float64(reps)/(n/1e6), reps)

	toks, err := tokens(refs)
	if err != nil {
		return st, err
	}
	var written int64
	write, err := tr.stage("ladder.write", reps, func() error {
		w := xmltok.NewWriter(io.Discard)
		for _, t := range toks {
			w.Token(t)
		}
		written = w.Written()
		return w.Flush()
	})
	if err != nil {
		return st, err
	}
	l.set("xmltok.write_ns_per_out_byte", float64(write)/float64(written), reps)
	l.set("out.bytes", float64(written), 0)
	return st, nil
}

// setConfig is one way to configure a StreamSet pass.
type setConfig func(*fluxquery.StreamSet)

// register is what fluxserve's /eval does before every pass: a fresh
// StreamSet with every selected plan registered by name.
func register(d *fluxquery.DTD, plans []*fluxquery.Plan, names []namedQuery) (*fluxquery.StreamSet, error) {
	set := fluxquery.NewStreamSet(d)
	for i, pl := range plans {
		if _, err := set.RegisterNamed(pl, io.Discard, names[i].name); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// setPass returns the median Run time of a fresh set of plans over reps
// replays, after one warm-up pass.
func setPass(d *fluxquery.DTD, plans []*fluxquery.Plan, names []namedQuery, doc []byte, reps int, cfg setConfig) (run time.Duration, set *fluxquery.StreamSet, err error) {
	if set, err = register(d, plans, names); err != nil {
		return 0, nil, err
	}
	if cfg != nil {
		cfg(set)
	}
	if err := set.Run(bytes.NewReader(doc)); err != nil {
		return 0, nil, err
	}
	run, err = medianOf(reps, func() error { return set.Run(bytes.NewReader(doc)) })
	return run, set, err
}

// setLayers measures the multi-query layer: what one more plan costs a
// pass, what a registration costs, and the two alternative pass engines
// the ROADMAP wants judged (trie dispatch, pipelined pass).
func setLayers(l layers, e *env, d *fluxquery.DTD, plans []*fluxquery.Plan, names []namedQuery, doc []byte, reps int) (run time.Duration, err error) {
	n := len(plans)
	pass := func(k int, cfg setConfig) (time.Duration, *fluxquery.StreamSet) {
		run, set, e := setPass(d, plans[:k], names, doc, reps, cfg)
		if e != nil && err == nil {
			err = e
		}
		return run, set
	}
	one, _ := pass(1, nil)
	run, _ = pass(n, nil)
	trie, trieSet := pass(n, func(s *fluxquery.StreamSet) { s.SetDispatch(fluxquery.DispatchTrie) })
	piped, _ := pass(n, func(s *fluxquery.StreamSet) { s.SetParallel(max(2, e.nproc)) })
	observed, _ := pass(n, func(s *fluxquery.StreamSet) {
		s.SetTelemetry(fluxquery.NewTelemetry())
		s.SetRecorder(fluxquery.NewFlightRecorder(fluxquery.FlightRecorderConfig{}))
		s.SetLedger(fluxquery.NewQueryLedger())
	})
	if err != nil {
		return 0, err
	}
	reg, err := medianOf(reps, func() error {
		_, err := register(d, plans, names)
		return err
	})
	if err != nil {
		return 0, err
	}
	l.set("mqe.marginal_us_per_plan", float64(run-one)/1e3/float64(n-1), reps)
	l.set("mqe.setup_us_per_registration", float64(reg)/1e3/float64(n), reps)
	ds := trieSet.LastDispatch()
	l.set("shared.trie_nodes", float64(ds.TrieNodes), 0)
	l.set("mqe.deliveries_per_event", float64(ds.Deliveries)/float64(ds.Events), 0)
	l.set("mqe.trie_ratio", float64(run)/float64(trie), reps)
	l.set("mqe.pipelined_ratio", float64(run)/float64(piped), reps)
	l.set("telemetry.overhead_ratio", float64(observed)/float64(run), reps)
	return run, nil
}

// gcCounter reads a process's collector cycle count and the pause total
// of the cycles after cycle number since.
type gcCounter func(since int64) (cycles int64, pause time.Duration, err error)

// ringPause sums the pauses of the cycles after since out of the
// runtime's ring of recent pauses, whose newest entry is at
// (cycles-1) mod len; cycles the ring no longer holds are scaled in.
func ringPause(ring []uint64, cycles, since int64) time.Duration {
	n := cycles - since
	held := min(n, int64(len(ring)))
	if held <= 0 {
		return 0
	}
	var sum uint64
	for k := int64(0); k < held; k++ {
		sum += ring[(cycles-1-k)%int64(len(ring))]
	}
	return time.Duration(float64(sum) * float64(n) / float64(held))
}

func ownGC(since int64) (int64, time.Duration, error) {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return int64(m.NumGC), ringPause(m.PauseNs[:], int64(m.NumGC), since), nil
}

// ladder is the traced run: the per-layer metrics of one workload. It
// measures an untraced window of d/2 first, as the base of every ratio,
// then replays the workload's operations with spans around each call into
// a layer, then times the document through each layer on its own.
func ladder(s *spec, seed int64, d time.Duration, e *env) (o *outcome, err error) {
	p, err := prepare(s, seed, e)
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
	l := layers{}
	for name := range layerUnits {
		l.set(name, 0, 0)
	}
	l.set("gomaxprocs", float64(goruntime.GOMAXPROCS(0)), 0)
	serve := s.kind.serve()

	// The untraced window. GC counts are this process's for in-process
	// workloads (the engine runs here) and the child's for serve ones.
	gc := gcCounter(ownGC)
	if serve {
		gc = p.child.gcStats
	}
	cycles0, _, err := gc(0)
	if err != nil {
		return nil, err
	}
	w := r.window(d / 2)
	cycles1, pause, err := gc(cycles0)
	if err != nil {
		return nil, err
	}
	if len(w.lat) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %w", w.firstErr)
	}
	o = &outcome{Workload: s.name, Trace: true}
	o.verdict(w, serve)
	lat := ms(w.lat)
	op := time.Duration(median(lat) * 1e6)
	l.set("untraced.op_ms", median(lat), len(lat))
	l.set("gc.cycles", float64(cycles1-cycles0), 0)
	l.set("gc.pause_total_ms", float64(pause)/1e6, 0)

	// Every query once more through the public compiler, timed, and
	// through the internal one for the plans the ladder calls into.
	rd, err := dtd.Parse(p.dtdSrc)
	if err != nil {
		return nil, err
	}
	var compileMs []float64
	pub := make([]*fluxquery.Plan, len(p.queries))
	rts := make([]*runtime.Plan, len(p.queries))
	for i, q := range p.queries {
		t0 := time.Now()
		if pub[i], err = compile(q.src, p.dtd, fluxquery.Options{}); err != nil {
			return nil, err
		}
		compileMs = append(compileMs, float64(time.Since(t0))/1e6)
		if rts[i], err = compileRuntime(q.src, rd); err != nil {
			return nil, err
		}
	}
	l.set("compile.ms_per_query", median(compileMs), len(compileMs))

	tr := newTracer()
	reps := ladderReps
	if len(p.doc) < 100_000 {
		// A pass over a small document takes about a millisecond; more
		// replays steady its median.
		reps *= 10
	}
	st, err := climb(tr, l, p.doc, rd, rts, r.refs, reps)
	if err != nil {
		return nil, err
	}
	switch {
	case s.kind == kindPlan:
		err = planLayers(tr, l, r, rts[0], rd, op, e)
	case s.kind == kindSet:
		var traced time.Duration
		traced, err = tr.stage("pass", reps, func() error { _, err := r.pass(); return err })
		l.set("trace.overhead_ratio", float64(traced)/float64(op), reps)
		l.set("share.scan", float64(st.project)/float64(op), reps)
		l.set("share.eval", float64(st.eval)/float64(op), reps)
		if err == nil {
			_, err = setLayers(l, e, p.dtd, pub, p.queries, p.doc, reps)
		}
	default:
		l.set("fluxserve.latency_p99_ms", quantile(lat, 0.99), len(lat))
		l.set("fluxserve.response_bytes", float64(w.respBytes)/float64(len(lat)), len(lat))
		l.set("loadgen.late_ms_p95", quantile(ms(w.late), 0.95), len(w.late))
		err = serveLayers(tr, l, r, pub, st, reps)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(e.out, "trace-"+s.name+".json"), s.name, seed); err != nil {
		return nil, err
	}
	o.Metrics = l
	return o, nil
}

// planLayers replays a single-plan workload through tracedPass and reads
// the shares of a pass off its spans; for the join workloads it also
// reads the buffer manager's counters.
func planLayers(tr *tracer, l layers, r *runner, pl *runtime.Plan, d *dtd.DTD, op time.Duration, e *env) error {
	p := r.p
	var m *bufmgr.Manager
	if p.spec.spill {
		m = bufmgr.New(bufmgr.Config{Budget: p.bufs.Metrics().Budget, Policy: bufmgr.PolicySpill, SpillDir: e.out})
		defer m.Close()
	}
	first := len(tr.spans)
	times := make([]float64, ladderReps)
	for i := range times {
		out := newSum()
		d, err := tracedPass(tr, pl, d, p.doc, &out, m)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		if out != r.want[0] {
			return errors.New("traced pass: output differs from reference")
		}
		times[i] = float64(d)
	}
	traced := median(times)
	self := selfTimes(tr.spans[first:])
	total := self["pass"] + self["scan"] + self["eval"]
	l.set("trace.overhead_ratio", traced/float64(op), ladderReps)
	l.set("share.scan", float64(self["scan"])/float64(total), ladderReps)
	l.set("share.eval", float64(self["eval"])/float64(total), ladderReps)

	if !p.spec.spill {
		return nil
	}
	before := p.bufs.Metrics()
	st, err := p.plans[0].Execute(bytes.NewReader(p.doc), io.Discard)
	if err != nil {
		return err
	}
	after := p.bufs.Metrics()
	l.set("bufmgr.spilled_bytes", float64(st.SpilledBytes), 0)
	l.set("bufmgr.rehydrated_bytes", float64(st.RehydratedBytes), 0)
	l.set("bufmgr.rehydrates_per_pass", float64(after.RehydrateOps-before.RehydrateOps), 0)
	l.set("bufmgr.spill_retries", float64(after.SpillRetries), 0)
	free, err := compile(p.queries[0].src, p.dtd, fluxquery.Options{})
	if err != nil {
		return err
	}
	mem, err := medianOf(ladderReps, func() error {
		_, err := free.Execute(bytes.NewReader(p.doc), io.Discard)
		return err
	})
	l.set("bufmgr.spill_time_share", float64(op-mem)/float64(op), ladderReps)
	return err
}

// serveLayers splits a request between HTTP, registration and the pass:
// sequential requests on one connection, with and without a span around
// them, against the same pass run in process.
func serveLayers(tr *tracer, l layers, r *runner, pub []*fluxquery.Plan, st stageTimes, reps int) error {
	p, c := r.p, r.p.child
	sequential := func(rq *request, n int, name string) (time.Duration, error) {
		times := make([]float64, n)
		for i := range times {
			id := -1
			if name != "" {
				id = tr.op(name)
			}
			t0 := time.Now()
			body, err := c.post(rq)
			times[i] = float64(time.Since(t0))
			if id >= 0 {
				tr.end(id)
			}
			if err != nil {
				return 0, err
			}
			if _, err := rq.verify(body); err != nil {
				return 0, err
			}
		}
		return time.Duration(median(times)), nil
	}
	plain, err := sequential(r.small, tracedRequests, "")
	if err != nil {
		return err
	}
	traced, err := sequential(r.small, tracedRequests, "request")
	if err != nil {
		return err
	}
	l.set("trace.overhead_ratio", float64(traced)/float64(plain), tracedRequests)
	l.set("fluxserve.request_ms", float64(plain)/1e6, tracedRequests)

	floor, err := medianOf(tracedRequests, func() error {
		_, err := c.get(c.base + "/healthz")
		return err
	})
	if err != nil {
		return err
	}
	l.set("fluxserve.floor_ms", float64(floor)/1e6, tracedRequests)

	// What /eval does per request, in process: a fresh set, every
	// selected plan registered, one Run.
	run, err := setLayers(l, r.e, p.dtd, pub, p.queries, p.doc, reps)
	if err != nil {
		return err
	}
	for i := 0; i < ladderReps; i++ {
		id := tr.op("request.inprocess")
		sp := tr.child("register", id)
		set, err := register(p.dtd, pub, p.queries)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.child("run", id)
		err = set.Run(bytes.NewReader(p.doc))
		tr.end(sp)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	// The shares of a request: the scan and evaluation stages against the
	// sequential request time, and everything that is not the pass itself.
	l.set("share.scan", float64(st.project)/float64(plain), reps)
	l.set("share.eval", float64(st.eval)/float64(plain), reps)
	l.set("share.http_registration", float64(plain-run)/float64(plain), reps)

	seven := len(xmark7)
	big, err := sequential(r.big, 2*ladderReps, "request.big")
	if err != nil {
		return err
	}
	bigRun, _, err := setPass(p.dtd, pub[:seven], p.queries, p.bigDoc, ladderReps, nil)
	if err != nil {
		return err
	}
	l.set("fluxserve.http_overhead_ms", float64(big-bigRun)/1e6, 2*ladderReps)
	rejected, err := c.rejected()
	l.set("fluxserve.rejected", float64(rejected), 0)
	return err
}
