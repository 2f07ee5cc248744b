package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"fluxquery"
	"fluxquery/internal/workload"
)

// record is one machine-readable measurement. The schema is the contract
// for BENCH_*.json trajectory files: keep fields append-only.
type record struct {
	// Suite identifies the measurement family: "workload" for the
	// single-query case suite, "shared-stream" for the multi-query engine.
	Suite  string `json:"suite"`
	Query  string `json:"query"`
	Engine string `json:"engine"`
	// Plans is the number of plans riding one pass (1 for the single-query
	// suite).
	Plans    int `json:"plans"`
	DocBytes int `json:"doc_bytes"`
	// NsPerOp is the best wall-clock time for one operation (one
	// execution, or one shared pass of all plans).
	NsPerOp int64 `json:"ns_per_op"`
	// MBPerS is aggregate throughput: bytes of input evaluated per second,
	// counting each riding plan's evaluation of the document.
	MBPerS float64 `json:"mb_per_s"`
	// AllocsPerOp is the heap allocation count of the measured repetition.
	AllocsPerOp     uint64 `json:"allocs_per_op"`
	PeakBufferBytes int64  `json:"peak_buffer_bytes"`
	OutputBytes     int64  `json:"output_bytes"`
	// Proj is the stream-projection mode of flux-engine measurements
	// ("fast"/"off"); empty for the baseline engines, which do not
	// project the scan.
	Proj string `json:"proj,omitempty"`
	// EventsDelivered/EventsSkipped/BytesSkipped report the projection of
	// the measured scan: events fanned to the evaluator vs pruned before
	// it, and raw bytes the tokenizer bulk-skipped.
	EventsDelivered int64 `json:"events_delivered,omitempty"`
	EventsSkipped   int64 `json:"events_skipped,omitempty"`
	BytesSkipped    int64 `json:"bytes_skipped,omitempty"`
	// Budget* describe budgeted (buffer-managed) measurements: the byte
	// budget and policy, the spill traffic of the measured run, the
	// heap-resident peak the budget bounded, and backpressure stall.
	Budget              int64  `json:"budget,omitempty"`
	BudgetPolicy        string `json:"budget_policy,omitempty"`
	SpilledBytes        int64  `json:"spilled_bytes,omitempty"`
	RehydratedBytes     int64  `json:"rehydrated_bytes,omitempty"`
	PeakHeapBufferBytes int64  `json:"peak_heap_buffer_bytes,omitempty"`
	StallNs             int64  `json:"stall_ns,omitempty"`
	// GoMaxProcs is the scheduler width of the measuring process — a
	// parallel measurement from a 1-CPU run is not comparable to one
	// from 8, so the record carries it.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// Parallel is the Parallel setting of a pipelined measurement (the
	// `parallel` suite; 0 = sequential pass). The remaining fields
	// describe that pass: per-stage stall time (tokenizer blocked on a
	// full ring, validator blocked on a full ring, dispatcher blocked on
	// an empty ring) and the rings' occupancy high-water marks.
	Parallel        int   `json:"parallel,omitempty"`
	TokenizeStallNs int64 `json:"tokenize_stall_ns,omitempty"`
	ValidateStallNs int64 `json:"validate_stall_ns,omitempty"`
	DispatchStallNs int64 `json:"dispatch_stall_ns,omitempty"`
	TokenRingPeak   int   `json:"token_ring_peak,omitempty"`
	EventRingPeak   int   `json:"event_ring_peak,omitempty"`
	// Multiquery suite fields: the per-plan marginal cost of one shared
	// pass (NsPerOp / Plans), the dispatch trie's interned node count and
	// the events it delivered (plan-events, summed over fan-out lists).
	MarginalNsPerPlan int64 `json:"marginal_ns_per_plan,omitempty"`
	TrieNodes         int   `json:"trie_nodes,omitempty"`
	TrieDeliveries    int64 `json:"trie_deliveries,omitempty"`
	// P50Ns/P95Ns/P99Ns are latency quantiles over the measurement's
	// repetitions (nearest-rank). NsPerOp remains the best repetition;
	// the quantiles expose the spread — with few -reps the upper ones
	// saturate at the slowest repetition.
	P50Ns int64 `json:"p50_ns,omitempty"`
	P95Ns int64 `json:"p95_ns,omitempty"`
	P99Ns int64 `json:"p99_ns,omitempty"`
}

// withQuantiles fills rec's latency quantile fields from the
// repetition durations and returns it.
func withQuantiles(rec record, durs []time.Duration) record {
	rec.P50Ns = pctile(durs, 0.50)
	rec.P95Ns = pctile(durs, 0.95)
	rec.P99Ns = pctile(durs, 0.99)
	return rec
}

// withRollupQuantiles fills rec's latency quantiles from the flight
// recorder's since-start rollup: the engine's own per-pass wall times,
// reduced by the same nearest-rank method as pctile. StreamSet suites
// use this so the benchmark exercises the observability path it
// reports through; when the recorder saw no passes the repetition
// timings are the fallback.
func withRollupQuantiles(rec record, frec *fluxquery.FlightRecorder, durs []time.Duration) record {
	ru := frec.Rollup(0)
	if ru.Passes == 0 {
		return withQuantiles(rec, durs)
	}
	rec.P50Ns = ru.P50.Nanoseconds()
	rec.P95Ns = ru.P95.Nanoseconds()
	rec.P99Ns = ru.P99.Nanoseconds()
	return rec
}

// benchRecorder returns a flight recorder sized to retain every
// measured repetition of one suite configuration.
func benchRecorder(reps int) *fluxquery.FlightRecorder {
	if reps < 1 {
		reps = 1
	}
	return fluxquery.NewFlightRecorder(fluxquery.FlightRecorderConfig{Size: reps})
}

// pctile returns the q-quantile (0 < q <= 1) of the ascending-sorted
// durations by the nearest-rank method.
func pctile(durs []time.Duration, q float64) int64 {
	if len(durs) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(durs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(durs) {
		rank = len(durs)
	}
	return durs[rank-1].Nanoseconds()
}

// measureAllocs runs fn reps times and returns the best wall time, the
// allocation count of that repetition, and every repetition's duration
// sorted ascending (for latency quantiles).
func measureAllocs(reps int, fn func() error) (best time.Duration, allocs uint64, durs []time.Duration, err error) {
	best = 1 << 62
	var ms0, ms1 goruntime.MemStats
	for i := 0; i < reps; i++ {
		goruntime.ReadMemStats(&ms0)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, nil, err
		}
		el := time.Since(start)
		goruntime.ReadMemStats(&ms1)
		if el < best {
			best = el
			allocs = ms1.Mallocs - ms0.Mallocs
		}
		durs = append(durs, el)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return best, allocs, durs, nil
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / (1 << 20)
}

// runJSON measures the workload catalogue on every engine plus the
// shared-stream multi-query workload and writes the records as JSON.
func runJSON(r *runner, path string) error {
	records, err := collectRecords(r)
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// collectRecords runs the full measurement catalogue (single-query suite
// and shared-stream suite) and returns the records. It is shared by the
// -json writer and the -baseline regression diff.
func collectRecords(r *runner) ([]record, error) {
	var records []record

	// Single-query suite: every case on every engine.
	for i := range workload.Cases {
		c := &workload.Cases[i]
		size := int64(1 << 20)
		if c.Join {
			size = 256 << 10
		}
		doc, err := r.gen(c, size)
		if err != nil {
			return nil, err
		}
		// The flux engine is measured twice — projection off and fast — so
		// trajectory files record the stream-projection win per query; the
		// baseline engines do not project the scan.
		type variant struct {
			engine fluxquery.Engine
			proj   fluxquery.Projection
			label  string
		}
		variants := []variant{
			{fluxquery.EngineFlux, fluxquery.ProjectionOff, "off"},
			{fluxquery.EngineFlux, fluxquery.ProjectionFast, "fast"},
			{fluxquery.EngineProjection, fluxquery.ProjectionOff, ""},
			{fluxquery.EngineNaive, fluxquery.ProjectionOff, ""},
		}
		for _, v := range variants {
			p := fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{Engine: v.engine, Projection: v.proj})
			var st fluxquery.Stats
			best, allocs, durs, err := measureAllocs(r.reps, func() error {
				var rerr error
				st, rerr = p.Execute(bytes.NewReader(doc), io.Discard)
				return rerr
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.Name, v.engine, err)
			}
			records = append(records, withQuantiles(record{
				Suite:           "workload",
				Query:           c.Name,
				Engine:          v.engine.String(),
				Plans:           1,
				DocBytes:        len(doc),
				NsPerOp:         best.Nanoseconds(),
				MBPerS:          mbPerS(int64(len(doc)), best),
				AllocsPerOp:     allocs,
				PeakBufferBytes: st.PeakBufferBytes,
				OutputBytes:     st.OutputBytes,
				Proj:            v.label,
				EventsDelivered: st.ScanEventsDelivered,
				EventsSkipped:   st.ScanEventsSkipped,
				BytesSkipped:    st.ScanBytesSkipped,
			}, durs))
		}
	}

	// Shared-stream suite: N streaming auction queries on one pass.
	shared, err := sharedStreamRecords(r)
	if err != nil {
		return nil, err
	}
	records = append(records, shared...)

	// Budgeted suite: the spill path under memory pressure.
	budgeted, err := budgetedRecords(r)
	if err != nil {
		return nil, err
	}
	records = append(records, budgeted...)

	// Parallel suite: the pipelined shared pass vs the sequential one.
	par, err := parallelRecords(r)
	if err != nil {
		return nil, err
	}
	records = append(records, par...)

	// Multiquery suite: marginal per-plan cost of trie dispatch at
	// 100/1k/10k registrations.
	mq, err := multiQueryRecords(r)
	if err != nil {
		return nil, err
	}
	records = append(records, mq...)

	gmp := goruntime.GOMAXPROCS(0)
	for i := range records {
		records[i].GoMaxProcs = gmp
	}
	return records, nil
}

// parallelRecords measures the tentpole: all 8 streaming XMark queries
// riding one auction stream, first as the sequential shared pass, then
// pipelined (tokenize ∥ validate ∥ dispatch). Both records carry the
// same suite, query, plans and proj, differing in engine — so a
// -baseline diff tracks each independently — and the pipelined record
// adds the per-stage stall and ring-occupancy evidence.
func parallelRecords(r *runner) ([]record, error) {
	names := []string{
		"xmark-q1", "xmark-q8-join", "xmark-q13", "xmark-q2-bidders",
		"xmark-q17-nophone", "xmark-q20-cities", "xmark-q4-sellers", "xmark-q11-bids",
	}
	base := workload.ByName(names[0])
	doc, err := r.gen(base, 512<<10)
	if err != nil {
		return nil, err
	}
	d, err := fluxquery.ParseDTD(base.DTD)
	if err != nil {
		return nil, err
	}
	plans := make([]*fluxquery.Plan, len(names))
	for i, name := range names {
		c := workload.ByName(name)
		plans[i] = fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{})
	}
	aggregate := int64(len(doc)) * int64(len(plans))
	piped := r.parallel
	if piped < 2 {
		piped = 4
	}

	var records []record
	// 1 pins the sequential leg: the default would pipeline it too.
	for _, par := range []int{1, piped} {
		set := fluxquery.NewStreamSet(d)
		set.SetParallel(par)
		frec := benchRecorder(r.reps)
		set.SetRecorder(frec)
		regs := make([]*fluxquery.StreamQuery, len(plans))
		for i, p := range plans {
			reg, err := set.Register(p, io.Discard)
			if err != nil {
				return nil, err
			}
			regs[i] = reg
		}
		best, allocs, durs, err := measureAllocs(r.reps, func() error {
			return set.Run(bytes.NewReader(doc))
		})
		if err != nil {
			return nil, err
		}
		var peak, out int64
		for _, reg := range regs {
			st, err := reg.Stats()
			if err != nil {
				return nil, err
			}
			if st.PeakBufferBytes > peak {
				peak = st.PeakBufferBytes
			}
			out += st.OutputBytes
		}
		sc := set.LastScan()
		rec := record{
			Suite: "parallel", Query: "xmark-8q", Plans: len(plans),
			Engine: "flux-mqe-seq", DocBytes: len(doc),
			NsPerOp: best.Nanoseconds(), MBPerS: mbPerS(aggregate, best),
			AllocsPerOp: allocs, PeakBufferBytes: peak, OutputBytes: out,
			Proj:            "fast",
			EventsDelivered: sc.EventsDelivered,
			EventsSkipped:   sc.EventsSkipped,
			BytesSkipped:    sc.BytesSkipped,
		}
		if par >= 2 {
			ps := set.LastPass()
			rec.Engine = "flux-mqe-parallel"
			rec.Parallel = ps.Parallel
			rec.TokenizeStallNs = ps.TokenizeStall.Nanoseconds()
			rec.ValidateStallNs = ps.ValidateStall.Nanoseconds()
			rec.DispatchStallNs = ps.DispatchStall.Nanoseconds()
			rec.TokenRingPeak = ps.TokenRingPeak
			rec.EventRingPeak = ps.EventRingPeak
		}
		records = append(records, withRollupQuantiles(rec, frec, durs))
	}
	return records, nil
}

// budgetedRecords measures the buffer manager's spill path: accrual
// workloads run with a budget at half their natural peak under
// PolicySpill, so the record's MB/s carries the full
// encode→segment-store→rehydrate round trip and a regression in the
// spill path turns the -baseline diff red like any other hot path.
func budgetedRecords(r *runner) ([]record, error) {
	var records []record
	// Two access shapes: xmp-q4-distinct accrues a buffer across the
	// whole stream and scans it once at the end (the spill path's
	// sequential best case); xmark-q8-join re-scans its buffers per
	// outer row (the nested-loop stress case, bounded by MRU re-drops).
	for _, name := range []string{"xmp-q4-distinct", "xmark-q8-join"} {
		c := workload.ByName(name)
		doc, err := r.gen(c, 256<<10)
		if err != nil {
			return nil, err
		}
		// Natural peak first, then the budgeted run at half of it.
		probe := fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{})
		pst, err := probe.Execute(bytes.NewReader(doc), io.Discard)
		if err != nil {
			return nil, err
		}
		budget := r.budget
		if budget <= 0 {
			budget = pst.PeakBufferBytes / 2
		}
		p := fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{
			BufferBudget: budget,
			BufferPolicy: fluxquery.BufferSpill,
		})
		var st fluxquery.Stats
		best, allocs, durs, err := measureAllocs(r.reps, func() error {
			var rerr error
			st, rerr = p.Execute(bytes.NewReader(doc), io.Discard)
			return rerr
		})
		// The plan owns its manager (and the spill store's fd): release it.
		if cerr := p.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("budgeted %s: %w", name, err)
		}
		records = append(records, withQuantiles(record{
			Suite:               "budgeted",
			Query:               name,
			Engine:              "flux-spill",
			Plans:               1,
			DocBytes:            len(doc),
			NsPerOp:             best.Nanoseconds(),
			MBPerS:              mbPerS(int64(len(doc)), best),
			AllocsPerOp:         allocs,
			PeakBufferBytes:     st.PeakBufferBytes,
			OutputBytes:         st.OutputBytes,
			Proj:                "fast",
			Budget:              budget,
			BudgetPolicy:        "spill",
			SpilledBytes:        st.SpilledBytes,
			RehydratedBytes:     st.RehydratedBytes,
			PeakHeapBufferBytes: st.PeakHeapBufferBytes,
			StallNs:             st.BudgetStall.Nanoseconds(),
		}, durs))
	}
	return records, nil
}

// sharedStreamRecords measures the multi-query engine: 8 streaming XMark
// queries riding one auction stream, against the same 8 run sequentially.
func sharedStreamRecords(r *runner) ([]record, error) {
	names := []string{"xmark-q1", "xmark-q13", "xmark-q2-bidders"}
	base := workload.ByName(names[0])
	doc, err := r.gen(base, 256<<10)
	if err != nil {
		return nil, err
	}
	d, err := fluxquery.ParseDTD(base.DTD)
	if err != nil {
		return nil, err
	}
	const nPlans = 8
	plans := make([]*fluxquery.Plan, nPlans)
	for i := range plans {
		c := workload.ByName(names[i%len(names)])
		plans[i] = fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{})
	}
	aggregate := int64(len(doc)) * nPlans

	// The shared pass is measured with projection off and fast: the union
	// skip automaton prunes what no riding plan can use, so fast records
	// carry the scan's delivered/skipped split.
	var sharedRecords []record
	for _, pm := range []fluxquery.Projection{fluxquery.ProjectionOff, fluxquery.ProjectionFast} {
		set := fluxquery.NewStreamSet(d)
		set.SetProjection(pm)
		frec := benchRecorder(r.reps)
		set.SetRecorder(frec)
		regs := make([]*fluxquery.StreamQuery, len(plans))
		for i, p := range plans {
			reg, err := set.Register(p, io.Discard)
			if err != nil {
				return nil, err
			}
			regs[i] = reg
		}
		bestShared, sharedAllocs, sharedDurs, err := measureAllocs(r.reps, func() error {
			return set.Run(bytes.NewReader(doc))
		})
		if err != nil {
			return nil, err
		}
		// Peak buffer and output of the pass: the maximum and sum over the
		// riding plans (one record describes the whole shared pass).
		var sharedPeak, sharedOut int64
		for _, reg := range regs {
			st, err := reg.Stats()
			if err != nil {
				return nil, err
			}
			if st.PeakBufferBytes > sharedPeak {
				sharedPeak = st.PeakBufferBytes
			}
			sharedOut += st.OutputBytes
		}
		sc := set.LastScan()
		sharedRecords = append(sharedRecords, withRollupQuantiles(record{
			Suite: "shared-stream", Query: "xmark-mix", Engine: "flux-mqe",
			Plans: nPlans, DocBytes: len(doc),
			NsPerOp: bestShared.Nanoseconds(), MBPerS: mbPerS(aggregate, bestShared),
			AllocsPerOp: sharedAllocs, PeakBufferBytes: sharedPeak, OutputBytes: sharedOut,
			Proj:            pm.String(),
			EventsDelivered: sc.EventsDelivered,
			EventsSkipped:   sc.EventsSkipped,
			BytesSkipped:    sc.BytesSkipped,
		}, frec, sharedDurs))
	}
	var seqPeak, seqOut int64
	bestSeq, seqAllocs, seqDurs, err := measureAllocs(r.reps, func() error {
		seqPeak, seqOut = 0, 0
		for _, p := range plans {
			st, err := p.Execute(bytes.NewReader(doc), io.Discard)
			if err != nil {
				return err
			}
			if st.PeakBufferBytes > seqPeak {
				seqPeak = st.PeakBufferBytes
			}
			seqOut += st.OutputBytes
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(sharedRecords, withQuantiles(record{
		Suite: "shared-stream", Query: "xmark-mix", Engine: "flux-sequential",
		Plans: nPlans, DocBytes: len(doc),
		NsPerOp: bestSeq.Nanoseconds(), MBPerS: mbPerS(aggregate, bestSeq),
		AllocsPerOp: seqAllocs, PeakBufferBytes: seqPeak, OutputBytes: seqOut,
		Proj: "fast",
	}, seqDurs)), nil
}
