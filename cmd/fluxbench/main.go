// Command fluxbench regenerates the evaluation tables of EXPERIMENTS.md:
// for every experiment it runs the workload on the flux, projection and
// naive engines and prints the measured runtime and buffer high-water
// mark in the shape the paper reports (who wins, by what factor, and how
// the curves scale).
//
// Usage:
//
//	fluxbench                       # all experiments at default scale
//	fluxbench -exp e1               # one experiment
//	fluxbench -scale 4              # 4x larger documents
//	fluxbench -json out.json        # machine-readable suite results ("-" = stdout)
//	fluxbench -baseline BENCH.json  # diff current MB/s against a committed baseline
//	fluxbench -cpuprofile cpu.prof  # pprof evidence for perf PRs
//	fluxbench -fault sweep          # fault-injection matrix: every site x mode
//	fluxbench -fault spill.write:error:1   # arm one fault spec and run its workloads
//
// With -json, fluxbench skips the tables and instead runs the workload
// catalogue (every case on every engine, plus the shared-stream
// multi-query workload) and writes one JSON record per measurement —
// engine, query, throughput, allocations and peak buffer — so successive
// PRs can record BENCH_*.json trajectory files.
//
// With -baseline, the same catalogue runs and its throughput is compared
// per measurement against the given BENCH_*.json file; the process exits
// non-zero when any shared measurement regresses by more than
// -regress-pct percent MB/s (default 10). Baselines are machine-specific:
// compare only runs from the same class of hardware.
//
// -cpuprofile and -memprofile write pprof profiles covering the measured
// work, so perf PRs can attach evidence of where the time went.
//
// With -fault, fluxbench instead exercises the engine's fault-injection
// sites (internal/faultinj): "-fault sweep" runs every site × mode and
// verifies the failure model (error and short-write faults fail the
// pass cleanly, latency faults do not, the process stays reusable),
// exiting non-zero on any violation; any other value is an ArmSpec
// string ("site:mode[:param]", comma-separated) armed for one run of
// the workloads covering those sites.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fluxquery"
	"fluxquery/internal/unit"
	"fluxquery/internal/workload"
	"fluxquery/internal/xmlgen"
)

var engines = []fluxquery.Engine{fluxquery.EngineFlux, fluxquery.EngineProjection, fluxquery.EngineNaive}

func main() {
	// The work happens in run so that its defers — the pprof writers in
	// particular — complete before the process exits with a failure code
	// (a -baseline regression is exactly when the profiles are wanted).
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment id: e1..e8 or all")
		scale      = flag.Int64("scale", 1, "document size multiplier")
		reps       = flag.Int("reps", 3, "repetitions per measurement (best time reported)")
		jsonPath   = flag.String("json", "", "write machine-readable workload-suite results to this file (\"-\" for stdout) instead of the experiment tables")
		baseline   = flag.String("baseline", "", "diff the current run against this BENCH_*.json file and exit non-zero on regression")
		regressPct = flag.Float64("regress-pct", 10, "MB/s regression threshold (percent) for -baseline")
		normalize  = flag.Bool("normalize", false, "for -baseline: divide every current/baseline ratio by the run's median ratio, cancelling uniform machine-speed differences (use when diffing against a baseline from different hardware)")
		budget     = flag.String("budget", "", "byte budget for the budgeted (spill) suite, e.g. 512K or 64M; empty = half of each workload's natural peak")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the measured work to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile (taken after the measured work) to this file")
		parallel   = flag.Int("parallel", 4, "Parallel setting of the parallel suite's pipelined shared pass (values below 2 mean 4)")
		fault      = flag.String("fault", "", "fault-injection mode: \"sweep\" runs every site x mode; any other value is a faultinj ArmSpec (site:mode[:param], comma-separated) armed for one run")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fluxbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fluxbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fluxbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			goruntime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fluxbench: -memprofile: %v\n", err)
			}
		}()
	}
	budgetBytes, err := unit.ParseBytes(*budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fluxbench: -budget: %v\n", err)
		return 1
	}
	r := &runner{scale: *scale, reps: *reps, budget: budgetBytes, parallel: *parallel, w: os.Stdout}
	if *fault != "" {
		return runFault(r, *fault)
	}
	if *baseline != "" {
		if err := runBaseline(r, *baseline, *regressPct, *normalize); err != nil {
			fmt.Fprintf(os.Stderr, "fluxbench: -baseline: %v\n", err)
			return 1
		}
		return 0
	}
	if *jsonPath != "" {
		if err := runJSON(r, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "fluxbench: -json: %v\n", err)
			return 1
		}
		return 0
	}
	ids := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"}
	if *exp != "all" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		fn, ok := experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "fluxbench: unknown experiment %q\n", id)
			return 1
		}
		if err := fn(r); err != nil {
			fmt.Fprintf(os.Stderr, "fluxbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintln(r.w)
	}
	return 0
}

type runner struct {
	scale int64
	reps  int
	// budget overrides the budgeted suite's byte budget (0 = half of
	// each workload's measured natural peak).
	budget int64
	// parallel is the Parallel setting of the parallel suite's
	// pipelined measurement.
	parallel int
	w        io.Writer
}

type measurement struct {
	time   time.Duration
	stats  fluxquery.Stats
	docLen int
}

// measure runs query on engine over doc, reporting the best of reps runs.
func (r *runner) measure(query, dtdSrc string, doc []byte, o fluxquery.Options) (measurement, error) {
	p := fluxquery.MustCompile(query, dtdSrc, o)
	best := measurement{time: 1 << 62, docLen: len(doc)}
	for i := 0; i < r.reps; i++ {
		start := time.Now()
		st, err := p.Execute(bytes.NewReader(doc), io.Discard)
		if err != nil {
			return best, err
		}
		el := time.Since(start)
		if el < best.time {
			best.time = el
			best.stats = st
		}
	}
	return best, nil
}

func (r *runner) gen(c *workload.Case, size int64) ([]byte, error) {
	var buf bytes.Buffer
	err := c.Gen(&buf, size*r.scale, 42)
	return buf.Bytes(), err
}

func (r *runner) header(title, corresponds string) {
	fmt.Fprintf(r.w, "== %s ==\n", title)
	fmt.Fprintf(r.w, "   (%s)\n", corresponds)
}

func kb(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

var experiments = map[string]func(*runner) error{
	"e1": e1, "e2": e2, "e3": e3, "e4": e4,
	"e5": e5, "e6": e6, "e7": e7, "e8": e8, "e9": e9,
}

var sweep = []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20}

func e1(r *runner) error {
	r.header("E1: peak buffer vs document size — XMP Q3, weak DTD",
		"[8] memory-consumption experiment; flux stays flat, baselines grow linearly")
	c := workload.ByName("xmp-q3-weak")
	fmt.Fprintf(r.w, "%-10s %14s %14s %14s\n", "doc", "flux", "projection", "naive")
	for _, size := range sweep {
		doc, err := r.gen(c, size)
		if err != nil {
			return err
		}
		row := make([]string, len(engines))
		for i, e := range engines {
			m, err := r.measure(c.Query, c.DTD, doc, fluxquery.Options{Engine: e})
			if err != nil {
				return err
			}
			row[i] = kb(m.stats.PeakBufferBytes)
		}
		fmt.Fprintf(r.w, "%-10s %14s %14s %14s\n", kb(int64(len(doc))), row[0], row[1], row[2])
	}
	return nil
}

func e2(r *runner) error {
	r.header("E2: runtime vs document size — XMP Q3, weak DTD",
		"[8] runtime experiment; flux avoids tree construction")
	c := workload.ByName("xmp-q3-weak")
	fmt.Fprintf(r.w, "%-10s %14s %14s %14s\n", "doc", "flux", "projection", "naive")
	for _, size := range sweep {
		doc, err := r.gen(c, size)
		if err != nil {
			return err
		}
		row := make([]string, len(engines))
		for i, e := range engines {
			m, err := r.measure(c.Query, c.DTD, doc, fluxquery.Options{Engine: e})
			if err != nil {
				return err
			}
			row[i] = m.time.Round(time.Microsecond).String()
		}
		fmt.Fprintf(r.w, "%-10s %14s %14s %14s\n", kb(int64(len(doc))), row[0], row[1], row[2])
	}
	return nil
}

func e3(r *runner) error {
	r.header("E3: query suite at 1MB — all workloads, all engines",
		"[8] per-query table: runtime and peak buffer")
	fmt.Fprintf(r.w, "%-18s %-11s %12s %12s\n", "case", "engine", "time", "peak")
	for _, c := range workload.Cases {
		// Join workloads run at 256 KB: nested-loop joins are quadratic
		// on every engine and the comparison shape is size-independent.
		size := int64(1 << 20)
		if c.Join {
			size = 256 << 10
		}
		doc, err := r.gen(&c, size)
		if err != nil {
			return err
		}
		for _, e := range engines {
			m, err := r.measure(c.Query, c.DTD, doc, fluxquery.Options{Engine: e})
			if err != nil {
				return err
			}
			fmt.Fprintf(r.w, "%-18s %-11s %12s %12s\n", c.Name, e,
				m.time.Round(time.Microsecond), kb(m.stats.PeakBufferBytes))
		}
	}
	return nil
}

func e4(r *runner) error {
	r.header("E4: DTD strength — XMP Q3 on weak / mixed / strong DTDs (flux)",
		"paper §2 worked example: order constraints eliminate buffering")
	fmt.Fprintf(r.w, "%-10s %12s %12s %14s\n", "dialect", "time", "peak", "buffered-total")
	for _, dia := range []xmlgen.BibDialect{xmlgen.WeakBib, xmlgen.MixedBib, xmlgen.StrongBib} {
		cfg := xmlgen.BibConfig{Dialect: dia, Seed: 42}
		cfg.Books = xmlgen.SizedBibBooks(cfg, (1<<20)*r.scale)
		var buf bytes.Buffer
		if err := xmlgen.WriteBib(&buf, cfg); err != nil {
			return err
		}
		m, err := r.measure(workload.Q3, dia.DTD(), buf.Bytes(), fluxquery.Options{})
		if err != nil {
			return err
		}
		name := [...]string{"weak", "strong", "mixed"}[dia]
		fmt.Fprintf(r.w, "%-10s %12s %12s %14s\n", name,
			m.time.Round(time.Microsecond), kb(m.stats.PeakBufferBytes), kb(m.stats.BufferedBytesTotal))
	}
	return nil
}

func e5(r *runner) error {
	r.header("E5: loop merging ablation — two loops over $book/publisher (flux)",
		"paper §3.1 cardinality constraint: merged loop halves buffered copies")
	c := workload.ByName("paper-loop-merge")
	doc, err := r.gen(c, 1<<20)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		o    fluxquery.Options
	}{
		{"merged (optimizer on)", fluxquery.Options{}},
		{"unmerged (rule off)", fluxquery.Options{NoLoopMerging: true}},
	}
	fmt.Fprintf(r.w, "%-24s %12s %12s %14s\n", "variant", "time", "peak", "buffered-total")
	for _, row := range rows {
		m, err := r.measure(c.Query, c.DTD, doc, row.o)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.w, "%-24s %12s %12s %14s\n", row.name,
			m.time.Round(time.Microsecond), kb(m.stats.PeakBufferBytes), kb(m.stats.BufferedBytesTotal))
	}
	return nil
}

func e6(r *runner) error {
	r.header("E6: conditional elimination ablation — author+editor conflict (flux)",
		"paper §3.1 language constraint: unsatisfiable branch removed statically")
	c := workload.ByName("paper-conflict")
	doc, err := r.gen(c, 1<<20)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		o    fluxquery.Options
	}{
		{"eliminated (optimizer on)", fluxquery.Options{}},
		{"evaluated (rule off)", fluxquery.Options{NoConditionalElimination: true}},
	}
	fmt.Fprintf(r.w, "%-26s %12s %12s\n", "variant", "time", "peak")
	for _, row := range rows {
		m, err := r.measure(c.Query, c.DTD, doc, row.o)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.w, "%-26s %12s %12s\n", row.name,
			m.time.Round(time.Microsecond), kb(m.stats.PeakBufferBytes))
	}
	return nil
}

func e7(r *runner) error {
	r.header("E7: XMark auction queries — sizes x engines",
		"[8] XMark experiment: lookup, join and listing queries")
	fmt.Fprintf(r.w, "%-18s %-8s %-11s %12s %12s\n", "case", "doc", "engine", "time", "peak")
	for _, name := range []string{"xmark-q1", "xmark-q8-join", "xmark-q13", "xmark-q2-bidders"} {
		c := workload.ByName(name)
		for _, size := range []int64{128 << 10, 512 << 10} {
			doc, err := r.gen(c, size)
			if err != nil {
				return err
			}
			for _, e := range engines {
				m, err := r.measure(c.Query, c.DTD, doc, fluxquery.Options{Engine: e})
				if err != nil {
					return err
				}
				fmt.Fprintf(r.w, "%-18s %-8s %-11s %12s %12s\n", name, kb(int64(len(doc))), e,
					m.time.Round(time.Microsecond), kb(m.stats.PeakBufferBytes))
			}
		}
	}
	return nil
}

func e8(r *runner) error {
	r.header("E8: buffer scaling with book count — XMP Q3, weak DTD",
		"paper §2: flux buffers one book at a time; peak independent of count")
	fmt.Fprintf(r.w, "%-8s %14s %14s %14s\n", "books", "flux", "projection", "naive")
	for _, books := range []int{100, 1000, 10000} {
		var buf bytes.Buffer
		if err := xmlgen.WriteBib(&buf, xmlgen.BibConfig{Dialect: xmlgen.WeakBib, Books: books, Seed: 42}); err != nil {
			return err
		}
		row := make([]string, len(engines))
		for i, e := range engines {
			m, err := r.measure(workload.Q3, xmlgen.WeakBibDTD, buf.Bytes(), fluxquery.Options{Engine: e})
			if err != nil {
				return err
			}
			row[i] = kb(m.stats.PeakBufferBytes)
		}
		fmt.Fprintf(r.w, "%-8d %14s %14s %14s\n", books, row[0], row[1], row[2])
	}
	return nil
}

func e9(r *runner) error {
	r.header("E9: BDF buffer projection ablation — isbn-only vs full info buffers (flux)",
		"paper §3.2: the BDF buffers only the paths the query employs, improving on [10]")
	c := workload.ByName("bdf-projection")
	doc, err := r.gen(c, 1<<20)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		o    fluxquery.Options
	}{
		{"projected (BDF on)", fluxquery.Options{}},
		{"full buffers ([10]-style)", fluxquery.Options{NoBufferProjection: true}},
	}
	fmt.Fprintf(r.w, "%-26s %12s %12s %14s\n", "variant", "time", "peak", "buffered-total")
	for _, row := range rows {
		m, err := r.measure(c.Query, c.DTD, doc, row.o)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.w, "%-26s %12s %12s %14s\n", row.name,
			m.time.Round(time.Microsecond), kb(m.stats.PeakBufferBytes), kb(m.stats.BufferedBytesTotal))
	}
	return nil
}

// sortedIDs lists experiment ids for -h output.
func sortedIDs() string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}
