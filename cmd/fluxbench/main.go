// Command fluxbench regenerates the paper's evaluation tables, E1–E9:
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
//	fluxbench -fault sweep          # fault-injection matrix: every site x mode
//	fluxbench -fault spill.write:error:1   # arm one fault spec and run its workloads
//
// The tables are for reading the paper's shapes, not for gating a change:
// throughput and latency are measured by the paired runs of bench/, and
// the exact per-pass counters (output, events, buffer and spill bytes,
// allocations) are pinned by TestCounters against testdata/counters.json.
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
	"sort"
	"strings"
	"time"

	"fluxquery"
	"fluxquery/internal/workload"
	"fluxquery/internal/xmlgen"
)

var engines = []fluxquery.Engine{fluxquery.EngineFlux, fluxquery.EngineProjection, fluxquery.EngineNaive}

func main() {
	os.Exit(run())
}

func run() int {
	known := strings.Join(sortedIDs(), ", ")
	var (
		exp   = flag.String("exp", "all", "experiment id: "+known+", or all")
		scale = flag.Int64("scale", 1, "document size multiplier")
		reps  = flag.Int("reps", 3, "repetitions per measurement (best time reported)")
		fault = flag.String("fault", "", "fault-injection mode: \"sweep\" runs every site x mode; any other value is a faultinj ArmSpec (site:mode[:param], comma-separated) armed for one run")
	)
	flag.Parse()
	r := &runner{scale: *scale, reps: *reps, w: os.Stdout}
	if *fault != "" {
		return runFault(r, *fault)
	}
	ids := sortedIDs()
	if *exp != "all" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		fn, ok := experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "fluxbench: unknown experiment %q (want %s, or all)\n", id, known)
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
	w     io.Writer
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

// sortedIDs lists the experiment ids in run order; it feeds the -exp
// help, the "all" run and the unknown-experiment error.
func sortedIDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
