// Command fluxquery runs XQuery over an XML document stream using the
// FluXQuery engine (or one of the baseline engines), optionally explaining
// the compilation pipeline. Several queries may be given with repeated -q
// flags; they are then evaluated over the input in a single shared
// tokenize+validate pass (the multi-query engine).
//
// With GOMAXPROCS >= 2 the flux engine runs its pass pipelined:
// tokenizer, validator and evaluators on separate goroutines connected
// by bounded batch rings, with output byte-identical to the sequential
// pass. GOMAXPROCS=1 selects the sequential single-goroutine pass.
//
// Usage:
//
//	fluxquery -dtd bib.dtd -query 'query text' [-in doc.xml] [-out result.xml]
//	fluxquery -dtd bib.dtd -queryfile q.xq -engine naive -stats
//	fluxquery -dtd bib.dtd -q q1.xq -q q2.xq -q q3.xq -in doc.xml -stats
//	fluxquery -dtd bib.dtd -queryfile q.xq -explain
//	fluxquery -dtd bib.dtd -validate -in doc.xml
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fluxquery"
)

func main() {
	var (
		dtdPath    = flag.String("dtd", "", "path to the DTD file (default: DOCTYPE internal subset of the input)")
		queryText  = flag.String("query", "", "query text")
		queryFile  = flag.String("queryfile", "", "path to a query file")
		inPath     = flag.String("in", "", "input document (default stdin)")
		outPath    = flag.String("out", "", "output stream (default stdout)")
		engineName = flag.String("engine", "flux", "engine: flux, projection or naive")
		explain    = flag.Bool("explain", false, "print the compilation pipeline instead of executing")
		stats      = flag.Bool("stats", false, "print execution statistics to stderr")
		validate   = flag.Bool("validate", false, "only validate the input against the DTD")
		noOpt      = flag.Bool("no-optimizer", false, "disable the algebraic optimizer")
		projMode   = flag.String("proj", "fast", "stream projection: fast (bulk-skip irrelevant subtrees), validate (skip delivery, full validation) or off")
		trace      = flag.Bool("trace", false, "print the execution's span timeline (scan/eval phases, stalls, ring peaks) to stderr")
	)
	var queryFiles multiFlag
	flag.Var(&queryFiles, "q", "path to a query file; repeat to evaluate several queries in one shared pass")
	flag.Parse()
	if err := run(options{
		dtdPath:    *dtdPath,
		queryText:  *queryText,
		queryFile:  *queryFile,
		queryFiles: queryFiles,
		inPath:     *inPath,
		outPath:    *outPath,
		engineName: *engineName,
		explain:    *explain,
		stats:      *stats,
		validate:   *validate,
		noOpt:      *noOpt,
		projMode:   *projMode,
		trace:      *trace,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "fluxquery:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

type options struct {
	dtdPath    string
	queryText  string
	queryFile  string
	queryFiles []string
	inPath     string
	outPath    string
	engineName string
	explain    bool
	stats      bool
	validate   bool
	noOpt      bool
	projMode   string
	trace      bool
}

func run(o options) error {
	var in io.Reader = os.Stdin
	if o.inPath != "" {
		f, err := os.Open(o.inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	var d *fluxquery.DTD
	if o.dtdPath != "" {
		dtdSrc, err := os.ReadFile(o.dtdPath)
		if err != nil {
			return err
		}
		d, err = fluxquery.ParseDTD(string(dtdSrc))
		if err != nil {
			return err
		}
	} else {
		// Without -dtd, read the schema from the document's DOCTYPE
		// internal subset. The whole input is buffered so it can be
		// replayed for execution.
		buf, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		d, err = fluxquery.DTDFromDocument(bytes.NewReader(buf))
		if err != nil {
			return fmt.Errorf("no -dtd given and %v", err)
		}
		in = bytes.NewReader(buf)
	}

	if o.validate {
		if err := d.Validate(in); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "valid")
		return nil
	}

	// Collect queries: -query / -queryfile define the single-query path,
	// repeated -q flags the shared-stream path.
	type namedQuery struct {
		name string
		text string
	}
	var queries []namedQuery
	switch {
	case o.queryText != "":
		// -query wins over -queryfile, as it always has.
		queries = append(queries, namedQuery{name: "query", text: o.queryText})
	case o.queryFile != "":
		b, err := os.ReadFile(o.queryFile)
		if err != nil {
			return err
		}
		queries = append(queries, namedQuery{name: o.queryFile, text: string(b)})
	}
	for _, path := range o.queryFiles {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		queries = append(queries, namedQuery{name: path, text: string(b)})
	}
	if len(queries) == 0 {
		return fmt.Errorf("provide -query, -queryfile or -q")
	}

	engine, err := fluxquery.ParseEngine(o.engineName)
	if err != nil {
		return err
	}
	if o.projMode == "" {
		o.projMode = "fast"
	}
	projection, err := fluxquery.ParseProjection(o.projMode)
	if err != nil {
		return err
	}
	// Reject the invalid combination before compiling anything and —
	// crucially — before -out truncates an existing file.
	if len(queries) > 1 && engine != fluxquery.EngineFlux {
		return fmt.Errorf("multiple queries require -engine flux (shared event streams)")
	}
	plans := make([]*fluxquery.Plan, len(queries))
	for i, nq := range queries {
		q, err := fluxquery.ParseQuery(nq.text)
		if err != nil {
			return fmt.Errorf("%s: %w", nq.name, err)
		}
		plans[i], err = fluxquery.Compile(q, d, fluxquery.Options{
			Engine:           engine,
			DisableOptimizer: o.noOpt,
			Projection:       projection,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", nq.name, err)
		}
	}

	if o.explain {
		for i, p := range plans {
			if len(plans) > 1 {
				fmt.Printf("== query %s ==\n", queries[i].name)
			}
			fmt.Println(p.Explain())
		}
		return nil
	}

	var out io.Writer = os.Stdout
	if o.outPath != "" {
		f, err := os.Create(o.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	printStats := func(name string, st fluxquery.Stats, elapsed time.Duration) {
		fmt.Fprintf(os.Stderr, "query=%s engine=%s time=%v events=%d peak-buffer=%dB buffered-total=%dB output=%dB skipped=%d firings=%d\n",
			name, st.Engine, elapsed.Round(time.Microsecond), st.Events,
			st.PeakBufferBytes, st.BufferedBytesTotal, st.OutputBytes,
			st.SkippedSubtrees, st.HandlerFirings)
		if st.ScanEventsDelivered > 0 || st.ScanEventsSkipped > 0 {
			fmt.Fprintf(os.Stderr, "query=%s proj=%s scan-delivered=%d scan-skipped=%d scan-subtrees=%d scan-bytes-skipped=%d\n",
				name, o.projMode, st.ScanEventsDelivered, st.ScanEventsSkipped,
				st.ScanSubtreesSkipped, st.ScanBytesSkipped)
		}
	}

	if len(plans) == 1 {
		start := time.Now()
		var st fluxquery.Stats
		if o.trace {
			var tr *fluxquery.Trace
			st, tr, err = plans[0].ExecuteTrace(in, out, queries[0].name)
			if err != nil {
				return err
			}
			tr.WriteTree(os.Stderr)
		} else {
			st, err = plans[0].Execute(in, out)
			if err != nil {
				return err
			}
		}
		if o.stats {
			printStats(queries[0].name, st, time.Since(start))
		}
		return nil
	}

	// Several queries: one shared tokenize+validate pass over the input.
	// Each query's result streams into its own buffer (results would
	// interleave on a shared writer); they are emitted in query order,
	// separated by a comment naming the query.
	set := fluxquery.NewStreamSet(d)
	set.SetProjection(projection)
	set.SetTracing(o.trace, "cli")
	outs := make([]*bytes.Buffer, len(plans))
	regs := make([]*fluxquery.StreamQuery, len(plans))
	for i, p := range plans {
		outs[i] = &bytes.Buffer{}
		regs[i], err = set.RegisterNamed(p, outs[i], queries[i].name)
		if err != nil {
			return fmt.Errorf("%s: %w", queries[i].name, err)
		}
	}
	start := time.Now()
	if err := set.Run(in); err != nil {
		return err
	}
	elapsed := time.Since(start)
	if o.trace {
		set.LastTrace().WriteTree(os.Stderr)
	}
	var firstErr error
	for i := range plans {
		st, qerr := regs[i].Stats()
		if qerr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", queries[i].name, qerr)
			}
			fmt.Fprintf(os.Stderr, "fluxquery: %s: %v\n", queries[i].name, qerr)
			continue
		}
		fmt.Fprintf(out, "<!-- query: %s -->\n", queries[i].name)
		if _, err := out.Write(outs[i].Bytes()); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if o.stats {
			printStats(queries[i].name, st, elapsed)
		}
	}
	if o.stats {
		sc := set.LastScan()
		fmt.Fprintf(os.Stderr, "shared-pass proj=%s passes=%d scan-delivered=%d scan-skipped=%d scan-subtrees=%d scan-bytes-skipped=%d\n",
			o.projMode, sc.Passes, sc.EventsDelivered, sc.EventsSkipped, sc.SubtreesSkipped, sc.BytesSkipped)
		if ps := set.LastPass(); ps.Parallel >= 2 {
			fmt.Fprintf(os.Stderr, "shared-pass parallel=%d batches=%d tok-stall=%v val-stall=%v disp-stall=%v ring-peak=%d/%d\n",
				ps.Parallel, ps.Batches,
				ps.TokenizeStall.Round(time.Microsecond), ps.ValidateStall.Round(time.Microsecond),
				ps.DispatchStall.Round(time.Microsecond), ps.TokenRingPeak, ps.EventRingPeak)
		}
	}
	return firstErr
}
