// Command bench is the repo's benchmark: seven named workloads, their
// end-to-end metrics measured with tracing off, and a separate traced run
// giving per-layer metrics. BENCHMARK.json at the root of the repo names
// the metrics, their bounds and the workloads; README.md explains them.
//
// Usage (through bench/run.sh, which builds this command and fluxserve):
//
//	bench [-workload name,...] [-seed N] [-seconds S] [-trace 0|1|both]
//	      [-repeat N] [-out dir] [-json file]
//	bench -compare a.json b.json [-spec BENCHMARK.json]
//
// With one workload and -trace 0 or 1 the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when an output differed from its reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is what -json writes: every run of every requested workload.
type report struct {
	Host    hostStamp   `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    [][]outcome `json:"runs"`
}

func main() {
	var (
		workloads = flag.String("workload", "", "comma-separated workload names (default: all seven)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 8, "length of each timed window")
		trace     = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: the traced ladder run; both")
		repeat    = flag.Int("repeat", 1, "back-to-back repetitions of the whole run, for -compare's spread")
		out       = flag.String("out", "bench/out", "directory for trace files, the fluxserve log and spill segments")
		jsonPath  = flag.String("json", "", "write every outcome to this file")
		fluxserve = flag.String("fluxserve", ".bench_build/fluxserve", "path of the fluxserve binary (bench/run.sh builds it)")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "how long the fluxserve child may take to drain after SIGTERM")
		compare   = flag.Bool("compare", false, "compare two -json files (arguments) against the bounds in -spec")
		specPath  = flag.String("spec", "BENCHMARK.json", "the benchmark contract, for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare wants two files")
		}
		ok, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var chosen []*spec
	if *workloads == "" {
		for i := range specs {
			chosen = append(chosen, &specs[i])
		}
	}
	for _, name := range strings.Split(*workloads, ",") {
		if name == "" {
			continue
		}
		s := specByName(name)
		if s == nil {
			fatal("unknown workload " + name)
		}
		chosen = append(chosen, s)
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal("-trace wants 0, 1 or both")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	e := &env{out: *out, fluxserve: *fluxserve, drainTimeout: *drain, nproc: runtime.NumCPU(), docDiv: 1}
	d := time.Duration(*seconds * float64(time.Second))
	rep := report{Host: stampHost(), Seed: *seed, Seconds: *seconds}
	fmt.Printf("host: %+v seed=%d seconds=%g\n", rep.Host, *seed, *seconds)

	correct := true
	var last *outcome
	for i := 0; i < *repeat; i++ {
		var run []outcome
		// Every end-to-end window first, tracing off; the traced runs
		// follow.
		for _, traced := range modes {
			for _, s := range chosen {
				f := measure
				if traced {
					f = ladder
				}
				o, err := f(s, *seed, d, e)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", s.name, err))
				}
				o.print()
				correct = correct && o.Correct
				run = append(run, *o)
				last = o
			}
		}
		rep.Runs = append(rep.Runs, run)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if len(chosen) == 1 && len(modes) == 1 && *repeat == 1 {
		last.printContract()
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "bench:", v)
	os.Exit(2)
}

// print lists every metric by name with its unit and sample count.
func (o *outcome) print() {
	mode := "end-to-end, tracing off"
	if o.Trace {
		mode = "per layer, traced run"
	}
	fmt.Printf("\n%s (%s): attempted=%d failed=%d failed_ratio=%.4f correct=%v\n",
		o.Workload, mode, o.Attempted, o.Failed, float64(o.Failed)/float64(max(o.Attempted, 1)), o.Correct)
	if o.Error != "" {
		fmt.Printf("  first failure: %s\n", o.Error)
	}
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := o.Metrics[name]
		fmt.Printf("  %-30s %16.6g %-9s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		fmt.Println()
	}
}

// printContract prints the one-line result the driver reads.
func (o *outcome) printContract() {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]value{}}
	for name, m := range o.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", b)
}
