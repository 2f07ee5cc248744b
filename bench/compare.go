package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, the quartiles as Python's
// statistics.quantiles(values, n=4) gives them. Fewer than two values
// have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	if q(2) == 0 {
		return 0
	}
	return (q(3) - q(1)) / q(2)
}

// endToEnd gathers a report's untraced values per workload and metric,
// and its failed and attempted totals per workload.
func endToEnd(r *report) (vals map[string]map[string][]float64, failed, attempted map[string]int) {
	vals = map[string]map[string][]float64{}
	failed, attempted = map[string]int{}, map[string]int{}
	for _, run := range r.Runs {
		for _, o := range run {
			if o.Trace {
				continue
			}
			if vals[o.Workload] == nil {
				vals[o.Workload] = map[string][]float64{}
			}
			for name, m := range o.Metrics {
				vals[o.Workload][name] = append(vals[o.Workload][name], m.Value)
			}
			failed[o.Workload] += o.Failed
			attempted[o.Workload] += o.Attempted
		}
	}
	return vals, failed, attempted
}

// compareFiles prints, per workload and end-to-end metric, how much worse
// b's median is than a's against the metric's bound. A pair whose
// recorded spread exceeds the bound is unresolved, not unchanged. It
// reports false when any pair is out of bounds or b fails more often.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var c contract
	var a, b report
	if err := errors.Join(loadJSON(specPath, &c), loadJSON(aPath, &a), loadJSON(bPath, &b)); err != nil {
		return false, err
	}
	if a.Host != b.Host || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: the two files differ in host stamp or window length; the comparison is not like for like\n  a: %+v %gs\n  b: %+v %gs\n", a.Host, a.Seconds, b.Host, b.Seconds)
	}
	av, af, aa := endToEnd(&a)
	bv, bf, ba := endToEnd(&b)
	ok := true
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "spread", "verdict")
	for _, wl := range c.Workloads {
		if av[wl.Name] == nil || bv[wl.Name] == nil {
			continue
		}
		for _, m := range c.EndToEnd {
			x, y := av[wl.Name][m.Name], bv[wl.Name][m.Name]
			if len(x) == 0 || len(y) == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from a file", wl.Name, m.Name)
			}
			ma, mb := median(x), median(y)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(x), quartileSpread(y))
			verdict := "within bound"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "OUT OF BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %+8.2f%% %7.1f%% %7.2f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
		ra := float64(af[wl.Name]) / float64(max(aa[wl.Name], 1))
		rb := float64(bf[wl.Name]) / float64(max(ba[wl.Name], 1))
		verdict := "within bound"
		if rb > ra {
			verdict = "OUT OF BOUND"
			ok = false
		}
		fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %38s\n", wl.Name, "failed_ratio", ra, rb, verdict)
	}
	return ok, nil
}
