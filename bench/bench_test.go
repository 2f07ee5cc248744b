package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, on tiny documents
// and checks that the names in BENCHMARK.json and the benchmark's output
// cannot drift apart, that span trees are well formed, and that the
// fluxserve child is reaped and leaves nothing behind. The serve legs
// build cmd/fluxserve and are skipped under -short.
func TestSmoke(t *testing.T) {
	var c contract
	if err := loadJSON("../BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}

	out := t.TempDir()
	e := &env{out: out, drainTimeout: 10 * time.Second, nproc: runtime.NumCPU(), docDiv: 20}
	if !testing.Short() {
		e.fluxserve = filepath.Join(out, "fluxserve")
		if b, err := exec.Command("go", "build", "-o", e.fluxserve, "fluxquery/cmd/fluxserve").CombinedOutput(); err != nil {
			t.Fatalf("building fluxserve: %v\n%s", err, b)
		}
	}
	for i := range specs {
		s := &specs[i]
		if s.kind.serve() && testing.Short() {
			continue
		}
		for _, mode := range []struct {
			run   func(*spec, int64, time.Duration, *env) (*outcome, error)
			names []metricSpec
		}{{measure, c.EndToEnd}, {ladder, c.PerLayer}} {
			o, err := mode.run(s, 7, 200*time.Millisecond, e)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if !o.Correct || o.Failed != 0 {
				t.Errorf("%s: correct=%v failed=%d of %d: %s", s.name, o.Correct, o.Failed, o.Attempted, o.Error)
			}
			if len(o.Metrics) != len(mode.names) {
				t.Errorf("%s: %d metrics in the output, %d in BENCHMARK.json", s.name, len(o.Metrics), len(mode.names))
			}
			for _, m := range mode.names {
				if got, ok := o.Metrics[m.Name]; !ok {
					t.Errorf("%s: metric %s of BENCHMARK.json is not in the output", s.name, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", s.name, m.Name, got.Unit, m.Unit)
				}
			}
		}
		checkSpans(t, filepath.Join(out, "trace-"+s.name+".json"))
	}

	if log, err := os.ReadFile(filepath.Join(out, "fluxserve.log")); err == nil {
		started := strings.Count(string(log), "fluxserve: serving DTD")
		drained := strings.Count(string(log), "fluxserve: drained, exiting")
		if started == 0 || started != drained {
			t.Errorf("%d fluxserve children started, %d drained and exited", started, drained)
		}
	} else if !testing.Short() {
		t.Error(err)
	}
	for _, dir := range []string{out, os.TempDir()} {
		if left, _ := filepath.Glob(filepath.Join(dir, "fluxspill-*")); len(left) > 0 {
			t.Errorf("spill directories left behind: %v", left)
		}
	}
}

// checkSpans asserts that children lie inside their parents and share
// their operation, and that every operation has exactly one root.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	var f traceFile
	if err := loadJSON(path, &f); err != nil {
		t.Error(err)
		return
	}
	if len(f.Spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	roots := map[int]int{}
	for i, s := range f.Spans {
		if s.ID != i || s.End < s.Start {
			t.Errorf("%s: span %d: id %d, [%d, %d]", path, i, s.ID, s.Start, s.End)
		}
		if s.Parent < 0 {
			roots[s.Op]++
			continue
		}
		p := f.Spans[s.Parent]
		if s.Op != p.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
	}
	for op, n := range roots {
		if n != 1 {
			t.Errorf("%s: operation %d has %d root spans", path, op, n)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "scan", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "eval", Start: 30, End: 70}, // overlaps scan by 10
		{ID: 3, Parent: 2, Name: "write", Start: 50, End: 60},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"pass": 40, "scan": 30, "eval": 30, "write": 10} {
		if self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, self[name], want)
		}
	}
}
