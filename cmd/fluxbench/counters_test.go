package main

// TestCounters pins what a pass does, as opposed to how fast: output
// bytes and their hash, scan events delivered and skipped, bytes the
// tokenizer bulk-skipped, buffer and spill traffic, and allocations per
// pass. The counters are exact on any host, so the golden file holds
// exact values and a change that moves one shows up here on any
// machine, where a timing diff would drown it in noise. Speed is judged
// by the paired runs of bench/.
//
// Counters must match exactly. Allocations are measured with
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 so the pass runs
// sequentially whatever the host's width. They follow the compiler's
// escape analysis and the runtime's map and pool code, so they are
// compared only on the Go release the golden file names (go_version),
// within 1 % or 3 allocations, whichever is larger; on any other
// release, and under -race (sync.Pool drops items at random there),
// they are not compared. The 1 % is wide on the large passes: one
// allocation per event on xmp-q5-join (4,758 events, ~725 k allocs)
// stays inside it. On a mismatch the test prints the full observed
// record: a change that moves a counter on purpose replaces
// testdata/counters.json with it by hand, and says in CHANGES.md which
// counters moved and why.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"

	"fluxquery"
	"fluxquery/internal/workload"
)

const countersGolden = "testdata/counters.json"

// counterDocBytes is the size of every generated document (seed 42).
const counterDocBytes = 64 << 10

// setQueries are the seven non-join XMark queries of bench/'s multi-7q
// workload, riding one StreamSet.
var setQueries = []string{
	"xmark-q1", "xmark-q13", "xmark-q2-bidders", "xmark-q17-nophone",
	"xmark-q20-cities", "xmark-q4-sellers", "xmark-q11-bids",
}

// countersFile is the golden file: the Go release its allocation counts
// were recorded with, and one record per pass.
type countersFile struct {
	GoVersion string         `json:"go_version"`
	Passes    []passCounters `json:"passes"`
}

// passCounters is the exact record of one pass.
type passCounters struct {
	Name               string `json:"name"`
	OutputBytes        int64  `json:"output_bytes,omitempty"`
	OutputSHA256       string `json:"output_sha256,omitempty"`
	EventsDelivered    int64  `json:"events_delivered"`
	EventsSkipped      int64  `json:"events_skipped"`
	BytesSkipped       int64  `json:"bytes_skipped"`
	PeakBufferBytes    int64  `json:"peak_buffer_bytes,omitempty"`
	BufferedBytesTotal int64  `json:"buffered_bytes_total,omitempty"`
	// Spill passes: the budget (half the natural peak) and its traffic.
	Budget              int64 `json:"budget,omitempty"`
	SpilledBytes        int64 `json:"spilled_bytes,omitempty"`
	RehydratedBytes     int64 `json:"rehydrated_bytes,omitempty"`
	PeakHeapBufferBytes int64 `json:"peak_heap_buffer_bytes,omitempty"`
	// Registrations is the StreamSet pass's per-query record.
	Registrations []regCounters `json:"registrations,omitempty"`
	// Allocs is heap allocations per pass; the one tolerant field.
	Allocs int64 `json:"allocs"`
}

type regCounters struct {
	Query           string `json:"query"`
	OutputBytes     int64  `json:"output_bytes"`
	OutputSHA256    string `json:"output_sha256"`
	PeakBufferBytes int64  `json:"peak_buffer_bytes"`
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// allocsPerPass measures fn's allocations, or returns 0 under -race.
func allocsPerPass(t *testing.T, fn func() error) int64 {
	t.Helper()
	if raceEnabled {
		return 0
	}
	var err error
	n := testing.AllocsPerRun(3, func() {
		if e := fn(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return int64(n)
}

// planCounters runs p over doc once at the host's GOMAXPROCS for the
// counters, then measures its allocations.
func planCounters(t *testing.T, name string, p *fluxquery.Plan, doc []byte) (passCounters, fluxquery.Stats) {
	t.Helper()
	h := sha256.New()
	st, err := p.Execute(bytes.NewReader(doc), h)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pc := passCounters{
		Name:               name,
		OutputBytes:        st.OutputBytes,
		OutputSHA256:       sum(h),
		EventsDelivered:    st.ScanEventsDelivered,
		EventsSkipped:      st.ScanEventsSkipped,
		BytesSkipped:       st.ScanBytesSkipped,
		PeakBufferBytes:    st.PeakBufferBytes,
		BufferedBytesTotal: st.BufferedBytesTotal,
	}
	pc.Allocs = allocsPerPass(t, func() error {
		_, err := p.Execute(bytes.NewReader(doc), io.Discard)
		return err
	})
	return pc, st
}

// observeCounters runs every pass of the golden file, in its order.
func observeCounters(t *testing.T) []passCounters {
	r := &runner{scale: 1, reps: 1, w: io.Discard}
	var out []passCounters

	peaks := map[string]int64{}
	for i := range workload.Cases {
		c := &workload.Cases[i]
		doc, err := r.gen(c, counterDocBytes)
		if err != nil {
			t.Fatal(err)
		}
		pc, st := planCounters(t, c.Name, fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{}), doc)
		peaks[c.Name] = st.PeakBufferBytes
		out = append(out, pc)
	}

	for _, name := range []string{"xmp-q4-distinct", "xmark-q8-join"} {
		c := workload.ByName(name)
		doc, err := r.gen(c, counterDocBytes)
		if err != nil {
			t.Fatal(err)
		}
		budget := peaks[name] / 2
		p := fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{
			BufferBudget: budget,
			BufferPolicy: fluxquery.BufferSpill,
		})
		pc, st := planCounters(t, name+"/spill", p, doc)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		pc.Budget = budget
		pc.SpilledBytes, pc.RehydratedBytes, pc.PeakHeapBufferBytes = st.SpilledBytes, st.RehydratedBytes, st.PeakHeapBufferBytes
		out = append(out, pc)
	}

	return append(out, setCounters(t, r))
}

// setCounters runs the seven XMark queries on one StreamSet.
func setCounters(t *testing.T, r *runner) passCounters {
	base := workload.ByName(setQueries[0])
	doc, err := r.gen(base, counterDocBytes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fluxquery.ParseDTD(base.DTD)
	if err != nil {
		t.Fatal(err)
	}
	set := fluxquery.NewStreamSet(d)
	hashes := make([]hash.Hash, len(setQueries))
	regs := make([]*fluxquery.StreamQuery, len(setQueries))
	for i, name := range setQueries {
		c := workload.ByName(name)
		hashes[i] = sha256.New()
		if regs[i], err = set.Register(fluxquery.MustCompile(c.Query, c.DTD, fluxquery.Options{}), hashes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Run(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	sc := set.LastScan()
	pc := passCounters{
		Name:            "multi-7q",
		EventsDelivered: sc.EventsDelivered,
		EventsSkipped:   sc.EventsSkipped,
		BytesSkipped:    sc.BytesSkipped,
	}
	for i, reg := range regs {
		st, err := reg.Stats()
		if err != nil {
			t.Fatal(err)
		}
		pc.Registrations = append(pc.Registrations, regCounters{
			Query:           setQueries[i],
			OutputBytes:     st.OutputBytes,
			OutputSHA256:    sum(hashes[i]),
			PeakBufferBytes: st.PeakBufferBytes,
		})
	}
	// The allocation runs hash on into the writers; the sums are taken.
	pc.Allocs = allocsPerPass(t, func() error { return set.Run(bytes.NewReader(doc)) })
	return pc
}

func TestCounters(t *testing.T) {
	raw, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden countersFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", countersGolden, err)
	}
	checkAllocs := !raceEnabled && runtime.Version() == golden.GoVersion
	if !checkAllocs {
		t.Logf("allocations not compared: %s was recorded with %s, this is %s (race=%v)",
			countersGolden, golden.GoVersion, runtime.Version(), raceEnabled)
	}
	observed := countersFile{GoVersion: runtime.Version(), Passes: observeCounters(t)}
	if raceEnabled {
		// Not measured under -race: the printed record carries the
		// golden allocations and release so it stays a valid replacement.
		observed.GoVersion = golden.GoVersion
	}

	bad := len(observed.Passes) != len(golden.Passes)
	if bad {
		t.Errorf("observed %d passes, %s holds %d", len(observed.Passes), countersGolden, len(golden.Passes))
	}
	for i := 0; i < len(observed.Passes) && i < len(golden.Passes); i++ {
		obs, want := observed.Passes[i], golden.Passes[i]
		if raceEnabled {
			observed.Passes[i].Allocs = want.Allocs
		}
		gotAllocs, wantAllocs := obs.Allocs, want.Allocs
		obs.Allocs, want.Allocs = 0, 0
		if !reflect.DeepEqual(obs, want) {
			bad = true
			t.Errorf("%s: counters moved\n got:  %s\n want: %s", want.Name, compact(t, obs), compact(t, want))
			continue
		}
		if !checkAllocs {
			continue
		}
		if tol := max(wantAllocs/100, 3); gotAllocs < wantAllocs-tol || gotAllocs > wantAllocs+tol {
			bad = true
			t.Errorf("%s: %d allocs per pass, want %d ± %d", want.Name, gotAllocs, wantAllocs, tol)
		}
	}
	if bad {
		full, err := json.MarshalIndent(observed, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Errorf("observed counters; if the change is intended, replace %s with:\n%s", countersGolden, full)
	}
}

func compact(t *testing.T, pc passCounters) string {
	b, err := json.Marshal(pc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
