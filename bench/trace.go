package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer was made. Spans of
// one operation share Op; Parent is the ID of the span that caused this
// one, or -1 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op opens the root span of a new operation.
func (t *tracer) op(name string) int { return t.child(name, -1) }

// child opens a span caused by parent, in parent's operation.
func (t *tracer) child(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.ops
	if parent >= 0 {
		op = t.spans[parent].Op
	} else {
		t.ops++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range ks {
			from, to := max(k.Start, upto), min(k.End, s.End)
			if to > from {
				covered += to - from
				upto = to
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// traceFile is what <out>/trace-<workload>.json holds.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Host     hostStamp `json:"host"`
	Spans    []span    `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: stampHost(), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
