package main

import (
	"strings"
	"testing"
)

// TestExperimentsProduceTables runs the cheap experiments end to end and
// checks their table structure; E1–E3 and E7 share all code paths with
// E4/E5/E8 but sweep larger documents, so they are exercised by the
// bench suite instead.
func TestExperimentsProduceTables(t *testing.T) {
	var sb strings.Builder
	r := &runner{scale: 1, reps: 1, w: &sb}
	if err := e4(r); err != nil {
		t.Fatal(err)
	}
	if err := e5(r); err != nil {
		t.Fatal(err)
	}
	if err := e6(r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"E4: DTD strength", "weak", "strong",
		"E5: loop merging", "merged (optimizer on)",
		"E6: conditional elimination", "eliminated (optimizer on)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The strong dialect row must report 0B peak.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "strong") && !strings.Contains(line, "0B") {
			t.Errorf("strong DTD row should be bufferless: %s", line)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"} {
		if experiments[id] == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if got := strings.Join(sortedIDs(), ","); got != "e1,e2,e3,e4,e5,e6,e7,e8,e9" {
		t.Errorf("sortedIDs = %s", got)
	}
}
