package faultinj

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"fluxquery/internal/telemetry"
)

func TestDisabledFastPath(t *testing.T) {
	Reset()
	if err := Hit(SiteSpillWrite); err != nil {
		t.Fatalf("disabled Hit: %v", err)
	}
	if n, err := Cut(SiteSpillWrite, 100); n != 100 || err != nil {
		t.Fatalf("disabled Cut = (%d, %v), want (100, nil)", n, err)
	}
	if Hits(SiteSpillWrite) != 0 {
		t.Fatalf("disabled hits counted: %d", Hits(SiteSpillWrite))
	}
}

func TestErrorFault(t *testing.T) {
	Reset()
	defer Reset()
	if err := Arm(SiteSpillRead, Fault{Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	err := Hit(SiteSpillRead)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	if got := Injected(SiteSpillRead); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
	// Other sites stay clean while injection is enabled.
	if err := Hit(SiteBodyRead); err != nil {
		t.Fatalf("unarmed site injected: %v", err)
	}
	if Hits(SiteBodyRead) != 1 {
		t.Fatalf("armed-mode hit not counted: %d", Hits(SiteBodyRead))
	}
	Disarm(SiteSpillRead)
	if err := Hit(SiteSpillRead); err != nil {
		t.Fatalf("disarmed Hit: %v", err)
	}
}

func TestTimesBound(t *testing.T) {
	Reset()
	defer Reset()
	if err := Arm(SiteSpillWrite, Fault{Mode: ModeError, Times: 2}); err != nil {
		t.Fatal(err)
	}
	var failed int
	for i := 0; i < 5; i++ {
		if Hit(SiteSpillWrite) != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("Times=2 fired %d times", failed)
	}
	if got := Injected(SiteSpillWrite); got != 2 {
		t.Fatalf("Injected = %d, want 2", got)
	}
}

func TestLatencyFault(t *testing.T) {
	Reset()
	defer Reset()
	if err := Arm(SiteRingEvent, Fault{Mode: ModeLatency, Latency: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hit(SiteRingEvent); err != nil {
		t.Fatalf("latency Hit errored: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("latency fault returned after %v, want >= 10ms", d)
	}
}

func TestCutShortWrite(t *testing.T) {
	Reset()
	defer Reset()
	if err := Arm(SiteSpillWrite, Fault{Mode: ModeShortWrite}); err != nil {
		t.Fatal(err)
	}
	n, err := Cut(SiteSpillWrite, 64)
	if n != 32 {
		t.Fatalf("Cut truncated to %d, want 32", n)
	}
	if !errors.Is(err, io.ErrShortWrite) || !errors.Is(err, ErrInjected) {
		t.Fatalf("Cut err = %v, want short-write + injected", err)
	}
	// Hit at a non-write site degrades short-write to a plain error.
	if err := Arm(SiteBodyRead, Fault{Mode: ModeShortWrite}); err != nil {
		t.Fatal(err)
	}
	if err := Hit(SiteBodyRead); !errors.Is(err, ErrInjected) {
		t.Fatalf("short-write Hit = %v, want injected error", err)
	}
}

func TestArmSpec(t *testing.T) {
	Reset()
	defer Reset()
	spec := "spill.write:error:1, body.read:latency:1ms, ring.event:shortwrite"
	if err := ArmSpec(spec); err != nil {
		t.Fatal(err)
	}
	if err := Hit(SiteSpillWrite); !errors.Is(err, ErrInjected) {
		t.Fatalf("spec error fault: %v", err)
	}
	if err := Hit(SiteSpillWrite); err != nil {
		t.Fatalf("spec Times=1 fired twice: %v", err)
	}
	if err := Hit(SiteBodyRead); err != nil {
		t.Fatalf("spec latency fault errored: %v", err)
	}
	if err := Hit(SiteRingEvent); !errors.Is(err, ErrInjected) {
		t.Fatalf("spec shortwrite fault: %v", err)
	}
	for _, bad := range []string{"nope:error", "spill.write", "spill.write:maybe", "body.read:latency:fast"} {
		if err := ArmSpec(bad); err == nil {
			t.Fatalf("ArmSpec(%q) accepted", bad)
		}
	}
}

func TestReader(t *testing.T) {
	Reset()
	defer Reset()
	r := &Reader{Site: SiteBodyRead, R: strings.NewReader("abc")}
	buf := make([]byte, 8)
	if n, err := r.Read(buf); n != 3 || err != nil {
		t.Fatalf("clean Read = (%d, %v)", n, err)
	}
	if err := Arm(SiteBodyRead, Fault{Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted Read = %v", err)
	}
}

func TestSitesAndMetrics(t *testing.T) {
	Reset()
	defer Reset()
	want := []string{SiteBodyRead, SiteRingEvent, SiteSpillRead, SiteSpillWrite}
	got := Sites()
	if len(got) != len(want) {
		t.Fatalf("Sites = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites = %v, want %v", got, want)
		}
	}
	reg := telemetry.New()
	RegisterMetrics(reg)
	if err := Arm(SiteSpillRead, Fault{Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	Hit(SiteSpillRead)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `flux_fault_injected_total{site="spill.read"} 1`) {
		t.Fatalf("metrics missing injected series:\n%s", sb.String())
	}
}
