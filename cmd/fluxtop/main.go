// Command fluxtop is a live terminal dashboard over a running
// fluxserve instance. It polls the server's observability endpoints —
// GET /stats, GET /debug/passes (flight recorder) and GET /top (cost
// ledger) — and renders throughput, per-stage stall bars, ingest-pool
// depth, the most expensive registered queries and the recent pass
// history, refreshing in place.
//
// Usage:
//
//	fluxtop [-addr http://localhost:8080] [-interval 2s]
//	        [-axis cpu|events|bytes|buffer|errors|passes] [-k 10]
//	        [-n 10] [-once]
//
// -once fetches a single snapshot, prints it without terminal control
// sequences and exits — suitable for scripts and smoke tests. In live
// mode fluxtop redraws every -interval until interrupted.
//
// fluxtop depends only on the standard library and the fluxquery
// module's public record types; it degrades gracefully when the server
// runs with the flight recorder disabled (-flightrec 0) or has no pool
// bound, showing whatever endpoints respond.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"fluxquery"
)

// passesDoc mirrors fluxserve's GET /debug/passes response.
type passesDoc struct {
	Total    uint64                          `json:"total"`
	Retained int                             `json:"retained"`
	Capacity int                             `json:"capacity"`
	Rollups  map[string]fluxquery.PassRollup `json:"rollups"`
	Passes   []fluxquery.PassRecord          `json:"passes"`
}

// topDoc mirrors fluxserve's GET /top response.
type topDoc struct {
	Axis    string                 `json:"axis"`
	Axes    []string               `json:"axes"`
	Queries []fluxquery.QueryStats `json:"queries"`
}

// statsDoc mirrors the subset of GET /stats the dashboard shows.
type statsDoc struct {
	State string `json:"state"`
	Build struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
		Revision  string `json:"revision"`
	} `json:"build"`
	UptimeSeconds int64 `json:"uptime_seconds"`
	Evals         int64 `json:"evals"`
	Pool          *struct {
		Capacity int   `json:"capacity"`
		InFlight int   `json:"in_flight"`
		Rejected int64 `json:"rejected"`
	} `json:"pool,omitempty"`
}

// snapshot is one poll of the server: whichever endpoints answered,
// plus degradation flags for the ones that are off.
type snapshot struct {
	Stats       statsDoc
	Top         topDoc
	Passes      passesDoc
	RecorderOff bool
}

type client struct {
	base string
	http *http.Client
}

// getJSON fetches one endpoint into v and returns the HTTP status
// (0 on transport failure).
func (c *client) getJSON(path string, v any) (int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// fetch polls all dashboard endpoints. /stats must answer (it carries
// liveness); a 404 from /debug/passes means the recorder is disabled
// and is reported, not fatal.
func (c *client) fetch(axis string, k, n int) (*snapshot, error) {
	s := &snapshot{}
	if _, err := c.getJSON("/stats", &s.Stats); err != nil {
		return nil, err
	}
	status, err := c.getJSON(fmt.Sprintf("/debug/passes?n=%d", n), &s.Passes)
	if err != nil {
		if status != http.StatusNotFound {
			return nil, err
		}
		s.RecorderOff = true
	}
	if _, err := c.getJSON(fmt.Sprintf("/top?axis=%s&k=%d", axis, k), &s.Top); err != nil {
		return nil, err
	}
	return s, nil
}

// bar renders frac (clamped to [0,1]) as a fixed-width block gauge.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", full) + strings.Repeat("░", width-full)
}

// fmtDur prints a duration at dashboard precision: three significant
// units max, sub-second values in ms/µs.
func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return d.Truncate(time.Second).String()
	}
}

// fmtBytes prints a byte count in binary units.
func fmtBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	}
}

// render writes one full dashboard frame.
func render(w io.Writer, addr string, s *snapshot) {
	st := s.Stats
	fmt.Fprintf(w, "fluxserve %s  state=%s  up %s  %s (%s, rev %s)  evals=%d\n",
		addr, st.State, fmtDur(time.Duration(st.UptimeSeconds)*time.Second),
		st.Build.Version, st.Build.GoVersion, st.Build.Revision, st.Evals)

	if st.Pool != nil && st.Pool.Capacity > 0 {
		frac := float64(st.Pool.InFlight) / float64(st.Pool.Capacity)
		fmt.Fprintf(w, "pool  [%s] %d/%d in flight, %d rejected\n",
			bar(frac, 20), st.Pool.InFlight, st.Pool.Capacity, st.Pool.Rejected)
	}

	if s.RecorderOff {
		fmt.Fprintf(w, "\nflight recorder disabled (-flightrec 0): no pass history\n")
	} else {
		p := s.Passes
		fmt.Fprintf(w, "passes total=%d retained=%d/%d\n", p.Total, p.Retained, p.Capacity)

		fmt.Fprintf(w, "\n%-4s %7s %6s %5s %9s %9s %9s %9s %9s\n",
			"win", "passes", "errors", "slow", "MB/s", "p50", "p95", "p99", "stall")
		for _, win := range []string{"1m", "5m", "all"} {
			ru, ok := p.Rollups[win]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-4s %7d %6d %5d %9.1f %9s %9s %9s %9s\n",
				win, ru.Passes, ru.Errors, ru.Slow, ru.MBps,
				fmtDur(ru.P50), fmtDur(ru.P95), fmtDur(ru.P99), fmtDur(ru.StallTotal))
		}

		if len(p.Passes) > 0 {
			last := p.Passes[0]
			fmt.Fprintf(w, "\nlast pass stalls (of %s wall)\n", fmtDur(last.Duration))
			for _, stage := range []struct {
				name  string
				stall time.Duration
			}{
				{"scan", last.ScanStall},
				{"dispatch", last.DispatchStall},
				{"gate", last.GateStall},
			} {
				frac := 0.0
				if last.Duration > 0 {
					frac = float64(stage.stall) / float64(last.Duration)
				}
				fmt.Fprintf(w, "  %-8s [%s] %s\n", stage.name, bar(frac, 20), fmtDur(stage.stall))
			}
		}
	}

	fmt.Fprintf(w, "\ntop queries by %s\n", s.Top.Axis)
	if len(s.Top.Queries) == 0 {
		fmt.Fprintf(w, "  (no query has been evaluated yet)\n")
	} else {
		fmt.Fprintf(w, "%-3s %-20s %7s %10s %10s %10s %10s %6s\n",
			"#", "query", "passes", "cpu", "events", "output", "buf peak", "errors")
		for i, q := range s.Top.Queries {
			name := q.Name
			if len(name) > 20 {
				name = name[:17] + "..."
			}
			fmt.Fprintf(w, "%-3d %-20s %7d %10s %10d %10s %10s %6d\n",
				i+1, name, q.Passes, fmtDur(q.EvalCPU), q.Events,
				fmtBytes(q.OutputBytes), fmtBytes(q.PeakBufferBytes), q.Errors)
		}
	}

	if !s.RecorderOff && len(s.Passes.Passes) > 0 {
		// Slow and failed passes surface first; within each class the
		// snapshot is already most-recent-first.
		recs := append([]fluxquery.PassRecord(nil), s.Passes.Passes...)
		sort.SliceStable(recs, func(i, j int) bool {
			wi := recs[i].Slow || recs[i].Err != ""
			wj := recs[j].Slow || recs[j].Err != ""
			return wi && !wj
		})
		fmt.Fprintf(w, "\nrecent passes\n")
		fmt.Fprintf(w, "%-8s %-16s %9s %9s %9s %6s  %s\n",
			"pass", "request", "dur", "MB/s", "stall", "plans", "note")
		for _, r := range recs {
			note := ""
			switch {
			case r.Err != "":
				note = "ERR " + r.Err
			case r.Slow:
				note = "SLOW"
			}
			if r.CancelReason != "" {
				note += " (" + r.CancelReason + ")"
			}
			reqID := r.RequestID
			if len(reqID) > 16 {
				reqID = reqID[:13] + "..."
			}
			fmt.Fprintf(w, "%-8d %-16s %9s %9.1f %9s %6d  %s\n",
				r.PassID, reqID, fmtDur(r.Duration), r.MBps, fmtDur(r.TotalStall()), r.Plans, note)
		}
	}
}

// run drives the dashboard: one frame in -once mode, a redraw loop
// otherwise, until ctx is cancelled.
func run(ctx context.Context, out io.Writer, addr, axis string, k, n int, interval time.Duration, once bool) error {
	c := &client{base: strings.TrimRight(addr, "/"), http: &http.Client{Timeout: 10 * time.Second}}
	frame := func() error {
		s, err := c.fetch(axis, k, n)
		if err != nil {
			return err
		}
		var buf strings.Builder
		if !once {
			buf.WriteString("\x1b[H\x1b[2J") // cursor home + clear
		}
		render(&buf, c.base, s)
		_, err = io.WriteString(out, buf.String())
		return err
	}
	if err := frame(); err != nil {
		return err
	}
	if once {
		return nil
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(out)
			return nil
		case <-tick.C:
			if err := frame(); err != nil {
				// A transient poll failure (server draining, restart)
				// keeps the loop alive; the error is shown in place.
				fmt.Fprintf(out, "\x1b[H\x1b[2Jfluxtop: %v (retrying every %s)\n", err, interval)
			}
		}
	}
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of the fluxserve instance")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval in live mode")
	axis := flag.String("axis", "cpu", "cost axis for the top-queries table (cpu|events|bytes|buffer|errors|passes)")
	k := flag.Int("k", 10, "number of queries in the top table")
	n := flag.Int("n", 10, "number of recent passes to show")
	once := flag.Bool("once", false, "print a single snapshot without terminal control sequences and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, *addr, *axis, *k, *n, *interval, *once); err != nil {
		fmt.Fprintf(os.Stderr, "fluxtop: %v\n", err)
		os.Exit(1)
	}
}
