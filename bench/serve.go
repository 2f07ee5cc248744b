package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is what a run needs from its surroundings.
type env struct {
	out          string        // directory for traces, logs and spill segments
	fluxserve    string        // path of the fluxserve binary
	drainTimeout time.Duration // how long a SIGTERMed child may drain
	nproc        int           // load-generating goroutines/connections
	docDiv       int64         // divides every document size; 1 outside the smoke test
}

// child is a running fluxserve process with the workload's queries
// registered.
type child struct {
	cmd    *exec.Cmd
	exited chan error
	log    *os.File
	base   string // http://127.0.0.1:port
	debug  string // the -debug-addr listener, for GC statistics
	client *http.Client
	drain  time.Duration
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild starts fluxserve with its defaults on a free loopback port,
// waits for /healthz and registers the queries. The child's output goes
// to a file, never to a pipe the benchmark would have to drain.
func startChild(e *env, dtdSrc string, queries []namedQuery) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	dtdPath := filepath.Join(e.out, "served.dtd")
	if err := os.WriteFile(dtdPath, []byte(dtdSrc), 0o644); err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(e.out, "fluxserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c := &child{
		exited: make(chan error, 1),
		log:    log,
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		debug:  "http://127.0.0.1:" + strconv.Itoa(dport),
		drain:  e.drainTimeout,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     e.nproc,
			MaxIdleConnsPerHost: e.nproc,
		}},
	}
	c.cmd = exec.Command(e.fluxserve, "-dtd", dtdPath,
		"-addr", strings.TrimPrefix(c.base, "http://"),
		"-debug-addr", strings.TrimPrefix(c.debug, "http://"))
	c.cmd.Stdout, c.cmd.Stderr = log, log
	if err := c.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w (run through bench/run.sh, which builds it)", e.fluxserve, err)
	}
	go func() { c.exited <- c.cmd.Wait() }()
	if err := c.awaitHealthy(10 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	for _, q := range queries {
		if err := c.put(q); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *child) awaitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if _, err := c.get(c.base + "/healthz"); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("fluxserve not healthy after %v: %w", limit, err)
		}
		select {
		case err := <-c.exited:
			c.exited <- err
			return fmt.Errorf("fluxserve exited before becoming healthy: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (c *child) get(u string) ([]byte, error) {
	resp, err := c.client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return body, err
}

func (c *child) put(q namedQuery) error {
	req, err := http.NewRequest(http.MethodPut, c.base+"/queries/"+url.PathEscape(q.name), strings.NewReader(q.src))
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: %s: %s", q.name, resp.Status, body)
	}
	return nil
}

// stop sends SIGTERM and requires a clean drain exit within the drain
// timeout; a child that overstays is killed and reported.
func (c *child) stop() error {
	defer c.log.Close()
	c.client.CloseIdleConnections()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-c.exited:
		if err != nil {
			return fmt.Errorf("fluxserve did not exit cleanly: %w", err)
		}
		return nil
	case <-time.After(c.drain):
		c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("fluxserve did not drain within %v; killed", c.drain)
	}
}

// request is one POST /eval: a body, the query selection and the
// reference digests of the selected queries' results.
type request struct {
	url  string
	body []byte
	want map[string]sum
}

func (c *child) request(doc []byte, queries []namedQuery, outs [][]byte, selectAll bool) *request {
	rq := &request{url: c.base + "/eval", body: doc, want: map[string]sum{}}
	v := url.Values{}
	for i, q := range queries {
		rq.want[q.name] = sumOf(outs[i])
		v.Add("q", q.name)
	}
	if !selectAll {
		rq.url += "?" + v.Encode()
	}
	return rq
}

// post sends the request and reads the whole response; the caller's
// clock stops when it returns.
func (c *child) post(rq *request) ([]byte, error) {
	resp, err := c.client.Post(rq.url, "application/xml", bytes.NewReader(rq.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /eval: %s: %.200s", resp.Status, body)
	}
	return body, nil
}

type evalResponse struct {
	Results []struct {
		Query  string `json:"query"`
		Output string `json:"output"`
		Error  string `json:"error"`
		Stats  struct {
			PeakBufferBytes int64 `json:"peak_buffer_bytes"`
		} `json:"stats"`
	} `json:"results"`
}

// verify checks every result text of an /eval response against the
// reference digests and returns the largest per-query peak buffer.
func (rq *request) verify(body []byte) (peak int64, err error) {
	var r evalResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	if len(r.Results) != len(rq.want) {
		return 0, fmt.Errorf("response has %d results, want %d", len(r.Results), len(rq.want))
	}
	for _, res := range r.Results {
		want, ok := rq.want[res.Query]
		if !ok || res.Error != "" || sumOf([]byte(res.Output)) != want {
			return 0, fmt.Errorf("query %s: result differs from reference (error %q)", res.Query, res.Error)
		}
		if res.Stats.PeakBufferBytes > peak {
			peak = res.Stats.PeakBufferBytes
		}
	}
	return peak, nil
}

// window is what one timed window observed.
type window struct {
	attempted, failed int
	bytes             int64           // input bytes of successful operations
	elapsed           time.Duration   // start to the end of the last operation
	lat               []time.Duration // successful operations
	at                []time.Duration // when each of them ended, since the window's start
	late              []time.Duration // open loop: send instant minus due instant
	peak              int64           // largest peak buffer of any plan
	respBytes         int64           // response bytes of successful requests
	firstErr          error
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.bytes += o.bytes
	w.lat = append(w.lat, o.lat...)
	w.at = append(w.at, o.at...)
	w.late = append(w.late, o.late...)
	w.respBytes += o.respBytes
	if o.peak > w.peak {
		w.peak = o.peak
	}
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// record notes a successful operation of a window that began at start:
// its clock ran from from to end, it consumed n input bytes and its
// largest plan buffer peaked at peak.
func (w *window) record(start, from, end time.Time, n int, peak int64) {
	w.lat = append(w.lat, end.Sub(from))
	w.at = append(w.at, end.Sub(start))
	w.bytes += int64(n)
	w.peak = max(w.peak, peak)
}

// do performs one request of a window that began at start; the request's
// latency clock started at from. A failed request has no latency figure.
func (w *window) do(c *child, rq *request, start, from time.Time) {
	w.attempted++
	body, err := c.post(rq)
	end := time.Now()
	var peak int64
	if err == nil {
		peak, err = rq.verify(body)
	}
	if err != nil {
		w.fail(err)
		return
	}
	w.record(start, from, end, len(rq.body), peak)
	w.respBytes += int64(len(body))
}

// workers runs f on n goroutines and merges their windows.
func workers(n int, f func(w *window)) *window {
	start := time.Now()
	parts := make([]window, n)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			f(w)
		}(&parts[i])
	}
	wg.Wait()
	total := &window{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// closedLoop has each of nproc callers post small and wait for the reply
// before posting again.
func closedLoop(c *child, nproc int, small *request, d time.Duration) *window {
	start := time.Now()
	return workers(nproc, func(w *window) {
		for time.Since(start) < d {
			w.do(c, small, start, time.Now())
		}
	})
}

// openLoop sends arrival i at start + i/openRate whatever the server
// does; every openBigEvery-th is big. With all nproc connections busy an
// arrival waits, and that wait counts: latency runs from the due instant.
func openLoop(c *child, nproc int, small, big *request, d time.Duration) *window {
	start := time.Now()
	interval := time.Second / openRate
	var next atomic.Int64
	return workers(nproc, func(w *window) {
		for {
			i := next.Add(1) - 1
			due := start.Add(time.Duration(i) * interval)
			if due.Sub(start) >= d {
				return
			}
			time.Sleep(time.Until(due))
			w.late = append(w.late, time.Since(due))
			rq := small
			if i%openBigEvery == openBigEvery-1 {
				rq = big
			}
			w.do(c, rq, start, due)
		}
	})
}

// gcStats reads the child's collector counters from the heap profile
// header of its -debug-addr listener (fluxserve's /metrics has no GC
// series): the cycle count, and the pause total of the cycles after cycle
// number since. The header holds the last 256 pauses as a ring; beyond
// that the total is scaled up from them. The read stops the child's
// world, so it is only taken outside timed windows.
func (c *child) gcStats(since int64) (cycles int64, pause time.Duration, err error) {
	body, err := c.get(c.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	var ring []uint64
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " = ")
		if !ok {
			continue
		}
		switch k {
		case "# NumGC":
			cycles, _ = strconv.ParseInt(v, 10, 64)
		case "# PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				ns, _ := strconv.ParseUint(f, 10, 64)
				ring = append(ring, ns)
			}
		}
	}
	return cycles, ringPause(ring, cycles, since), sc.Err()
}

// rejected reads the child's 503 POOL_SATURATED count from /stats.
func (c *child) rejected() (int64, error) {
	body, err := c.get(c.base + "/stats")
	if err != nil {
		return 0, err
	}
	var st struct {
		Pool struct {
			Rejected int64 `json:"rejected"`
		} `json:"pool"`
	}
	err = json.Unmarshal(body, &st)
	return st.Pool.Rejected, err
}
