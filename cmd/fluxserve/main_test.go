package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fluxquery"
	"fluxquery/internal/unit"
)

const testDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`

const testQ3 = `<results>{ for $b in $ROOT/bib/book return <result>{ $b/title }{ $b/author }</result> }</results>`
const testQT = `<titles>{ for $b in $ROOT/bib/book return <t>{ $b/title }</t> }</titles>`

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(testDTD, 1<<20, fluxquery.ProjectionFast, 0, fluxquery.BufferSpill, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func testDoc(books int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&b, "<book><title>T%d</title><author>A%d</author></book>", i, i)
	}
	b.WriteString("</bib>")
	return b.String()
}

func TestQueryLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	if code, body := do(t, "GET", ts.URL+"/healthz", ""); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := do(t, "PUT", ts.URL+"/queries/q3", testQ3); code != 200 {
		t.Fatalf("register q3: %d %s", code, body)
	}
	if code, body := do(t, "PUT", ts.URL+"/queries/bad", "for $x in"); code != 422 {
		t.Fatalf("bad query accepted: %d %s", code, body)
	}
	if code, body := do(t, "GET", ts.URL+"/queries/q3", ""); code != 200 || !strings.Contains(body, "for $b") {
		t.Fatalf("get q3: %d %s", code, body)
	}
	code, body := do(t, "GET", ts.URL+"/queries", "")
	if code != 200 {
		t.Fatalf("list: %d %s", code, body)
	}
	var list []queryInfo
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "q3" {
		t.Fatalf("list = %+v", list)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/queries/q3", ""); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/queries/q3", ""); code != 404 {
		t.Fatalf("double delete: %d", code)
	}
}

func TestEvalSharedPass(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("titles", testQT); err != nil {
		t.Fatal(err)
	}

	code, body := do(t, "POST", ts.URL+"/eval", testDoc(5))
	if code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}
	var resp evalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(resp.Results))
	}
	// Results are name-sorted: q3 then titles.
	if resp.Results[0].Query != "q3" || !strings.Contains(resp.Results[0].Output, "<result><title>T0</title>") {
		t.Errorf("q3 result: %+v", resp.Results[0])
	}
	if resp.Results[1].Query != "titles" || !strings.Contains(resp.Results[1].Output, "<t><title>T4</title></t>") {
		t.Errorf("titles result: %+v", resp.Results[1])
	}
	for _, res := range resp.Results {
		if res.Error != "" {
			t.Errorf("%s: unexpected error %q", res.Query, res.Error)
		}
		if res.Stats.Events == 0 || res.Stats.OutputBytes == 0 {
			t.Errorf("%s: empty stats %+v", res.Query, res.Stats)
		}
	}
	// The shared scan is reported once, at response level: exactly one
	// pass, with projection deliveries recorded.
	if resp.Scan.Passes != 1 {
		t.Errorf("scan passes = %d, want 1", resp.Scan.Passes)
	}
	if resp.Scan.Projection != "fast" || resp.Scan.EventsDelivered == 0 {
		t.Errorf("scan stats not reported: %+v", resp.Scan)
	}
}

func TestEvalSubsetAndErrors(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("titles", testQT); err != nil {
		t.Fatal(err)
	}

	code, body := do(t, "POST", ts.URL+"/eval?q=titles", testDoc(2))
	if code != 200 {
		t.Fatalf("eval subset: %d %s", code, body)
	}
	var resp evalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Query != "titles" {
		t.Fatalf("subset results = %+v", resp.Results)
	}

	if code, _ := do(t, "POST", ts.URL+"/eval?q=nosuch", testDoc(1)); code != 404 {
		t.Fatalf("unknown query name: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/eval", `<bib><pamphlet/></bib>`); code != 422 {
		t.Fatalf("invalid document: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/eval", `not xml at all`); code != 422 {
		t.Fatalf("garbage document: %d", code)
	}
}

func TestEvalWithNoQueriesValidatesOnly(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, "POST", ts.URL+"/eval", testDoc(1))
	if code != 200 {
		t.Fatalf("eval with zero queries: %d %s", code, body)
	}
	var resp evalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("results = %+v, want none", resp.Results)
	}
}

// testQBuf buffers every book's author list until the second loop, so a
// small budget is actually exercised.
const testQBuf = `<r>{ for $b in $ROOT/bib/book return <x>{ $b/title }</x> }{ for $c in $ROOT/bib/book return <y>{ $c/author }</y> }</r>`

// TestStatsEndpointAndBudgetedEval: a server with a spill budget serves
// byte-identical results, reports spill counters in /eval stats, and
// aggregates them in GET /stats.
func TestStatsEndpointAndBudgetedEval(t *testing.T) {
	srv, err := newServer(testDTD, 1<<20, fluxquery.ProjectionFast, 16<<10, fluxquery.BufferSpill, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if err := srv.register("buf", testQBuf); err != nil {
		t.Fatal(err)
	}

	// Unbudgeted reference for the same query and document.
	ref, err := newServer(testDTD, 1<<20, fluxquery.ProjectionFast, 0, fluxquery.BufferSpill, "")
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.handler())
	defer rts.Close()
	if err := ref.register("buf", testQBuf); err != nil {
		t.Fatal(err)
	}

	doc := testDoc(200)
	code, body := do(t, "POST", ts.URL+"/eval", doc)
	if code != 200 {
		t.Fatalf("budgeted eval: %d %s", code, body)
	}
	_, refBody := do(t, "POST", rts.URL+"/eval", doc)
	var resp, refResp evalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(refBody), &refResp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Output != refResp.Results[0].Output {
		t.Fatal("budgeted output differs from unbudgeted")
	}
	st := resp.Results[0].Stats
	if st.SpilledBytes == 0 || st.RehydratedBytes == 0 {
		t.Errorf("spill counters missing from /eval stats: %+v", st)
	}
	if st.PeakHeapBufferBytes == 0 || st.PeakHeapBufferBytes > 16<<10 {
		t.Errorf("heap peak %d not bounded by the 16 KiB budget", st.PeakHeapBufferBytes)
	}
	if st.PeakBufferBytes <= 16<<10 {
		t.Errorf("workload too small to exercise the budget: logical peak %d", st.PeakBufferBytes)
	}

	code, body = do(t, "GET", ts.URL+"/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Evals != 1 {
		t.Errorf("evals = %d, want 1", stats.Evals)
	}
	agg := stats.Queries["buf"]
	if agg == nil || agg.Evals != 1 || agg.SpilledBytes == 0 {
		t.Errorf("per-query aggregate missing or empty: %+v", agg)
	}
	if stats.Buffers == nil || stats.Buffers.Budget != 16<<10 || stats.Buffers.Policy != "spill" {
		t.Fatalf("buffer manager snapshot: %+v", stats.Buffers)
	}
	if stats.Buffers.SpillOps == 0 || stats.Buffers.SpillSegsLive != 0 {
		t.Errorf("manager counters: %+v", stats.Buffers)
	}
}

// TestBudgetFailPerQueryRejection: under -budget-policy fail, the
// over-budget query's /eval result carries code 413 and an
// ErrBudgetExceeded message while the cheap sibling completes normally
// in the same pass.
func TestBudgetFailPerQueryRejection(t *testing.T) {
	srv, err := newServer(testDTD, 1<<20, fluxquery.ProjectionFast, 2048, fluxquery.BufferFail, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if err := srv.register("greedy", testQBuf); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("light", testQT); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, "POST", ts.URL+"/eval", testDoc(200))
	if code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}
	var resp evalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	byName := map[string]evalResult{}
	for _, r := range resp.Results {
		byName[r.Query] = r
	}
	if g := byName["greedy"]; g.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(g.Error, "budget exceeded") {
		t.Errorf("greedy rejection: %+v", g)
	}
	if l := byName["light"]; l.Error != "" || l.Output == "" {
		t.Errorf("light sibling disturbed: %+v", l)
	}
	_, body = do(t, "GET", ts.URL+"/stats", "")
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries["greedy"].BudgetRejections != 1 {
		t.Errorf("rejection not aggregated: %+v", stats.Queries["greedy"])
	}
	if stats.Buffers.Rejections != 1 {
		t.Errorf("manager rejections: %+v", stats.Buffers)
	}
}

// TestParseBytes covers the -budget flag syntax (shared helper).
func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false}, {"1024", 1024, false}, {"4K", 4 << 10, false},
		{"64M", 64 << 20, false}, {"2g", 2 << 30, false}, {"1.5M", 0, true},
		{"-3", 0, true}, {"x", 0, true},
	} {
		got, err := unit.ParseBytes(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// TestEvalRejectsOversizedBody: a document larger than -max-body must be
// rejected with 413, never silently truncated into a valid prefix.
func TestEvalRejectsOversizedBody(t *testing.T) {
	srv, err := newServer(testDTD, 500, fluxquery.ProjectionFast, 0, fluxquery.BufferSpill, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, "POST", ts.URL+"/eval", testDoc(100))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", code, body)
	}
	if code, _ := do(t, "PUT", ts.URL+"/queries/huge", strings.Repeat(" ", 2000)+testQ3); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query body: %d", code)
	}
}

// TestParallelEval: a server running pipelined passes returns the same
// results as a sequential one and reports pipeline metrics in /eval and
// GET /stats.
func TestParallelEval(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.setParallel(4)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := srv.register("titles", testQT); err != nil {
		t.Fatal(err)
	}
	ref, rts := newTestServer(t)
	ref.setParallel(1)
	if err := ref.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	if err := ref.register("titles", testQT); err != nil {
		t.Fatal(err)
	}

	doc := testDoc(300)
	code, body := do(t, "POST", ts.URL+"/eval", doc)
	if code != 200 {
		t.Fatalf("parallel eval: %d %s", code, body)
	}
	_, refBody := do(t, "POST", rts.URL+"/eval", doc)
	var resp, refResp evalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(refBody), &refResp); err != nil {
		t.Fatal(err)
	}
	for i := range resp.Results {
		if resp.Results[i].Output != refResp.Results[i].Output {
			t.Errorf("%s: parallel output differs from sequential", resp.Results[i].Query)
		}
	}
	if resp.Pipeline == nil || resp.Pipeline.Parallel < 2 || resp.Pipeline.Batches == 0 {
		t.Fatalf("pipeline metrics missing from /eval: %+v", resp.Pipeline)
	}
	if refResp.Pipeline != nil {
		t.Errorf("sequential pass reported pipeline metrics: %+v", refResp.Pipeline)
	}

	_, body = do(t, "GET", ts.URL+"/stats", "")
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Pipeline == nil || stats.Pipeline.Passes != 1 || stats.Pipeline.Batches == 0 {
		t.Errorf("pipeline aggregate missing from /stats: %+v", stats.Pipeline)
	}
}

// TestPoolSaturation: with a single eval slot held by an in-flight
// pass, the next /eval is shed with a structured 503 POOL_SATURATED,
// and the rejection is visible in GET /stats.
func TestPoolSaturation(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.setPool(1)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot directly (an in-flight pass holds it exactly
	// like this), then observe the shed path deterministically.
	srv.pool <- struct{}{}
	code, body := do(t, "POST", ts.URL+"/eval", testDoc(1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated eval: %d %s", code, body)
	}
	if !strings.Contains(body, codePoolSaturated) {
		t.Fatalf("503 body lacks the %s code: %s", codePoolSaturated, body)
	}
	<-srv.pool

	// With the slot free again, the same request streams normally.
	if code, body := do(t, "POST", ts.URL+"/eval", testDoc(1)); code != 200 {
		t.Fatalf("post-drain eval: %d %s", code, body)
	}
	_, body = do(t, "GET", ts.URL+"/stats", "")
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Pool == nil || stats.Pool.Capacity != 1 || stats.Pool.Rejected != 1 {
		t.Fatalf("pool stats: %+v", stats.Pool)
	}
}

// TestErrorCodeTaxonomy: every structured error response carries its
// classifying code alongside the message.
func TestErrorCodeTaxonomy(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.register("q3", testQ3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"PUT", "/queries/bad", "for $x in", 422, codeInvalidQuery},
		{"GET", "/queries/nosuch", "", 404, codeQueryNotFound},
		{"DELETE", "/queries/nosuch", "", 404, codeQueryNotFound},
		{"POST", "/eval?q=nosuch", testDoc(1), 404, codeQueryNotFound},
		{"POST", "/eval", "not xml", 422, codeInvalidDoc},
	} {
		status, body := do(t, tc.method, ts.URL+tc.path, tc.body)
		if status != tc.status || !strings.Contains(body, tc.code) {
			t.Errorf("%s %s: got %d %s, want %d with code %s",
				tc.method, tc.path, status, body, tc.status, tc.code)
		}
	}
}
