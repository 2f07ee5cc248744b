package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"fluxquery"
	"fluxquery/internal/workload"
)

// testQAttr constructs elements with a constant attribute around text
// that carries escaped markup.
const testQAttr = `<titles>{ for $b in $ROOT/bib/book return <t kind="x">{ $b/title }</t> }</titles>`

// assertCompact fails unless body is exactly one compact JSON document
// followed by the encoder's newline.
func assertCompact(t *testing.T, body string) {
	t.Helper()
	if !strings.HasSuffix(body, "\n") || strings.Count(body, "\n") != 1 {
		t.Fatalf("response is not one line: %q", body)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(body)); err != nil {
		t.Fatalf("response is not JSON: %v: %q", err, body)
	}
	if buf.String() != strings.TrimSuffix(body, "\n") {
		t.Fatalf("response is not compact: %q", body)
	}
}

// TestEvalWireFormat: /eval answers one compact JSON document whose
// result text keeps '<', '>' and '&' literal, and decodes to exactly the
// output the library produces for the same query and document.
func TestEvalWireFormat(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.register("attr", testQAttr); err != nil {
		t.Fatal(err)
	}
	doc := `<bib><book><title>A &amp; B &lt;c&gt;</title><author>X</author></book><book><title>T</title></book></bib>`
	code, body := do(t, "POST", ts.URL+"/eval", doc)
	if code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}
	assertCompact(t, body)
	if strings.Contains(body, `\u003c`) || strings.Contains(body, `\u003e`) || strings.Contains(body, `\u0026`) {
		t.Fatalf("markup is HTML-escaped: %s", body)
	}

	want, _, err := fluxquery.MustCompile(testQAttr, testDTD, fluxquery.Options{}).ExecuteString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, `&amp;`) || !strings.Contains(want, `kind="x"`) {
		t.Fatalf("reference output lacks the escaped text or the attribute: %s", want)
	}
	// The result text travels literally: only the quotes are escaped.
	if lit := strings.ReplaceAll(want, `"`, `\"`); !strings.Contains(body, lit) {
		t.Fatalf("body does not carry %s literally: %s", lit, body)
	}
	var resp evalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Query != "attr" || resp.Results[0].Output != want {
		t.Fatalf("decoded results = %+v, want output %q", resp.Results, want)
	}
	if resp.Scan.Passes != 1 || resp.Results[0].Stats.Events == 0 {
		t.Fatalf("decoded scan/stats = %+v / %+v", resp.Scan, resp.Results[0].Stats)
	}
}

// TestErrorWireFormat: error bodies are compact and still decode to
// exactly {"error", "code"}.
func TestErrorWireFormat(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		path, body, code string
		status           int
	}{
		{"/eval?q=nosuch", testDoc(1), codeQueryNotFound, 404},
		{"/eval", `<bib><pamphlet/></bib>`, codeInvalidDoc, 422},
	} {
		status, body := do(t, "POST", ts.URL+tc.path, tc.body)
		if status != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.path, status, tc.status, body)
		}
		assertCompact(t, body)
		var e map[string]string
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if len(e) != 2 || e["code"] != tc.code || e["error"] == "" {
			t.Fatalf("%s: error body %v, want {error, code=%s}", tc.path, e, tc.code)
		}
	}
}

// servedQueries is the 100-query set the serve benchmarks register: the
// seven non-join XMark queries plus 93 single-path queries cycling over
// 32 auction path families.
func servedQueries() map[string]string {
	qs := map[string]string{}
	for _, n := range []string{
		"xmark-q1", "xmark-q13", "xmark-q2-bidders", "xmark-q17-nophone",
		"xmark-q20-cities", "xmark-q4-sellers", "xmark-q11-bids",
	} {
		qs[n] = workload.ByName(n).Query
	}
	recs := []struct {
		path   string
		leaves []string
	}{
		{"people/person", []string{"name", "emailaddress", "phone", "city"}},
		{"open_auctions/open_auction", []string{"initial", "current", "itemref", "seller"}},
		{"closed_auctions/closed_auction", []string{"seller", "buyer", "itemref", "price"}},
		{"items/item", []string{"location", "name", "description", "quantity"}},
	}
	var families []string
	for _, r := range recs {
		for _, leaf := range r.leaves {
			for _, sel := range []string{"$x/" + leaf, "$x/" + leaf + "/text()"} {
				families = append(families, fmt.Sprintf(
					"for $x in $ROOT/site/%s return <v>{ %s }</v>", r.path, sel))
			}
		}
	}
	for i := 0; len(qs) < 100; i++ {
		qs[fmt.Sprintf("gen-%02d", i)] = fmt.Sprintf("<g%d>{ %s }</g%d>", i, families[i%len(families)], i)
	}
	return qs
}

// BenchmarkEval100 posts a ≈ 7 KB auction document to a server holding
// 100 registered queries, configured like fluxserve's defaults: the
// per-request cost (HTTP, JSON, set assembly, one evaluator per plan)
// dwarfs the scan.
func BenchmarkEval100(b *testing.B) {
	c := workload.ByName("xmark-q1")
	srv, err := newServer(c.DTD, 64<<20, fluxquery.ProjectionFast, 0, fluxquery.BufferSpill, "")
	if err != nil {
		b.Fatal(err)
	}
	srv.setPool(2 * runtime.GOMAXPROCS(0))
	srv.setFlightRecorder(256, 0, 0)
	for name, src := range servedQueries() {
		if err := srv.register(name, src); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	// The generator's size hint is off by a factor; one calibrating draw
	// brings the document to about 7 KB.
	gen := func(hint int64) []byte {
		var buf bytes.Buffer
		if err := c.Gen(&buf, hint, 1); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	doc := gen(7_000)
	doc = gen(7_000 * 7_000 / int64(len(doc)))
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/eval", "application/xml", bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("eval: status %d, %v", resp.StatusCode, err)
		}
	}
}
