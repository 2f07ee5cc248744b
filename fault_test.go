package fluxquery

// Failure injection: engines must fail cleanly (no panics, no silent
// truncation) on broken inputs and broken outputs.

import (
	"errors"
	"io"
	"strings"
	"testing"

	"fluxquery/internal/xmlgen"
)

// failingWriter fails after n bytes.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

// truncatedReader yields only the first n bytes of s.
type truncatedReader struct {
	s string
	n int
}

func (t *truncatedReader) Read(p []byte) (int, error) {
	if t.n >= len(t.s) {
		return 0, io.EOF
	}
	k := copy(p, t.s[t.n:])
	t.n += k
	if t.n > 200 { // truncate hard after 200 bytes
		return k, io.ErrUnexpectedEOF
	}
	return k, nil
}

const faultDoc = `<bib><book year="1"><title>One</title><author>A</author></book><book year="2"><title>Two</title></book></bib>`

func TestWriterFailureSurfaces(t *testing.T) {
	for _, e := range []Engine{EngineFlux, EngineProjection, EngineNaive} {
		p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{Engine: e})
		_, err := p.Execute(strings.NewReader(faultDoc), &failingWriter{n: 10})
		if err == nil {
			t.Errorf("%v: writer failure not reported", e)
		}
	}
}

// endlessBib serves limit bytes of a valid, never-closed <bib> document
// and counts the bytes it served.
type endlessBib struct{ served, limit int }

const endlessBook = `<book year="1"><title>Title</title><author>Author</author></book>`

func (e *endlessBib) Read(p []byte) (int, error) {
	if e.served >= e.limit {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && e.served < e.limit {
		var k int
		if e.served < len("<bib>") {
			k = copy(p[n:], "<bib>"[e.served:])
		} else {
			k = copy(p[n:], endlessBook[(e.served-len("<bib>"))%len(endlessBook):])
		}
		n += k
		e.served += k
	}
	return n, nil
}

// TestWriterFailureStopsExecute: a plan whose output writer fails stops
// at the next batch boundary, so its pass stops reading, and Execute
// returns the writer's error — in the sequential and the pipelined pass
// alike. Before that check the plan evaluated, and the pass read, to the
// end of the stream.
func TestWriterFailureStopsExecute(t *testing.T) {
	for _, par := range []int{1, 2} {
		p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{Parallel: par})
		in := &endlessBib{limit: 64 << 20}
		_, err := p.Execute(in, &failingWriter{})
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("parallel=%d: error = %v, want the writer's %v", par, err, io.ErrClosedPipe)
		}
		if in.served >= 1<<20 {
			t.Errorf("parallel=%d: read %d bytes after the writer failed, want < 1 MB", par, in.served)
		}
	}
}

func TestTruncatedInputSurfaces(t *testing.T) {
	long := `<bib>` + strings.Repeat(`<book year="1"><title>T</title></book>`, 50) + `</bib>`
	for _, e := range []Engine{EngineFlux, EngineProjection, EngineNaive} {
		p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{Engine: e})
		_, _, err := func() (string, Stats, error) {
			var sb strings.Builder
			st, err := p.Execute(&truncatedReader{s: long}, &sb)
			return sb.String(), st, err
		}()
		if err == nil {
			t.Errorf("%v: truncated input not reported", e)
		}
	}
}

func TestMalformedDocuments(t *testing.T) {
	docs := []struct{ name, doc string }{
		{"tag mismatch", `<bib><book year="1"><title>T</book></title></bib>`},
		{"unclosed root", `<bib><book year="1"></book>`},
		{"stray content", `<bib></bib><extra/>`},
		{"undeclared element", `<bib><pamphlet/></bib>`},
		{"missing required attr", `<bib><book><title>T</title></book></bib>`},
		{"wrong root", `<library></library>`},
		{"empty input", ``},
		{"not xml", `hello world`},
	}
	for _, e := range []Engine{EngineFlux, EngineProjection, EngineNaive} {
		for _, c := range docs {
			p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{Engine: e})
			if _, _, err := p.ExecuteString(c.doc); err == nil {
				t.Errorf("%v accepted %s: %q", e, c.name, c.doc)
			}
		}
	}
}

// TestPlansAreReusable: one plan can execute many documents, and a failed
// execution does not poison the plan.
func TestPlansAreReusable(t *testing.T) {
	p := MustCompile(paperQuery, xmlgen.WeakBibDTD, Options{})
	good, _, err := p.ExecuteString(faultDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ExecuteString(`<bib><broken`); err == nil {
		t.Fatal("broken doc accepted")
	}
	again, _, err := p.ExecuteString(faultDoc)
	if err != nil {
		t.Fatal(err)
	}
	if again != good {
		t.Error("plan state leaked across executions")
	}
}

// TestDeeplyNestedDocument: recursion-safe handling of deep trees on all
// engines (the flux runtime recurses per process-stream scope, not per
// element, so depth stresses the tokenizer and validators).
func TestDeeplyNestedDocument(t *testing.T) {
	const depth = 2000
	dtdSrc := `<!ELEMENT n (n?)>`
	doc := strings.Repeat("<n>", depth) + strings.Repeat("</n>", depth)
	d, err := ParseDTD(dtdSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`<r>{ for $x in $ROOT/n return <hit/> }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineFlux, EngineNaive} {
		p, err := Compile(q, d, Options{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if _, err := p.Execute(strings.NewReader(doc), &sb); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if sb.String() != "<r><hit/></r>" {
			t.Errorf("%v: got %s", e, sb.String())
		}
	}
}

// TestHugeTextNode: multi-megabyte text content in one node.
func TestHugeTextNode(t *testing.T) {
	big := strings.Repeat("x", 4<<20)
	doc := `<bib><book year="1"><title>` + big + `</title></book></bib>`
	p := MustCompile(`<r>{ for $b in $ROOT/bib/book return { $b/title/text() } }</r>`, xmlgen.WeakBibDTD, Options{})
	out, st, err := p.ExecuteString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(big)+len("<r></r>") {
		t.Errorf("output length %d", len(out))
	}
	if st.PeakBufferBytes != 0 {
		t.Errorf("streaming text emission must not buffer, peak = %d", st.PeakBufferBytes)
	}
}

func TestDTDFromDocument(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!DOCTYPE bib [
<!ELEMENT bib (book)*>
<!ELEMENT book (title)>
<!ELEMENT title (#PCDATA)>
]>
<bib><book><title>T</title></book></bib>`
	d, err := DTDFromDocument(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() != "bib" {
		t.Errorf("root = %s", d.Root())
	}
	if _, err := DTDFromDocument(strings.NewReader(`<bib/>`)); err == nil {
		t.Error("document without DOCTYPE accepted")
	}
	if _, err := DTDFromDocument(strings.NewReader(``)); err == nil {
		t.Error("empty document accepted")
	}
}
