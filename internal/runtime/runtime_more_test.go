package runtime

import (
	"strings"
	"testing"

	"fluxquery/internal/core"
	"fluxquery/internal/dtd"
	"fluxquery/internal/nf"
	"fluxquery/internal/xquery"
)

// planWith compiles with explicit runtime options.
func planWith(t *testing.T, src, dtdSrc string, o Options) *Plan {
	t.Helper()
	d := dtd.MustParse(dtdSrc)
	n, err := nf.Normalize(xquery.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.Schedule(n, d)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileOptions(q, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const infoBib = `
<!ELEMENT bib (book)*>
<!ELEMENT book (info|title)*>
<!ELEMENT info (isbn,blurb)>
<!ELEMENT isbn (#PCDATA)>
<!ELEMENT blurb (#PCDATA)>
<!ELEMENT title (#PCDATA)>
`

const infoQuery = `<results>{ for $b in $ROOT/bib/book return <r>{ $b/title }{ for $i in $b/info return <isbn>{ $i/isbn/text() }</isbn> }</r> }</results>`

const infoDoc = `<bib><book><info><isbn>978</isbn><blurb>` + "BLURBBLURBBLURBBLURBBLURBBLURBBLURBBLURB" + `</blurb></info><title>T</title></book></bib>`

// TestFullBuffersAblation: FullBuffers keeps blurb bytes; projection
// drops them; results agree.
func TestFullBuffersAblation(t *testing.T) {
	projected := planWith(t, infoQuery, infoBib, Options{})
	full := planWith(t, infoQuery, infoBib, Options{FullBuffers: true})
	var out1, out2 strings.Builder
	st1, err := runPass(projected, strings.NewReader(infoDoc), &out1)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := runPass(full, strings.NewReader(infoDoc), &out2)
	if err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("ablation changed result:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if st2.PeakBufferBytes <= st1.PeakBufferBytes {
		t.Errorf("full buffers should hold more: %d vs %d", st2.PeakBufferBytes, st1.PeakBufferBytes)
	}
	if st2.PeakBufferBytes-st1.PeakBufferBytes < 40 {
		t.Errorf("blurb bytes not measurably present: %d vs %d", st2.PeakBufferBytes, st1.PeakBufferBytes)
	}
}

// TestReplayModeAtomicAndCopy: a label that is both streamed and buffered
// exercises replay mode; atomic and copy bodies must behave identically
// to stream mode.
func TestReplayModeAtomicAndCopy(t *testing.T) {
	d := `
<!ELEMENT r (item)*>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item k CDATA #REQUIRED>
`
	// First expression streams item copies; second (an if over items)
	// buffers them; item is both streamed and buffered.
	src := `<out>{ for $i in $ROOT/r/item return <c>{ $i/@k }</c> }{ if ($ROOT/r/item = "x") then <has-x/> else () }</out>`
	p := planWith(t, src, d, Options{})
	var out strings.Builder
	st, err := runPass(p, strings.NewReader(`<r><item k="1">x</item><item k="2">y</item></r>`), &out)
	if err != nil {
		t.Fatal(err)
	}
	want := `<out><c>1</c><c>2</c><has-x/></out>`
	if out.String() != want {
		t.Errorf("got %s, want %s", out.String(), want)
	}
	if st.BufferedNodes == 0 {
		t.Error("items should have been buffered for the conditional")
	}
}

// TestWhitespacePreservedInPCData: mixed text inside copied elements
// survives verbatim.
func TestWhitespacePreservedInPCData(t *testing.T) {
	d := `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`
	src := `<r>{ for $b in $ROOT/bib/book return <x>{ $b/title }{ $b/author }</x> }</r>`
	p := planWith(t, src, d, Options{})
	var out strings.Builder
	doc := `<bib><book><author>  spaced  text </author><title> keep
newlines </title></book></bib>`
	if _, err := runPass(p, strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	want := `<r><x><title> keep
newlines </title><author>  spaced  text </author></x></r>`
	if out.String() != want {
		t.Errorf("got %q, want %q", out.String(), want)
	}
}

// TestStatsEventCounts: events are counted across dispatch paths.
func TestStatsEventCounts(t *testing.T) {
	p := plan(t, q3, weakBib)
	var out strings.Builder
	st, err := runPass(p, strings.NewReader(weakDoc), &out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events == 0 || st.OutputBytes == 0 || st.HandlerFirings == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// TestEntityHeavyContent: escaped content round-trips through streaming
// copies and buffers alike.
func TestEntityHeavyContent(t *testing.T) {
	p := plan(t, q3, weakBib)
	doc := `<bib><book><title>a &lt; b &amp; c</title><author>&quot;A&quot; &#65;</author></book></bib>`
	var out strings.Builder
	if _, err := runPass(p, strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	want := `<results><result><title>a &lt; b &amp; c</title><author>"A" A</author></result></results>`
	if out.String() != want {
		t.Errorf("got %s", out.String())
	}
}

// TestWildcardLoop: a for over $x/* buffers everything and still matches
// the naive semantics (ordered children).
func TestWildcardLoop(t *testing.T) {
	d := `
<!ELEMENT r (a|b)*>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`
	src := `<out>{ for $c in $ROOT/r/* return <w>{ $c/text() }</w> }</out>`
	p := planWith(t, src, d, Options{})
	var out strings.Builder
	if _, err := runPass(p, strings.NewReader(`<r><a>1</a><b>2</b><a>3</a></r>`), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != `<out><w>1</w><w>2</w><w>3</w></out>` {
		t.Errorf("got %s", out.String())
	}
}
