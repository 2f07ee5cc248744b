package runtime

import (
	"io"
	"strings"
	"testing"

	"fluxquery/internal/core"
	"fluxquery/internal/dtd"
	"fluxquery/internal/nf"
	"fluxquery/internal/proj"
	"fluxquery/internal/xquery"
	"fluxquery/internal/xsax"
)

const weakBib = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`

const strongBib = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title,(author+|editor+),publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`

const q3 = `<results>{ for $b in $ROOT/bib/book return <result>{ $b/title }{ $b/author }</result> }</results>`

// plan compiles a query through the full pipeline.
func plan(t *testing.T, src, dtdSrc string) *Plan {
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
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runPass executes p over in the way a single-plan pass does: a
// validating reader, projecting per the plan's mode, fills owned batches
// that a StepExec evaluates; the reader's scan statistics are stamped on
// the result.
func runPass(p *Plan, in io.Reader, out io.Writer) (*Stats, error) {
	xr := xsax.NewReader(in, p.DTD())
	if p.ProjMode() != proj.ModeOff {
		xr.SetProjection(p.ProjAutomaton(), p.ProjMode())
	}
	se := p.NewStepExec(out)
	b := xsax.GetBatch()
	defer xsax.PutBatch(b)
	var cause error
	for cause == nil {
		b.Reset()
		for b.Len() < 256 {
			ev, err := xr.NextEvent()
			if err != nil {
				cause = err
				break
			}
			b.Append(ev)
		}
		if done, _ := se.Feed(b.Events); done {
			break
		}
	}
	st, err := se.Close(cause)
	if st != nil {
		st.ScanEventsDelivered = xr.ScanStats().EventsDelivered
	}
	return st, err
}

func runPlan(t *testing.T, p *Plan, doc string) (string, *Stats) {
	t.Helper()
	var out strings.Builder
	st, err := runPass(p, strings.NewReader(doc), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String(), st
}

const weakDoc = `<bib><book><title>T1</title><author>A1</author><title>T1b</title><author>A2</author></book><book><author>B1</author><title>T2</title></book></bib>`

func TestQ3WeakDTDOutput(t *testing.T) {
	p := plan(t, q3, weakBib)
	got, st := runPlan(t, p, weakDoc)
	// XQuery semantics: per book, all titles then all authors, in
	// document order.
	want := `<results><result><title>T1</title><title>T1b</title><author>A1</author><author>A2</author></result><result><title>T2</title><author>B1</author></result></results>`
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	if st.PeakBufferBytes <= 0 {
		t.Error("authors must be buffered under the weak DTD")
	}
}

func TestQ3StrongDTDOutputAndZeroBuffer(t *testing.T) {
	p := plan(t, q3, strongBib)
	doc := `<bib><book><title>T1</title><author>A1</author><author>A2</author><publisher>P</publisher><price>9</price></book></bib>`
	got, st := runPlan(t, p, doc)
	want := `<results><result><title>T1</title><author>A1</author><author>A2</author></result></results>`
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	if st.PeakBufferBytes != 0 {
		t.Errorf("strong DTD must stream with zero buffering, peak = %d", st.PeakBufferBytes)
	}
	if st.SkippedSubtrees == 0 {
		t.Error("publisher/price should be skipped")
	}
}

// TestBufferOneBookAtATime is the paper's §2 claim: the peak buffer holds
// the authors of ONE book, regardless of book count.
func TestBufferOneBookAtATime(t *testing.T) {
	p := plan(t, q3, weakBib)
	book := `<book><title>T</title><author>AAAAAAAAAA</author><author>BBBBBBBBBB</author></book>`
	small := `<bib>` + strings.Repeat(book, 2) + `</bib>`
	large := `<bib>` + strings.Repeat(book, 200) + `</bib>`
	_, stSmall := runPlan(t, p, small)
	_, stLarge := runPlan(t, p, large)
	if stLarge.PeakBufferBytes != stSmall.PeakBufferBytes {
		t.Errorf("peak buffer grew with document size: %d -> %d",
			stSmall.PeakBufferBytes, stLarge.PeakBufferBytes)
	}
	if stLarge.BufferedBytesTotal <= stSmall.BufferedBytesTotal {
		t.Error("total buffer traffic should grow with document size")
	}
}

// TestTitlesNeverBuffered: only author bytes are buffered under Q3/weak.
func TestTitlesNeverBuffered(t *testing.T) {
	p := plan(t, q3, weakBib)
	// One book, no authors: nothing may be buffered.
	_, st := runPlan(t, p, `<bib><book><title>OnlyTitles</title><title>More</title></book></bib>`)
	if st.PeakBufferBytes != 0 {
		t.Errorf("titles wrongly buffered: peak = %d", st.PeakBufferBytes)
	}
}

func TestAttributesAndText(t *testing.T) {
	d := `
<!ELEMENT bib (book)*>
<!ELEMENT book (title,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ATTLIST book year CDATA #REQUIRED>
`
	src := `<results>{ for $b in $ROOT/bib/book return <r>{ $b/@year }{ $b/title/text() }</r> }</results>`
	p := plan(t, src, d)
	got, _ := runPlan(t, p, `<bib><book year="1994"><title>TCP/IP</title><price>9</price></book></bib>`)
	want := `<results><r>1994TCP/IP</r></results>`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestConditionOverBuffers(t *testing.T) {
	src := `<results>{ for $b in $ROOT/bib/book return { if ($b/author = "Knuth") then <hit>{ $b/title }</hit> else () } }</results>`
	p := plan(t, src, weakBib)
	doc := `<bib><book><title>A</title><author>Knuth</author></book><book><title>B</title><author>Other</author></book></bib>`
	got, _ := runPlan(t, p, doc)
	want := `<results><hit><title>A</title></hit></results>`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestJoinOverRootBuffers(t *testing.T) {
	d := `
<!ELEMENT store (bib,reviews)>
<!ELEMENT bib (book)*>
<!ELEMENT book (title)>
<!ELEMENT reviews (entry)*>
<!ELEMENT entry (title,rating)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT rating (#PCDATA)>
`
	src := `<out>{ for $b in $ROOT/store/bib/book, $e in $ROOT/store/reviews/entry where $b/title = $e/title return <m>{ $b/title }{ $e/rating }</m> }</out>`
	p := plan(t, src, d)
	doc := `<store><bib><book><title>X</title></book><book><title>Y</title></book></bib><reviews><entry><title>Y</title><rating>5</rating></entry><entry><title>Z</title><rating>1</rating></entry></reviews></store>`
	got, st := runPlan(t, p, doc)
	want := `<out><m><title>Y</title><rating>5</rating></m></out>`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if st.PeakBufferBytes == 0 {
		t.Error("a join must buffer")
	}
}

func TestInvalidDocumentRejected(t *testing.T) {
	p := plan(t, q3, strongBib)
	var out strings.Builder
	_, err := runPass(p, strings.NewReader(`<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>1</price></book></bib>`), &out)
	if err == nil {
		t.Fatal("invalid document (author before title) accepted")
	}
}

func TestEmptyBib(t *testing.T) {
	p := plan(t, q3, weakBib)
	got, st := runPlan(t, p, `<bib></bib>`)
	if got != `<results/>` {
		t.Errorf("got %q", got)
	}
	if st.PeakBufferBytes != 0 {
		t.Errorf("peak = %d", st.PeakBufferBytes)
	}
}

func TestConstantQuery(t *testing.T) {
	p := plan(t, `<hello><world/></hello>`, weakBib)
	got, _ := runPlan(t, p, `<bib></bib>`)
	if got != `<hello><world/></hello>` {
		t.Errorf("got %q", got)
	}
}

func TestSeparatorBetweenStreams(t *testing.T) {
	src := `<results>{ for $b in $ROOT/bib/book return <r>{ $b/title }<sep/>{ $b/author }</r> }</results>`
	p := plan(t, src, strongBib)
	doc := `<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>9</price></book></bib>`
	got, _ := runPlan(t, p, doc)
	want := `<results><r><title>T</title><sep/><author>A</author></r></results>`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestEarlyBufferFree: after the handler reading a buffered label fires,
// the label's buffers are released before the element ends.
func TestEarlyBufferFree(t *testing.T) {
	// price is buffered (output before title forces buffering of title;
	// actually: output authors after titles under weak DTD).
	p := plan(t, q3, weakBib)
	// Construct one book whose author load is big; the peak must be about
	// one book's authors even though the book also has trailing titles
	// after the authors... (title|author)* allows that.
	doc := `<bib><book><author>` + strings.Repeat("x", 1000) + `</author><title>T</title></book><book><title>U</title></book></bib>`
	_, st := runPlan(t, p, doc)
	if st.PeakBufferBytes < 1000 {
		t.Errorf("author buffer unaccounted: %d", st.PeakBufferBytes)
	}
	if st.PeakBufferBytes > 2500 {
		t.Errorf("buffer not released between books: %d", st.PeakBufferBytes)
	}
}

// TestStreamedAndBufferedLabel: with the optimizer disabled, a label can
// be both streamed (first loop) and buffered (second loop over the same
// label); outputs must still be correct.
func TestStreamedAndBufferedLabel(t *testing.T) {
	d := `
<!ELEMENT bib (book)*>
<!ELEMENT book (publisher)>
<!ELEMENT publisher (#PCDATA)>
`
	src := `<results>{ for $b in $ROOT/bib/book return <r>{ for $x in $b/publisher return <p1>{ $x/text() }</p1> }{ for $y in $b/publisher return <p2>{ $y/text() }</p2> }</r> }</results>`
	// Schedule WITHOUT loop merging (raw normalized query).
	p := plan(t, src, d)
	got, _ := runPlan(t, p, `<bib><book><publisher>AW</publisher></book></bib>`)
	want := `<results><r><p1>AW</p1><p2>AW</p2></r></results>`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestExplainSurfaces(t *testing.T) {
	p := plan(t, q3, weakBib)
	if p.BDF == nil || !strings.Contains(p.BDF.String(), "author") {
		t.Errorf("plan BDF missing author buffer:\n%v", p.BDF)
	}
}
