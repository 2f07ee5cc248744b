package xsax

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"fluxquery/internal/dtd"
	"fluxquery/internal/proj"
	"fluxquery/internal/xmltok"
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

const strongDoc = `<bib>
<book><title>T1</title><author>A1</author><author>A2</author><publisher>P</publisher><price>9</price></book>
<book><title>T2</title><editor>E1</editor><publisher>P</publisher><price>8</price></book>
</bib>`

func TestValidateAcceptsValid(t *testing.T) {
	d := dtd.MustParse(strongBib)
	if err := Validate(strings.NewReader(strongDoc), d); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestValidateRejectsInvalid(t *testing.T) {
	d := dtd.MustParse(strongBib)
	cases := []struct{ name, doc string }{
		{"wrong root", `<book></book>`},
		{"undeclared element", `<bib><magazine/></bib>`},
		{"missing title", `<bib><book><author>A</author><publisher>P</publisher><price>9</price></book></bib>`},
		{"author and editor", `<bib><book><title>T</title><author>A</author><editor>E</editor><publisher>P</publisher><price>9</price></book></bib>`},
		{"wrong order", `<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>9</price></book></bib>`},
		{"premature end", `<bib><book><title>T</title><author>A</author></book></bib>`},
		{"text in element content", `<bib>stray text</bib>`},
		{"mismatched tags", `<bib><book></bib></book>`},
	}
	for _, c := range cases {
		if err := Validate(strings.NewReader(c.doc), d); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.doc)
		}
	}
}

func TestWhitespaceInElementContentDropped(t *testing.T) {
	d := dtd.MustParse(weakBib)
	r := NewReader(strings.NewReader("<bib>\n  <book>\n    <title>T</title>\n  </book>\n</bib>"), d)
	var kinds []xmltok.Kind
	for {
		ev, err := r.NextEvent()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
	}
	// No Text tokens except inside title.
	want := []xmltok.Kind{
		xmltok.StartElement, xmltok.StartElement, xmltok.StartElement,
		xmltok.Text, xmltok.EndElement, xmltok.EndElement, xmltok.EndElement,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

// past reports whether, at the reader's current position inside the
// innermost open element, no further child labeled in set can occur: the
// paper's past() (on-first) condition over the validator's state.
func past(r *Reader, set []string) bool {
	f := &r.stack[len(r.stack)-1]
	return f.elem.Automaton().Past(f.state, set)
}

// nextEvent returns the reader's next event, failing the test on error.
func nextEvent(t *testing.T, r *Reader) *Event {
	t.Helper()
	ev, err := r.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestReaderPast reproduces the paper's Figure 1 scenario on the reader's
// content-model state: under the strong DTD, past(title) holds right
// after the title child, and past(author,editor) once the publisher
// child has advanced the state.
func TestReaderPast(t *testing.T) {
	d := dtd.MustParse(strongBib)
	doc := `<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>9</price></book></bib>`
	r := NewReader(strings.NewReader(doc), d)
	skip := func(n int) {
		for i := 0; i < n; i++ {
			nextEvent(t, r)
		}
	}
	skip(2) // <bib> <book>
	if past(r, []string{"title"}) {
		t.Error("at book start, title still possible")
	}
	skip(3) // <title> T </title>
	if !past(r, []string{"title"}) {
		t.Error("after title, no more titles under strong DTD")
	}
	if past(r, []string{"author", "editor"}) {
		t.Error("authors still possible after title")
	}
	skip(3) // <author> A </author>
	if past(r, []string{"author"}) {
		t.Error("more authors possible (author+)")
	}
	skip(3) // <publisher> P </publisher>
	if !past(r, []string{"author", "editor"}) {
		t.Error("after publisher, author/editor are past")
	}
}

// TestReaderSkip: a subtree the projection prunes is skipped whole in
// both modes — the event after its shell start is its own end tag, and
// the next is the following sibling's start.
func TestReaderSkip(t *testing.T) {
	d := dtd.MustParse(strongBib)
	doc := `<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>9</price></book><book><title>U</title><editor>E</editor><publisher>P</publisher><price>1</price></book></bib>`
	ps := proj.NewPathSet()
	ps.Root.Child("bib")
	for _, mode := range []proj.Mode{proj.ModeFast, proj.ModeValidate} {
		r := NewReader(strings.NewReader(doc), d)
		r.SetProjection(proj.Compile(ps), mode)
		nextEvent(t, r) // <bib>
		var got []string
		for i := 0; i < 3; i++ {
			ev := nextEvent(t, r)
			got = append(got, fmt.Sprintf("%v:%s", ev.Kind, ev.Name))
		}
		want := []string{
			fmt.Sprintf("%v:book", xmltok.StartElement),
			fmt.Sprintf("%v:book", xmltok.EndElement),
			fmt.Sprintf("%v:book", xmltok.StartElement),
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("mode %v: events %v, want %v", mode, got, want)
		}
	}
}

// TestSkipValidatesWhileSkipping: in validate mode a pruned subtree's
// interior is still stepped through its content model, so a child out
// of order inside it (editor after author) is reported.
func TestSkipValidatesWhileSkipping(t *testing.T) {
	d := dtd.MustParse(strongBib)
	doc := `<bib><book><title>T</title><author>A</author><editor>E</editor><publisher>P</publisher><price>9</price></book></bib>`
	ps := proj.NewPathSet()
	ps.Root.Child("bib")
	r := NewReader(strings.NewReader(doc), d)
	r.SetProjection(proj.Compile(ps), proj.ModeValidate)
	var err error
	for err == nil {
		_, err = r.NextEvent()
	}
	if err == io.EOF {
		t.Error("invalid content inside a pruned subtree accepted")
	}
}

// TestAnyContentModel: ANY elements accept any declared children and
// text, and past() over ANY never holds inside the element (its
// children stay possible until the end tag).
func TestAnyContentModel(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT box ANY>
<!ELEMENT item (#PCDATA)>
`)
	if err := Validate(strings.NewReader(`<box>text<item>i</item><box><item>j</item></box></box>`), d); err != nil {
		t.Fatalf("ANY document rejected: %v", err)
	}
	r := NewReader(strings.NewReader(`<box><item>i</item><item>j</item></box>`), d)
	nextEvent(t, r) // <box>
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ { // <item> text </item>
			nextEvent(t, r)
		}
		if past(r, []string{"item"}) {
			t.Errorf("past(item) holds inside ANY after %d items", i+1)
		}
	}
}

func TestValidateAttributesViaReader(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT bib (book)*>
<!ELEMENT book (#PCDATA)>
<!ATTLIST book year CDATA #REQUIRED>
`)
	if err := Validate(strings.NewReader(`<bib><book year="1994">x</book></bib>`), d); err != nil {
		t.Errorf("valid attrs rejected: %v", err)
	}
	if err := Validate(strings.NewReader(`<bib><book>x</book></bib>`), d); err == nil {
		t.Error("missing required attribute accepted")
	}
}

func TestEmptyDocumentRejected(t *testing.T) {
	d := dtd.MustParse(weakBib)
	if err := Validate(strings.NewReader("   "), d); err == nil {
		t.Error("empty document accepted")
	}
}
