package dtd

import (
	"math/rand"
	"strings"
	"testing"
)

// The two bibliography DTDs from the paper (§2 and Figure 1).
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

// The unsafe variant from §2: price follows an interleaved prefix.
const mixedOrderBib = `
<!ELEMENT bib (book)*>
<!ELEMENT book ((title|author)*,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`

func TestParseWeakBib(t *testing.T) {
	d := MustParse(weakBib)
	if d.Root != "bib" {
		t.Errorf("root = %q", d.Root)
	}
	if len(d.Order) != 4 {
		t.Errorf("declared %d elements", len(d.Order))
	}
	if got := d.Elements["book"].Model.String(); got != "(title|author)*" {
		t.Errorf("book model = %s", got)
	}
}

func TestParseAttlist(t *testing.T) {
	d := MustParse(`
<!ELEMENT book (#PCDATA)>
<!ATTLIST book year CDATA #REQUIRED
               kind (hard|soft) "soft"
               id ID #IMPLIED
               ver CDATA #FIXED "1">
`)
	e := d.Elements["book"]
	if len(e.Atts) != 4 {
		t.Fatalf("got %d attdefs", len(e.Atts))
	}
	if e.AttDef("year").Default != AttRequired {
		t.Error("year should be #REQUIRED")
	}
	k := e.AttDef("kind")
	if k.Type != AttEnum || len(k.Enum) != 2 || k.Value != "soft" {
		t.Errorf("kind = %+v", k)
	}
	if e.AttDef("ver").Default != AttFixed || e.AttDef("ver").Value != "1" {
		t.Error("ver should be fixed to 1")
	}
}

func TestParseDoctype(t *testing.T) {
	d, err := ParseDoctype(`DOCTYPE bib [
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
]`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != "bib" {
		t.Errorf("root = %q", d.Root)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"garbage", "hello"},
		{"undeclared child", "<!ELEMENT a (b)>"},
		{"mixed separators", "<!ELEMENT a (b,c|d)><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>"},
		{"mixed without star", "<!ELEMENT a (#PCDATA|b)><!ELEMENT b EMPTY>"},
		{"duplicate element", "<!ELEMENT a EMPTY><!ELEMENT a EMPTY>"},
		{"attlist only", "<!ATTLIST a x CDATA #IMPLIED>"},
		{"pcdata nested", "<!ELEMENT a ((#PCDATA),b)><!ELEMENT b EMPTY>"},
		{"unclosed decl", "<!ELEMENT a (b"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestValidateChildren(t *testing.T) {
	d := MustParse(strongBib)
	valid := [][]string{
		{"title", "author", "publisher", "price"},
		{"title", "author", "author", "publisher", "price"},
		{"title", "editor", "publisher", "price"},
	}
	for _, w := range valid {
		if err := d.ValidateChildren("book", w); err != nil {
			t.Errorf("%v should be valid: %v", w, err)
		}
	}
	invalid := [][]string{
		{},
		{"title"},
		{"title", "publisher", "price"}, // no author/editor
		{"title", "author", "editor", "publisher", "price"}, // both
		{"author", "title", "publisher", "price"},           // order
		{"title", "author", "price", "publisher"},           // order
		{"title", "author", "publisher", "price", "price"},  // extra
	}
	for _, w := range invalid {
		if err := d.ValidateChildren("book", w); err == nil {
			t.Errorf("%v should be invalid", w)
		}
	}
}

func TestValidateChildrenAny(t *testing.T) {
	d := MustParse(`<!ELEMENT a ANY><!ELEMENT b EMPTY>`)
	if err := d.ValidateChildren("a", []string{"b", "a", "b"}); err != nil {
		t.Errorf("ANY should accept declared children: %v", err)
	}
	if err := d.ValidateChildren("a", []string{"zzz"}); err == nil {
		t.Error("ANY must reject undeclared children")
	}
}

func TestValidateAttrs(t *testing.T) {
	d := MustParse(`
<!ELEMENT b (#PCDATA)>
<!ATTLIST b year CDATA #REQUIRED kind (x|y) #IMPLIED>
`)
	if err := d.ValidateAttrs("b", map[string]string{"year": "1994"}); err != nil {
		t.Errorf("valid attrs rejected: %v", err)
	}
	if err := d.ValidateAttrs("b", map[string]string{}); err == nil {
		t.Error("missing required attr accepted")
	}
	if err := d.ValidateAttrs("b", map[string]string{"year": "1", "kind": "z"}); err == nil {
		t.Error("bad enum value accepted")
	}
	if err := d.ValidateAttrs("b", map[string]string{"year": "1", "oops": "v"}); err == nil {
		t.Error("undeclared attr accepted")
	}
}

func TestCardinalityPaperExamples(t *testing.T) {
	strong := MustParse(strongBib)
	weak := MustParse(weakBib)
	cases := []struct {
		d             *DTD
		parent, child string
		want          Card
	}{
		{strong, "bib", "book", CardMany},
		{strong, "book", "title", CardOne},
		{strong, "book", "author", CardMany},
		{strong, "book", "editor", CardMany},
		{strong, "book", "publisher", CardOne}, // the loop-merging premise
		{strong, "book", "price", CardOne},
		{strong, "book", "bib", CardNone},
		{weak, "book", "title", CardMany},
		{weak, "book", "author", CardMany},
		{weak, "title", "author", CardNone},
	}
	for _, c := range cases {
		if got := c.d.Cardinality(c.parent, c.child); got != c.want {
			t.Errorf("card(%s,%s) = %v, want %v", c.parent, c.child, got, c.want)
		}
	}
	if !MustParse(strongBib).Cardinality("book", "publisher").AtMostOne() {
		t.Error("publisher must satisfy the ||<=1 premise")
	}
}

func TestOrderConstraintPaperExamples(t *testing.T) {
	strong := MustParse(strongBib)
	weak := MustParse(weakBib)
	mixed := MustParse(mixedOrderBib)

	// Figure 1 DTD: titles strictly precede authors -> streaming possible.
	if !strong.OrderBefore("book", "title", "author") {
		t.Error("strong DTD: title must precede author")
	}
	if strong.OrderBefore("book", "author", "title") {
		t.Error("strong DTD: author does not precede title")
	}
	if !strong.OrderBefore("book", "author", "publisher") {
		t.Error("strong DTD: author precedes publisher")
	}
	if !strong.OrderBefore("book", "publisher", "price") {
		t.Error("strong DTD: publisher precedes price")
	}
	// Weak DTD: interleaving allowed -> no order constraint.
	if weak.OrderBefore("book", "title", "author") {
		t.Error("weak DTD: title/author are interleaved")
	}
	// Mixed-order DTD: title and author interleave, but both precede price.
	if mixed.OrderBefore("book", "title", "author") {
		t.Error("mixed DTD: title/author interleave")
	}
	if !mixed.OrderBefore("book", "title", "price") || !mixed.OrderBefore("book", "author", "price") {
		t.Error("mixed DTD: title and author precede price")
	}
	// Self order == at-most-one.
	if !strong.OrderBefore("book", "title", "title") {
		t.Error("title occurs at most once, so order(title,title) holds")
	}
	if strong.OrderBefore("book", "author", "author") {
		t.Error("author can repeat, so order(author,author) must fail")
	}
}

func TestConflictPaperExample(t *testing.T) {
	strong := MustParse(strongBib)
	// The paper: a book can never have both author and editor children.
	if !strong.Conflict("book", "author", "editor") {
		t.Error("author/editor must conflict under Figure 1 DTD")
	}
	if strong.Conflict("book", "title", "author") {
		t.Error("title/author do not conflict")
	}
	if strong.Conflict("book", "author", "publisher") {
		t.Error("author/publisher do not conflict")
	}
}

func TestGuaranteed(t *testing.T) {
	strong := MustParse(strongBib)
	if !strong.Guaranteed("book", "title") {
		t.Error("title is guaranteed")
	}
	if !strong.Guaranteed("book", "publisher") {
		t.Error("publisher is guaranteed")
	}
	if strong.Guaranteed("book", "author") {
		t.Error("author is not guaranteed (editor branch)")
	}
	if strong.Guaranteed("bib", "book") {
		t.Error("book* may be empty")
	}
}

func TestPastImpliesPaperSafetyExamples(t *testing.T) {
	weak := MustParse(weakBib)
	mixed := MustParse(mixedOrderBib)
	// Safe: in the weak DTD, once past(title,author), no author can come.
	if !weak.PastImplies("book", []string{"title", "author"}, "author") {
		t.Error("past(title,author) must imply past(author)")
	}
	// Unsafe (paper §2): under ((title|author)*,price), when
	// past(title,author) fires the price may still be pending.
	if mixed.PastImplies("book", []string{"title", "author"}, "price") {
		t.Error("past(title,author) must NOT imply past(price)")
	}
	// But past(price) implies past(title): price is last.
	if !mixed.PastImplies("book", []string{"price"}, "title") {
		t.Error("past(price) implies past(title)")
	}
}

func TestPastOnStates(t *testing.T) {
	d := MustParse(strongBib)
	a := d.Elements["book"].Automaton()
	q := a.Start()
	if a.Past(q, []string{"title"}) {
		t.Error("at start, title still possible")
	}
	q = a.Step(q, "title")
	if q < 0 {
		t.Fatal("title step failed")
	}
	if !a.Past(q, []string{"title"}) {
		t.Error("after title, no further title possible")
	}
	if a.Past(q, []string{"author"}) {
		t.Error("after title, authors still possible")
	}
	q = a.Step(q, "author")
	q = a.Step(q, "publisher")
	if !a.Past(q, []string{"author", "editor"}) {
		t.Error("after publisher, authors/editors are past")
	}
}

func TestDTDStringRoundTrip(t *testing.T) {
	d := MustParse(strongBib)
	d2, err := Parse(d.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, d.String())
	}
	if d2.String() != d.String() {
		t.Errorf("DTD printing not a fixpoint:\n%s\nvs\n%s", d.String(), d2.String())
	}
}

// TestDTDStringNestedRepetitions: a repetition applied to a repetition
// renders with brackets, so String parses back to the same DTD.
func TestDTDStringNestedRepetitions(t *testing.T) {
	for _, model := range []string{"((a)*)*", "(a*)*", "((a)?)+", "((a,b)*)?", "(a,((b)*)+)"} {
		src := "<!ELEMENT r " + model + ">\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n"
		d, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		d2, err := Parse(d.String())
		if err != nil {
			t.Errorf("%s: String does not parse back: %v\n%s", model, err, d.String())
			continue
		}
		if d2.String() != d.String() {
			t.Errorf("%s: printing not a fixpoint:\n%s\nvs\n%s", model, d.String(), d2.String())
		}
		if got, want := d2.Elements["r"].Model.String(), d.Elements["r"].Model.String(); got != want {
			t.Errorf("%s: reparsed model %s, want %s", model, got, want)
		}
	}
}

// --- Oracle-based property tests ---------------------------------------

// matches is a Brzozowski-derivative matcher used as an independent oracle
// for the automaton construction.
func matches(m Model, word []string) bool {
	for _, s := range word {
		m = derive(m, s)
		if m == nil {
			return false
		}
	}
	return nullable(m)
}

func nullable(m Model) bool {
	switch t := m.(type) {
	case Name:
		return false
	case Seq:
		for _, i := range t.Items {
			if !nullable(i) {
				return false
			}
		}
		return true
	case Choice:
		for _, i := range t.Items {
			if nullable(i) {
				return true
			}
		}
		return false
	case Rep:
		return t.Op != OneOrMore || nullable(t.Item)
	default: // Empty, PCData, Mixed handled elsewhere
		return true
	}
}

// derive returns the derivative of m w.r.t. symbol s, or nil for the empty
// language.
func derive(m Model, s string) Model {
	switch t := m.(type) {
	case Name:
		if t.Label == s {
			return Seq{} // epsilon
		}
		return nil
	case Seq:
		if len(t.Items) == 0 {
			return nil
		}
		head, tail := t.Items[0], Seq{Items: t.Items[1:]}
		var alts []Model
		if dh := derive(head, s); dh != nil {
			alts = append(alts, Seq{Items: append([]Model{dh}, tail.Items...)})
		}
		if nullable(head) {
			if dt := derive(tail, s); dt != nil {
				alts = append(alts, dt)
			}
		}
		return alt(alts)
	case Choice:
		var alts []Model
		for _, i := range t.Items {
			if d := derive(i, s); d != nil {
				alts = append(alts, d)
			}
		}
		return alt(alts)
	case Rep:
		d := derive(t.Item, s)
		if d == nil {
			return nil
		}
		if t.Op == ZeroOrOne {
			return d
		}
		return Seq{Items: []Model{d, Rep{Item: t.Item, Op: ZeroOrMore}}}
	default:
		return nil
	}
}

func alt(ms []Model) Model {
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	default:
		return Choice{Items: ms}
	}
}

// randomModel builds a random content model over the alphabet.
func randomModel(r *rand.Rand, alphabet []string, depth int) Model {
	if depth <= 0 || r.Intn(3) == 0 {
		return Name{Label: alphabet[r.Intn(len(alphabet))]}
	}
	n := 1 + r.Intn(3)
	items := make([]Model, n)
	for i := range items {
		items[i] = randomModel(r, alphabet, depth-1)
	}
	var m Model
	if r.Intn(2) == 0 {
		m = Seq{Items: items}
	} else {
		m = Choice{Items: items}
	}
	switch r.Intn(4) {
	case 0:
		m = Rep{Item: m, Op: ZeroOrOne}
	case 1:
		m = Rep{Item: m, Op: ZeroOrMore}
	case 2:
		m = Rep{Item: m, Op: OneOrMore}
	}
	return m
}

// enumWords yields all words over alphabet up to maxLen.
func enumWords(alphabet []string, maxLen int) [][]string {
	words := [][]string{{}}
	frontier := [][]string{{}}
	for l := 0; l < maxLen; l++ {
		var next [][]string
		for _, w := range frontier {
			for _, s := range alphabet {
				nw := append(append([]string(nil), w...), s)
				next = append(next, nw)
				words = append(words, nw)
			}
		}
		frontier = next
	}
	return words
}

// TestAutomatonAgreesWithDerivativeOracle cross-checks DFA acceptance
// against the derivative matcher on random models and all short words.
func TestAutomatonAgreesWithDerivativeOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	alphabet := []string{"a", "b", "c"}
	words := enumWords(alphabet, 5)
	for i := 0; i < 200; i++ {
		m := randomModel(r, alphabet, 3)
		a, err := buildAutomaton(m)
		if err != nil {
			t.Fatalf("build %s: %v", m, err)
		}
		for _, w := range words {
			q := a.Start()
			ok := true
			for _, s := range w {
				q = a.Step(q, s)
				if q < 0 {
					ok = false
					break
				}
			}
			got := ok && a.Accepting(q)
			want := matches(m, w)
			if got != want {
				t.Fatalf("model %s word %v: dfa=%v oracle=%v", m, w, got, want)
			}
		}
	}
}

// TestConstraintsAgreeWithBruteForce verifies cardinality, order and
// conflict analyses against brute-force enumeration of the content
// language.
func TestConstraintsAgreeWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b"}
	words := enumWords(alphabet, 6)
	decls := `<!ELEMENT a EMPTY><!ELEMENT b EMPTY>`
	for i := 0; i < 150; i++ {
		m := randomModel(r, alphabet, 2)
		d, err := Parse("<!ELEMENT root " + modelDecl(m) + ">" + decls)
		if err != nil {
			t.Fatalf("parse %s: %v", m, err)
		}
		var accepted [][]string
		for _, w := range words {
			if matches(m, w) {
				accepted = append(accepted, w)
			}
		}
		// NOTE: with maxLen 6, counts are exact for small models but a
		// lower bound in general; use only facts stable under extension:
		// a word with two a's refutes AtMostOne; a word with a after b
		// refutes order; a word with both refutes conflict.
		count := func(w []string, s string) int {
			n := 0
			for _, x := range w {
				if x == s {
					n++
				}
			}
			return n
		}
		for _, x := range alphabet {
			card := d.Cardinality("root", x)
			sawTwo, sawAny := false, false
			for _, w := range accepted {
				c := count(w, x)
				if c >= 1 {
					sawAny = true
				}
				if c >= 2 {
					sawTwo = true
				}
			}
			if sawTwo && card.AtMostOne() {
				t.Fatalf("model %s: card(%s)=%v but word with 2 found", m, x, card)
			}
			if sawAny && card == CardNone {
				t.Fatalf("model %s: card(%s)=0 but %s occurs", m, x, x)
			}
			if !sawAny && card != CardNone && len(accepted) > 0 && len(words) > 60 {
				// With enumeration up to length 6 and model depth 2, any
				// possible label occurs in some word of length <= 6.
				t.Fatalf("model %s: card(%s)=%v but never occurs", m, x, card)
			}
		}
		orderAB := d.OrderBefore("root", "a", "b")
		conflictAB := d.Conflict("root", "a", "b")
		for _, w := range accepted {
			sawB := false
			both := count(w, "a") > 0 && count(w, "b") > 0
			violation := false
			for _, s := range w {
				if s == "b" {
					sawB = true
				} else if s == "a" && sawB {
					violation = true
				}
			}
			if violation && orderAB {
				t.Fatalf("model %s: order(a,b) claimed but %v accepted", m, w)
			}
			if both && conflictAB {
				t.Fatalf("model %s: conflict(a,b) claimed but %v accepted", m, w)
			}
		}
	}
}

// TestPastAgreesWithBruteForce: for each accepted prefix, Past(q,{x}) must
// equal "no accepted extension of the prefix contains x".
func TestPastAgreesWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	alphabet := []string{"a", "b"}
	words := enumWords(alphabet, 5)
	for i := 0; i < 100; i++ {
		m := randomModel(r, alphabet, 2)
		a, err := buildAutomaton(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			q := a.Start()
			valid := true
			for _, s := range w {
				q = a.Step(q, s)
				if q < 0 {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			for _, x := range alphabet {
				past := a.Past(q, []string{x})
				// Oracle: does some word = w ++ suffix (len(suffix)<=6)
				// accepted by m contain x in the suffix? The bound must
				// exceed any loop body length of the small models used here.
				canStill := false
				for _, suf := range enumWords(alphabet, 6) {
					hasX := false
					for _, s := range suf {
						if s == x {
							hasX = true
						}
					}
					if !hasX {
						continue
					}
					if matches(m, append(append([]string(nil), w...), suf...)) {
						canStill = true
						break
					}
				}
				if past && canStill {
					t.Fatalf("model %s prefix %v: Past(%s) but extension exists", m, w, x)
				}
				// The converse may be cut off by the suffix bound for deep
				// models; only check it for short-language models.
				if !past && !canStill && a.NumStates() <= 4 {
					t.Fatalf("model %s prefix %v: !Past(%s) but no extension found", m, w, x)
				}
			}
		}
	}
}

func TestConstraintSummary(t *testing.T) {
	d := MustParse(strongBib)
	s := d.ConstraintSummary("book")
	for _, want := range []string{
		"card(title) = 1",
		"card(author) = *",
		"order: all title before all author",
		"conflict: never both author and editor",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
