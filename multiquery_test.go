package fluxquery

// Multi-query differential harness: a generator produces FAMILIES of
// overlapping queries — queries within a family loop over the same
// schema path, so their projection automata share prefixes and the
// dispatch trie interns them — with the family-reuse probability (the
// overlap ratio) under test control. Every generated set must produce,
// through a trie-dispatched shared pass at several pipeline widths,
// byte-identical output to N independent Plan.Execute runs. The CI
// multiquery-differential job runs these under -race at overlap ratios
// 0.1 and 0.9 (MULTIQUERY_OVERLAP selects one; unset runs both).

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"fluxquery/internal/workload"
	"fluxquery/internal/xmlgen"
)

// ogen generates overlapping queries. A family is a loop path (a chain
// of element names from the document root); with probability overlap a
// new query joins an existing family — same loop path, different body —
// otherwise it starts a fresh one.
type ogen struct {
	r        *rand.Rand
	s        *schemaInfo
	overlap  float64
	families [][]string
	seq      int
}

// chain picks a random element chain from the document root.
func (g *ogen) chain() []string {
	cur := g.s.d.Root
	chain := []string{cur}
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		kids := g.s.children(cur)
		if len(kids) == 0 {
			break
		}
		cur = kids[g.r.Intn(len(kids))]
		chain = append(chain, cur)
	}
	return chain
}

func (g *ogen) path() []string {
	if len(g.families) > 0 && g.r.Float64() < g.overlap {
		return g.families[g.r.Intn(len(g.families))]
	}
	c := g.chain()
	g.families = append(g.families, c)
	return c
}

func (g *ogen) query() string {
	g.seq++
	p := g.path()
	v := fmt.Sprintf("m%d", g.seq)
	// Bodies vary per member (reusing the random-query generator's body
	// machinery), so family members share dispatch paths but not output.
	qg := &qgen{r: g.r, s: g.s, next: g.seq * 100}
	body := qg.output(v, p[len(p)-1], 2)
	return fmt.Sprintf("<out>{ for $%s in $ROOT/%s return <rec>%s</rec> }</out>",
		v, strings.Join(p, "/"), body)
}

// overlapRatios returns the ratios to test: both by default, or the one
// selected by MULTIQUERY_OVERLAP (the CI job matrix sets 0.1 and 0.9).
func overlapRatios(t *testing.T) []float64 {
	switch os.Getenv("MULTIQUERY_OVERLAP") {
	case "":
		return []float64{0.1, 0.9}
	case "0.1":
		return []float64{0.1}
	case "0.9":
		return []float64{0.9}
	default:
		t.Fatalf("MULTIQUERY_OVERLAP must be 0.1 or 0.9, got %q", os.Getenv("MULTIQUERY_OVERLAP"))
		return nil
	}
}

// runSharedDifferential executes every plan independently (the
// reference), then runs all of them through shared passes in both
// dispatch modes at the given pipeline widths, asserting byte-identical
// per-plan output everywhere.
func runSharedDifferential(t *testing.T, dtdSrc string, queries []string, doc string, widths []int) {
	t.Helper()
	d, err := ParseDTD(dtdSrc)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, len(queries))
	refs := make([]string, len(queries))
	for i, src := range queries {
		plans[i] = MustCompile(src, dtdSrc, Options{})
		out, _, err := plans[i].ExecuteString(doc)
		if err != nil {
			t.Fatalf("independent run of query %d: %v\n%s", i, err, src)
		}
		refs[i] = out
	}
	for _, mode := range []Dispatch{DispatchFanout, DispatchTrie} {
		for _, w := range widths {
			set := NewStreamSet(d)
			set.SetDispatch(mode)
			set.SetParallel(w)
			outs := make([]*bytes.Buffer, len(plans))
			regs := make([]*StreamQuery, len(plans))
			for i, p := range plans {
				outs[i] = &bytes.Buffer{}
				reg, err := set.Register(p, outs[i])
				if err != nil {
					t.Fatal(err)
				}
				regs[i] = reg
			}
			if err := set.Run(strings.NewReader(doc)); err != nil {
				t.Fatalf("mode=%v width=%d: %v", mode, w, err)
			}
			for i := range outs {
				if _, qerr := regs[i].Stats(); qerr != nil {
					t.Fatalf("mode=%v width=%d query %d failed in shared pass: %v\nquery: %s",
						mode, w, i, qerr, queries[i])
				}
				if got := outs[i].String(); got != refs[i] {
					t.Fatalf("mode=%v width=%d query %d: shared output differs from independent Execute\nquery: %s\ngot:  %.300s\nwant: %.300s",
						mode, w, i, queries[i], got, refs[i])
				}
			}
			if ds := set.LastDispatch(); ds.Mode != mode.String() {
				t.Errorf("mode=%v width=%d: LastDispatch mode %q", mode, w, ds.Mode)
			} else if mode == DispatchTrie && ds.Deliveries == 0 && len(plans) > 0 {
				t.Errorf("width=%d: trie pass delivered nothing: %+v", w, ds)
			}
		}
	}
}

// TestMultiQueryOverlapDifferential: randomized overlapping query sets
// over the bib schemas, trie-dispatched shared pass vs independent
// execution, at widths 1, 2 and 8.
func TestMultiQueryOverlapDifferential(t *testing.T) {
	for _, overlap := range overlapRatios(t) {
		overlap := overlap
		t.Run(fmt.Sprintf("overlap=%v", overlap), func(t *testing.T) {
			for _, dtdSrc := range []string{xmlgen.WeakBibDTD, xmlgen.StrongBibDTD} {
				s := newSchemaInfo(dtdSrc)
				g := &ogen{r: rand.New(rand.NewSource(int64(100 * overlap))), s: s, overlap: overlap}
				var queries []string
				for len(queries) < 16 {
					src := g.query()
					if _, err := ParseQuery(src); err != nil {
						t.Fatalf("generated query does not parse: %v\n%s", err, src)
					}
					queries = append(queries, src)
				}
				// Family reuse must actually have happened at high overlap.
				if overlap > 0.5 && len(g.families) >= len(queries) {
					t.Fatalf("overlap %v produced no shared families (%d families for %d queries)",
						overlap, len(g.families), len(queries))
				}
				for di := 0; di < 2; di++ {
					var doc bytes.Buffer
					if err := xmlgen.WriteRandom(&doc, s.d, xmlgen.RandomConfig{
						Seed: int64(di + 1), MaxDepth: 5, MaxChildren: 6,
					}); err != nil {
						t.Fatal(err)
					}
					runSharedDifferential(t, dtdSrc, queries, doc.String(), []int{1, 2, 8})
				}
			}
		})
	}
}

// TestMultiQueryXMarkTrieDifferential: all 8 XMark streaming queries
// ride trie-dispatched shared passes at widths 1, 2 and 8; every output
// must match the query's independent Execute.
func TestMultiQueryXMarkTrieDifferential(t *testing.T) {
	var xmark []*workload.Case
	for i := range workload.Cases {
		if strings.HasPrefix(workload.Cases[i].Name, "xmark-") {
			xmark = append(xmark, &workload.Cases[i])
		}
	}
	if len(xmark) != 8 {
		t.Fatalf("expected 8 xmark queries, got %d", len(xmark))
	}
	var doc bytes.Buffer
	if err := xmark[0].Gen(&doc, 100_000, 23); err != nil {
		t.Fatal(err)
	}
	queries := make([]string, len(xmark))
	for i, c := range xmark {
		queries[i] = c.Query
	}
	runSharedDifferential(t, xmark[0].DTD, queries, doc.String(), []int{1, 2, 8})
}

// TestMultiQueryTrieStatsFlat: registering the same overlapping family
// many times must not grow the trie: structure size is bound by the
// distinct paths, only fan-out lists widen.
func TestMultiQueryTrieStatsFlat(t *testing.T) {
	dtdSrc := xmlgen.WeakBibDTD
	d, err := ParseDTD(dtdSrc)
	if err != nil {
		t.Fatal(err)
	}
	doc := `<bib><book year="2000"><title>t</title><author>a</author></book></bib>`
	q := `<out>{ for $b in $ROOT/bib/book return <r>{ $b/title }</r> }</out>`
	nodes := func(n int) (int, int) {
		set := NewStreamSet(d)
		set.SetDispatch(DispatchTrie)
		p := MustCompile(q, dtdSrc, Options{})
		for i := 0; i < n; i++ {
			if _, err := set.Register(p, io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.RunString(doc); err != nil {
			t.Fatal(err)
		}
		ds := set.LastDispatch()
		return ds.TrieNodes, ds.MaxFanout
	}
	n1, _ := nodes(1)
	n100, f100 := nodes(100)
	if n100 != n1 {
		t.Errorf("100 identical registrations interned to %d nodes, single registration %d", n100, n1)
	}
	if f100 != 100 {
		t.Errorf("max fanout = %d, want 100", f100)
	}
}

// TestMultiQueryDeepPathTrieFlood: a plan whose loop path runs past the
// trie's depth cap still matches independent execution byte for byte —
// past shared.DepthCap the builder stops growing the product and floods
// the subtree to every still-active plan, which over-delivers (safe)
// instead of truncating.
func TestMultiQueryDeepPathTrieFlood(t *testing.T) {
	const depth = 70 // past shared.DepthCap (64)
	dtdSrc := `<!ELEMENT d (n)*>
<!ELEMENT n (n|t)*>
<!ELEMENT t (#PCDATA)>
`
	deep := "<out>{ for $x in $ROOT/d" + strings.Repeat("/n", depth) +
		" return <r>{ $x/t }</r> }</out>"
	shallow := `<out>{ for $x in $ROOT/d/n return <r>{ $x/t }</r> }</out>`
	var doc strings.Builder
	doc.WriteString("<d>")
	for i := 0; i < depth; i++ {
		doc.WriteString("<n>")
	}
	doc.WriteString("<n><t>deepest</t></n><t>leaf</t>")
	for i := 0; i < depth; i++ {
		doc.WriteString("</n>")
	}
	doc.WriteString("<n><t>top</t></n></d>")
	runSharedDifferential(t, dtdSrc, []string{deep, shallow}, doc.String(), []int{1, 2})
}

// The dispatch benchmark's catalog: db holds a free mix of catalogGroups
// group elements, each a star of its own item kind with two leaf fields.
// Every content model is an unordered star, so every plan streams
// without buffering and the benchmark isolates dispatch cost.
const (
	catalogGroups        = 32
	catalogItemsPerGroup = 140 // document lands near 256 KB
)

func catalogDTD() string {
	var sb strings.Builder
	sb.WriteString("<!ELEMENT db (")
	for g := 0; g < catalogGroups; g++ {
		if g > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "g%d", g)
	}
	sb.WriteString(")*>\n")
	for g := 0; g < catalogGroups; g++ {
		fmt.Fprintf(&sb, "<!ELEMENT g%d (item%d)*>\n", g, g)
		fmt.Fprintf(&sb, "<!ELEMENT item%d (name%d|val%d)*>\n", g, g, g)
		fmt.Fprintf(&sb, "<!ELEMENT name%d (#PCDATA)>\n", g)
		fmt.Fprintf(&sb, "<!ELEMENT val%d (#PCDATA)>\n", g)
	}
	return sb.String()
}

func catalogDoc() []byte {
	var sb bytes.Buffer
	sb.WriteString("<db>")
	for g := 0; g < catalogGroups; g++ {
		fmt.Fprintf(&sb, "<g%d>", g)
		for i := 0; i < catalogItemsPerGroup; i++ {
			fmt.Fprintf(&sb, "<item%d><name%d>n%d-%d</name%d><val%d>%d</val%d></item%d>",
				g, g, g, i, g, g, i%97, g, g)
		}
		fmt.Fprintf(&sb, "</g%d>", g)
	}
	sb.WriteString("</db>")
	return sb.Bytes()
}

func catalogQuery(g int) string {
	return fmt.Sprintf("<out>{ for $x in $ROOT/db/g%d/item%d return <r>{ $x/name%d }</r> }</out>",
		g, g, g)
}

// BenchmarkStreamSetDispatch measures the marginal per-plan cost of one
// shared pass, reported as ns/plan, as registrations grow while the
// path population stays fixed: N plans drawn round-robin from
// catalogGroups loop paths, dispatched by fanout (every event to every
// plan) or by the trie (which interns the families, so delivery cost
// tracks the plans an event reaches). The first pass after registration
// builds the projection union and the trie snapshot and runs outside
// the timer; the benchmark measures the steady state of a long-lived
// set.
func BenchmarkStreamSetDispatch(b *testing.B) {
	dtdSrc := catalogDTD()
	d, err := ParseDTD(dtdSrc)
	if err != nil {
		b.Fatal(err)
	}
	doc := catalogDoc()
	plans := make([]*Plan, catalogGroups)
	for g := range plans {
		plans[g] = MustCompile(catalogQuery(g), dtdSrc, Options{})
	}
	for _, mode := range []Dispatch{DispatchFanout, DispatchTrie} {
		for _, n := range []int{7, 100, 10000} {
			b.Run(fmt.Sprintf("dispatch=%v/plans=%d", mode, n), func(b *testing.B) {
				set := NewStreamSet(d)
				set.SetDispatch(mode)
				for i := 0; i < n; i++ {
					if _, err := set.Register(plans[i%catalogGroups], io.Discard); err != nil {
						b.Fatal(err)
					}
				}
				if err := set.Run(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(doc)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := set.Run(bytes.NewReader(doc)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/plan")
			})
		}
	}
}
