package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"fluxquery"
	"fluxquery/internal/workload"
	"fluxquery/internal/xmlgen"
)

// openRate is serve-open's fixed arrival rate in requests per second:
// about 40 % of the serve-small closed-loop rate measured on the
// reference box (2 cores shared by the load generator and the fluxserve
// child; see README.md). It is frozen so that latency under load is
// comparable between commits; a faster server shows as lower latency, not
// as more load.
const openRate = 160

// openBigEvery makes every n-th serve-open arrival the large document.
const openBigEvery = 16

// xmark7 are the seven non-join XMark queries of the catalogue.
var xmark7 = []string{
	"xmark-q1", "xmark-q13", "xmark-q2-bidders", "xmark-q17-nophone",
	"xmark-q20-cities", "xmark-q4-sellers", "xmark-q11-bids",
}

type kind int

const (
	kindPlan      kind = iota // one plan, Plan.Execute
	kindSet                   // one StreamSet, Run
	kindServe                 // fluxserve child, closed loop
	kindServeOpen             // fluxserve child, open loop
)

const (
	servedQueries  = 100     // registered on the fluxserve child
	smallDocBytes  = 7_000   // the small POST /eval body
	bigDocBytes    = 500_000 // serve-open's every-16th body
	setupReps      = 5       // set-ups per run; setup_s is their median
	warmupPasses   = 3       // in-process warm-up
	ladderReps     = 5       // replays of each ladder stage and traced pass
	tracedRequests = 50      // traced POST /eval operations
)

func (k kind) serve() bool { return k == kindServe || k == kindServeOpen }

// spec names one workload. Document sizes are chosen so that one
// operation takes 20-70 ms in process: a run of run_seconds then holds
// the >= 200 samples a p95 needs, and a pass is long enough that
// per-pass set-up does not dominate it.
type spec struct {
	name     string
	why      string
	kind     kind
	queries  []string // catalogue names
	docBytes int64
	spill    bool
	// gen replaces the catalogue case's document generator.
	gen func(w io.Writer, bytes, seed int64) error
}

// longBids writes an auction document whose open auctions carry bid
// histories of up to 40 bids, eight times the catalogue's. xmark-q1 skips
// them in bulk, so the evaluator's share of a pass falls from 45 % to the
// few percent stream-1q is meant to have (README.md, "Workload split").
func longBids(w io.Writer, bytes, seed int64) error {
	// Factor 1 is roughly 190 KB at this history length.
	return xmlgen.WriteAuction(w, xmlgen.AuctionConfig{Factor: float64(bytes) / 190000, MaxBidders: 40, Seed: seed})
}

var specs = []spec{
	{
		name: "stream-1q", kind: kindPlan, queries: []string{"xmark-q1"}, docBytes: 8_000_000, gen: longBids,
		why: "one selective query over a large auction document with long bid histories: scanner and projection bulk-skip do the work, the evaluator little",
	},
	{
		name: "eval-1q", kind: kindPlan, queries: []string{"xmp-q3-weak"}, docBytes: 2_000_000,
		why: "the paper's running query on a weak-DTD bibliography: nothing can be skipped and output is large, so runtime, eval and writer dominate",
	},
	{
		name: "join-mem", kind: kindPlan, queries: []string{"xmark-q8-join"}, docBytes: 230_000,
		why: "nested-loop join over in-memory BDF buffers: evaluation is nearly all of the time, scanner and dispatch are noise",
	},
	{
		name: "join-spill", kind: kindPlan, queries: []string{"xmark-q8-join"}, docBytes: 230_000, spill: true,
		why: "same join under a spill budget of half its peak: the buffer manager evicts and rehydrates instead of holding",
	},
	{
		name: "multi-7q", kind: kindSet, queries: xmark7, docBytes: 2_000_000,
		why: "seven XMark queries on one StreamSet sharing one scan: dispatch, per-plan rendezvous and the union projection dominate",
	},
	{
		name: "serve-small", kind: kindServe, docBytes: smallDocBytes,
		why: "closed loop of nproc keep-alive connections posting a 7 KB document to a fluxserve child with 100 queries: per-request cost dwarfs scanning",
	},
	{
		name: "serve-open", kind: kindServeOpen, docBytes: smallDocBytes,
		why: "open loop at a fixed 160 req/s on the same server, every 16th body 0.5 MB: latency from the due instant under queueing and head-of-line blocking",
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// namedQuery is one query to register: on a StreamSet or on the server.
type namedQuery struct {
	name string
	src  string
}

// servedSet returns the 100 queries of the serve workloads: the seven
// XMark queries plus 93 generated single-path queries cycling over 32
// path families, so that many registrations share few distinct paths (the
// case the dispatch trie and a long-lived set are built for).
func servedSet() []namedQuery {
	var qs []namedQuery
	for _, n := range xmark7 {
		qs = append(qs, namedQuery{n, workload.ByName(n).Query})
	}
	type rec struct {
		path   string
		leaves []string
	}
	recs := []rec{
		{"people/person", []string{"name", "emailaddress", "phone", "city"}},
		{"open_auctions/open_auction", []string{"initial", "current", "itemref", "seller"}},
		{"closed_auctions/closed_auction", []string{"seller", "buyer", "itemref", "price"}},
		{"items/item", []string{"location", "name", "description", "quantity"}},
	}
	var families []string // 32 = 4 records x 4 leaves x {element, text()}
	for _, r := range recs {
		for _, leaf := range r.leaves {
			for _, sel := range []string{"$x/" + leaf, "$x/" + leaf + "/text()"} {
				families = append(families, fmt.Sprintf(
					"for $x in $ROOT/site/%s return <v>{ %s }</v>", r.path, sel))
			}
		}
	}
	for i := 0; len(qs) < servedQueries; i++ {
		qs = append(qs, namedQuery{
			name: fmt.Sprintf("gen-%02d", i),
			src:  fmt.Sprintf("<g%d>{ %s }</g%d>", i, families[i%len(families)], i),
		})
	}
	return qs
}

// genSized writes a document within a percent of target bytes. The
// generators take a size hint that is off by a seed-dependent factor and,
// for small documents, land a whole record away from it: a first document
// calibrates the hint, then sub-seeds are drawn until a document fits (16
// at most; the closest wins). Large documents fit on the first draw.
// Throughput is counted in input bytes, so a document size that moved
// with the seed would move it too.
func genSized(gen func(io.Writer, int64, int64) error, target, seed int64) ([]byte, error) {
	draw := func(hint, seed int64) ([]byte, error) {
		b := bytes.NewBuffer(make([]byte, 0, 2*target))
		err := gen(b, hint, seed)
		return b.Bytes(), err
	}
	doc, err := draw(target, seed)
	if err != nil {
		return nil, err
	}
	hint := target * target / int64(len(doc))
	off := func(doc []byte) int64 { return max(int64(len(doc))-target, target-int64(len(doc))) }
	var best []byte
	for try := int64(0); try < 16; try++ {
		if doc, err = draw(hint, seed+try*1_000_003); err != nil {
			return nil, err
		}
		if best == nil || off(doc) < off(best) {
			best = doc
		}
		if off(best) <= target/100 {
			break
		}
	}
	return best, nil
}

// sum is a length + FNV-1a 64 digest; as an io.Writer it checks a result
// stream without holding it.
type sum struct {
	n int64
	h uint64
}

func newSum() sum { return sum{h: 14695981039346656037} }

func (s *sum) Write(p []byte) (int, error) {
	h := s.h
	for _, c := range p {
		h = (h ^ uint64(c)) * 1099511628211
	}
	s.h = h
	s.n += int64(len(p))
	return len(p), nil
}

func sumOf(b []byte) sum {
	s := newSum()
	s.Write(b)
	return s
}

// prepared is a workload ready to run: what setup_s pays for.
type prepared struct {
	spec    *spec
	dtdSrc  string
	dtd     *fluxquery.DTD
	doc     []byte
	bigDoc  []byte // serve workloads
	queries []namedQuery
	plans   []*fluxquery.Plan
	bufs    *fluxquery.BufferManager // join-spill
	child   *child                   // serve workloads
}

func (p *prepared) close() error {
	var errs []error
	for _, pl := range p.plans {
		errs = append(errs, pl.Close())
	}
	if p.bufs != nil {
		errs = append(errs, p.bufs.Close())
	}
	if p.child != nil {
		errs = append(errs, p.child.stop())
	}
	return errors.Join(errs...)
}

// prepare is the set-up clock: document generation, DTD parse and
// ParseQuery+Compile of every plan; for serve workloads also the child's
// start to its first healthy /healthz and every PUT /queries/{name}. For
// join-spill it includes the one unbudgeted pass that learns the peak the
// budget halves.
func prepare(s *spec, seed int64, env *env) (*prepared, error) {
	p := &prepared{spec: s}
	c := workload.ByName("xmark-q1")
	if !s.kind.serve() {
		for _, n := range s.queries {
			p.queries = append(p.queries, namedQuery{n, workload.ByName(n).Query})
		}
		c = workload.ByName(s.queries[0])
	} else {
		p.queries = servedSet()
	}
	p.dtdSrc = c.DTD
	gen := c.Gen
	if s.gen != nil {
		gen = s.gen
	}
	var err error
	if p.doc, err = genSized(gen, s.docBytes/env.docDiv, seed); err != nil {
		return nil, err
	}
	if p.dtd, err = fluxquery.ParseDTD(p.dtdSrc); err != nil {
		return nil, err
	}
	if s.kind.serve() {
		if p.bigDoc, err = genSized(gen, bigDocBytes/env.docDiv, seed+1); err != nil {
			return nil, err
		}
		if p.child, err = startChild(env, p.dtdSrc, p.queries); err != nil {
			return nil, err
		}
		return p, nil
	}
	opts := fluxquery.Options{}
	if s.spill {
		free, err := compile(p.queries[0].src, p.dtd, opts)
		if err != nil {
			return nil, err
		}
		st, err := free.Execute(bytes.NewReader(p.doc), io.Discard)
		if err != nil {
			return nil, err
		}
		p.bufs = fluxquery.NewBufferManager(st.PeakBufferBytes/2, fluxquery.BufferSpill, env.out)
		opts.Buffers = p.bufs
	}
	for _, q := range p.queries {
		pl, err := compile(q.src, p.dtd, opts)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		p.plans = append(p.plans, pl)
	}
	return p, nil
}

func compile(src string, d *fluxquery.DTD, o fluxquery.Options) (*fluxquery.Plan, error) {
	q, err := fluxquery.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return fluxquery.Compile(q, d, o)
}

// reference evaluates queries over doc with EngineNaive, the in-memory
// engine the repo's differential contract holds byte-identical to the
// streaming one. It returns the outputs in query order.
func reference(d *fluxquery.DTD, queries []namedQuery, doc []byte) ([][]byte, error) {
	outs := make([][]byte, len(queries))
	for i, q := range queries {
		pl, err := compile(q.src, d, fluxquery.Options{Engine: fluxquery.EngineNaive})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		var b bytes.Buffer
		if _, err := pl.Execute(bytes.NewReader(doc), &b); err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		outs[i] = b.Bytes()
	}
	return outs, nil
}

func sumsOf(outs [][]byte) []sum {
	s := make([]sum, len(outs))
	for i, o := range outs {
		s[i] = sumOf(o)
	}
	return s
}
