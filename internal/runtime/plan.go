// Package runtime implements FluXQuery's runtime engine (paper §3.2): the
// query compiler that turns a FluX query into a physical query plan (with
// its buffer description forest), and the streamed query evaluator that
// executes the plan over the validating XSAX event stream, maintaining
// exactly the memory buffers the BDF prescribes.
package runtime

import (
	"fmt"

	"fluxquery/internal/bdf"
	"fluxquery/internal/core"
	"fluxquery/internal/dtd"
	"fluxquery/internal/proj"
	"fluxquery/internal/xquery"
)

// Plan is a compiled physical query plan.
type Plan struct {
	root pnode
	d    *dtd.DTD
	// BDF retains the forest for explain output.
	BDF *bdf.Forest
	// paths/pauto are the plan's projection path-set and its compiled
	// skip automaton (see package proj); pmode selects how the plan's own
	// single-plan pass applies it.
	paths *proj.PathSet
	pauto *proj.Automaton
	pmode proj.Mode
	// needShells reports whether any process-stream scope carries an
	// on-first handler with a non-trivial past(S) condition. Only such
	// handlers read a scope's content-model state, which advances on the
	// start/end shells of children the plan does not descend into — so a
	// plan without them can have those shells elided entirely by the
	// multi-query dispatch trie.
	needShells bool
}

// Paths returns the plan's projection path-set: every document path the
// evaluator can read. The shared-stream dispatcher unions the path-sets
// of all riding plans into one skip automaton.
func (p *Plan) Paths() *proj.PathSet { return p.paths }

// DTD returns the schema the plan was compiled against. The shared-stream
// dispatcher uses it to check that every plan riding a stream agrees with
// the stream's schema.
func (p *Plan) DTD() *dtd.DTD { return p.d }

// ProjAutomaton returns the plan's compiled projection automaton
// (vocabulary form, dense name-id jump tables). The multi-query dispatch
// trie is the product of these automata across all registered plans.
func (p *Plan) ProjAutomaton() *proj.Automaton { return p.pauto }

// ProjMode returns how a single-plan pass applies the plan's projection
// automaton to its scan (Options.Projection).
func (p *Plan) ProjMode() proj.Mode { return p.pmode }

// NeedShells reports whether the plan must receive start/end shells for
// elements it does not descend into. It is false exactly when no
// process-stream scope carries an on-first handler with a non-trivial
// past(S) condition: shells only feed the content-model automata that
// decide when such handlers fire, and firing order against streamed
// output is observable. A dispatcher may elide shells for plans that
// report false (the trie's projection-tightness rewrite).
func (p *Plan) NeedShells() bool { return p.needShells }

// pnode is a physical operator.
type pnode interface{ pnode() }

type pText struct{ data string }

type pOpen struct {
	name  string
	attrs []xquery.Attr
}

type pClose struct{ name string }

type pElement struct {
	name     string
	attrs    []xquery.Attr
	children []pnode
}

type pSeq struct{ items []pnode }

type pXQ struct {
	expr     xquery.Expr
	scopeVar string
}

type pCopy struct{ v string }

type pAtomic struct {
	v    string
	step xquery.Step
}

type pPS struct {
	v     string
	elem  string
	auto  *dtd.Automaton
	d     *dtd.DTD
	hs    []pHandler
	scope *bdf.Scope
	// onElem maps a child label to the index of its streaming handler in
	// hs; it is retained for the replay (materialized) path. The stream
	// path dispatches through the id-indexed slices below.
	onElem map[string]int
	// once lists the indices of OnFirst/OnEnd handlers in firing order.
	once []int

	// Integer dispatch tables, indexed by the DTD's dense name ids
	// (Element.ID): onElemID[id] is the streaming-handler index or -1;
	// bufOn[id]/bufProj[id] give the BDF buffering decision with the "*"
	// wildcard already folded in. One slice load per child start tag
	// replaces two map probes.
	onElemID []int32
	bufOn    []bool
	bufProj  []*bdf.Node
	numIDs   int
}

type pHandler struct {
	kind  core.HandlerKind
	label string
	bind  string
	past  []string
	body  pnode
	// pastOK, for OnFirst handlers, is the precompiled firing condition:
	// pastOK[q] reports whether past(past) holds in content-model state q,
	// so the per-child trigger check is a single slice load.
	pastOK []bool
}

func (pText) pnode()    {}
func (pOpen) pnode()    {}
func (pClose) pnode()   {}
func (pElement) pnode() {}
func (pSeq) pnode()     {}
func (pXQ) pnode()      {}
func (pCopy) pnode()    {}
func (pAtomic) pnode()  {}
func (*pPS) pnode()     {}

// Options configures plan compilation.
type Options struct {
	// FullBuffers disables the BDF's sub-path projection inside buffered
	// subtrees: buffered children are materialized completely, as a pure
	// document-projection engine (Marian & Siméon [10]) would. This is
	// the ablation for the paper's claim that the BDF "allows us to avoid
	// the buffering of the data which can be processed on the fly" and of
	// data the handlers never read.
	FullBuffers bool
	// Projection selects how the plan's own single-plan pass applies its
	// skip automaton to the scan: ModeFast (default) bulk-skips irrelevant
	// subtrees in the tokenizer, ModeValidate filters delivery but still
	// validates everything, ModeOff delivers every event.
	Projection proj.Mode
}

// Compile checks the FluX query's safety, computes its buffer description
// forest and produces a physical plan.
func Compile(q *core.Query) (*Plan, error) {
	return CompileOptions(q, Options{})
}

// CompileOptions is Compile with explicit options.
func CompileOptions(q *core.Query, o Options) (*Plan, error) {
	if err := core.CheckSafety(q); err != nil {
		return nil, err
	}
	forest, err := bdf.Compute(q)
	if err != nil {
		return nil, err
	}
	c := &compiler{d: q.DTD, opts: o}
	root, err := c.compile(q.Root, "")
	if err != nil {
		return nil, err
	}
	paths := derivePaths(root)
	return &Plan{
		root:       root,
		d:          q.DTD,
		BDF:        forest,
		paths:      paths,
		pauto:      proj.CompileVocab(paths, q.DTD.IDNames()),
		pmode:      o.Projection,
		needShells: computeNeedShells(root),
	}, nil
}

// computeNeedShells walks the physical operator tree for any on-first
// handler whose precompiled past-condition vector is non-trivial (false
// in at least one content-model state): only those read the scope state
// that shells advance. An all-true vector fires at scope entry no matter
// what children arrive, so it does not pin shells.
func computeNeedShells(n pnode) bool {
	switch t := n.(type) {
	case *pPS:
		for _, h := range t.hs {
			for _, ok := range h.pastOK {
				if !ok {
					return true
				}
			}
			if h.body != nil && computeNeedShells(h.body) {
				return true
			}
		}
	case pSeq:
		for _, it := range t.items {
			if computeNeedShells(it) {
				return true
			}
		}
	case pElement:
		for _, ch := range t.children {
			if computeNeedShells(ch) {
				return true
			}
		}
	}
	return false
}

type compiler struct {
	d    *dtd.DTD
	opts Options
}

// compile translates FluX into physical operators. scopeVar is the
// variable of the enclosing handler's scope ("" at top level); XQ bodies
// evaluate relative to it.
func (c *compiler) compile(e core.Expr, scopeVar string) (pnode, error) {
	switch t := e.(type) {
	case core.TextLit:
		return pText{data: t.Data}, nil
	case core.OpenTag:
		return pOpen{name: t.Name, attrs: t.Attrs}, nil
	case core.CloseTag:
		return pClose{name: t.Name}, nil
	case core.XQ:
		return pXQ{expr: t.E, scopeVar: scopeVar}, nil
	case core.CopyVar:
		return pCopy{v: t.Var}, nil
	case core.AtomicVar:
		return pAtomic{v: t.Var, step: t.Step}, nil
	case core.SeqF:
		out := pSeq{}
		for _, it := range t.Items {
			p, err := c.compile(it, scopeVar)
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, p)
		}
		return out, nil
	case core.Element:
		out := pElement{name: t.Name, attrs: t.Attrs}
		for _, ch := range t.Children {
			p, err := c.compile(ch, scopeVar)
			if err != nil {
				return nil, err
			}
			out.children = append(out.children, p)
		}
		return out, nil
	case core.ProcessStream:
		return c.compilePS(t)
	default:
		return nil, fmt.Errorf("runtime: cannot compile %T", e)
	}
}

func (c *compiler) compilePS(ps core.ProcessStream) (*pPS, error) {
	elem := c.d.Element(ps.ElemName)
	if elem == nil {
		return nil, fmt.Errorf("runtime: unknown element type %q for $%s", ps.ElemName, ps.Var)
	}
	scope, err := bdf.ComputeScope(ps)
	if err != nil {
		return nil, err
	}
	if c.opts.FullBuffers {
		for label := range scope.Buffered {
			scope.Buffered[label] = &bdf.Node{CopyAll: true}
		}
		if len(scope.Buffered) > 0 {
			scope.Text = true
		}
	}
	out := &pPS{
		v:      ps.Var,
		elem:   ps.ElemName,
		auto:   elem.Automaton(),
		d:      c.d,
		scope:  scope,
		onElem: map[string]int{},
	}
	for i, h := range ps.Handlers {
		var body pnode
		var pastOK []bool
		switch h.Kind {
		case core.OnElement:
			b, err := c.compile(h.Body, h.Bind)
			if err != nil {
				return nil, err
			}
			body = b
			if _, dup := out.onElem[h.Label]; dup {
				return nil, fmt.Errorf("runtime: two streaming handlers for label %s in scope $%s", h.Label, ps.Var)
			}
			out.onElem[h.Label] = i
		default:
			b, err := c.compile(h.Body, ps.Var)
			if err != nil {
				return nil, err
			}
			body = b
			out.once = append(out.once, i)
			if h.Kind == core.OnFirst {
				pastOK = elem.Automaton().PastVector(h.Past)
			}
		}
		out.hs = append(out.hs, pHandler{
			kind:   h.Kind,
			label:  h.Label,
			bind:   h.Bind,
			past:   h.Past,
			body:   body,
			pastOK: pastOK,
		})
	}
	out.compileIDDispatch(c.d)
	return out, nil
}

// compileIDDispatch flattens the scope's per-label maps into dense
// name-id-indexed slices for the stream path.
func (ps *pPS) compileIDDispatch(d *dtd.DTD) {
	n := d.NumIDs()
	ps.numIDs = n
	ps.onElemID = make([]int32, n)
	for i := range ps.onElemID {
		ps.onElemID[i] = -1
	}
	for label, idx := range ps.onElem {
		if e := d.Element(label); e != nil {
			ps.onElemID[e.ID()] = int32(idx)
		}
	}
	ps.bufOn = make([]bool, n)
	ps.bufProj = make([]*bdf.Node, n)
	star, hasStar := ps.scope.Buffered["*"]
	for id := int32(0); int(id) < n; id++ {
		name := d.ByID(id).Name
		if b, ok := ps.scope.Buffered[name]; ok {
			ps.bufOn[id], ps.bufProj[id] = true, b
		} else if hasStar {
			ps.bufOn[id], ps.bufProj[id] = true, star
		}
	}
}
