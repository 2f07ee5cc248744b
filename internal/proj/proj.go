// Package proj implements schema-driven stream projection: the analysis
// that, given a compiled plan's FluX handlers and its buffer description
// forest, derives the set of document paths the plan can ever touch — and
// the event-level skip automaton that the streaming layers use to discard
// everything else before it reaches a single evaluator.
//
// This realizes, below the buffer layer, the document-projection idea the
// paper cites as its baseline (Marian & Siméon [10]) and the
// buffer-minimization line of Koch et al.: the BDF already proves which
// subtrees a query buffers; the same reasoning proves which subtrees the
// shared scan need not even tokenize. A PathSet is the per-plan result; the
// union of all registered plans' path-sets compiles into one Automaton that
// the shared-pass dispatcher pushes into the validating reader.
//
// # Projection contract
//
// The projection is structure-preserving: for every element the automaton
// prunes, its StartElement and EndElement are still delivered (a "shell"),
// because evaluators step DTD content-model automata on child labels to
// decide the paper's past(S) on-first conditions. Only the pruned element's
// interior — descendants, character data, and (in fast mode) tokenization
// work itself — is dropped. A too-narrow path-set is therefore a
// correctness bug, never a crash: the adversarial tests in this package and
// the differential suite assert that projected and unprojected runs produce
// byte-identical output.
package proj

import (
	"sort"
	"strings"

	"fluxquery/internal/bdf"
)

// Mode selects how skipped regions are handled by a projecting reader.
type Mode uint8

const (
	// ModeFast (the default) skips pruned subtrees in the tokenizer with a
	// bulk end-tag scan: attributes, text and entities inside them are
	// never materialized, and the region is checked for tag balance and a
	// matching outer end tag only — element declarations and content
	// models inside a pruned subtree are not enforced. Every delivered or
	// shell element is still fully validated (its start tag, attributes
	// and position in the parent's content model), so errors at the
	// projection frontier are always caught.
	ModeFast Mode = iota
	// ModeValidate filters delivery but still tokenizes and DTD-validates
	// every event, including pruned regions: error behavior is exactly
	// that of an unprojected pass.
	ModeValidate
	// ModeOff disables projection: every event is delivered.
	ModeOff
)

// String returns the mode's flag spelling ("fast", "validate", "off").
func (m Mode) String() string {
	switch m {
	case ModeFast:
		return "fast"
	case ModeValidate:
		return "validate"
	default:
		return "off"
	}
}

// ParseMode converts a flag value ("fast", "validate", "off").
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "fast":
		return ModeFast, true
	case "validate":
		return ModeValidate, true
	case "off":
		return ModeOff, true
	}
	return ModeOff, false
}

// PathNode is the projection requirement at one element path of the
// document. The zero requirement (no fields set, no children) means the
// element's presence matters — its start and end events are delivered —
// but nothing inside it does.
type PathNode struct {
	// Children maps child labels to their requirements. The key "*"
	// stands for every label; a label that has both a named entry and a
	// "*" entry needs the union of the two (Normalize folds the star into
	// the named entries so the automaton can dispatch on the name alone).
	Children map[string]*PathNode
	// All marks that the entire subtree below this element is needed
	// (verbatim copies, string-value atomization).
	All bool
	// Text marks that direct text children of this element are needed.
	Text bool
}

// NewPathNode returns an empty requirement node.
func NewPathNode() *PathNode { return &PathNode{Children: map[string]*PathNode{}} }

// Child returns the requirement node for a child label, creating it if
// absent.
func (n *PathNode) Child(label string) *PathNode {
	c, ok := n.Children[label]
	if !ok {
		c = NewPathNode()
		n.Children[label] = c
	}
	return c
}

// SortedLabels returns the node's child labels in sorted order. The
// multi-query dispatch trie and its cost model iterate path nodes with
// it so that builds and estimates are deterministic for a given plan set
// (map iteration order must not leak into interned structure or float
// summation order).
func (n *PathNode) SortedLabels() []string {
	labels := make([]string, 0, len(n.Children))
	for l := range n.Children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// MergeBDF folds a buffer-description projection (bdf.Node) into this
// node: CopyAll becomes All, Text stays Text, children merge recursively.
func (n *PathNode) MergeBDF(b *bdf.Node) {
	if b == nil {
		n.All = true
		return
	}
	if b.CopyAll {
		n.All = true
	}
	if b.Text {
		n.Text = true
	}
	for label, c := range b.Children {
		n.Child(label).MergeBDF(c)
	}
}

// Merge folds another requirement node into this one (set union).
func (n *PathNode) Merge(o *PathNode) {
	if o == nil {
		return
	}
	n.All = n.All || o.All
	n.Text = n.Text || o.Text
	for label, c := range o.Children {
		n.Child(label).Merge(c)
	}
}

// PathSet is the projection requirement of a whole plan (or a union of
// plans): Root is the virtual document node, whose children are the
// possible root elements.
type PathSet struct {
	Root *PathNode
}

// NewPathSet returns an empty path-set (nothing needed).
func NewPathSet() *PathSet { return &PathSet{Root: NewPathNode()} }

// Union returns a fresh path-set containing every requirement of the
// inputs. The inputs are not modified; the result is Normalized and ready
// to Compile. A union over zero sets is empty.
func Union(sets ...*PathSet) *PathSet {
	u := NewPathSet()
	for _, s := range sets {
		if s != nil {
			u.Root.Merge(s.Root)
		}
	}
	u.Normalize()
	return u
}

// Normalize rewrites the set so the automaton can dispatch on child
// labels alone: wherever a node has both a "*" entry and named entries,
// the star's requirements are folded into every named entry (a label
// matching both needs the union of both subtrees).
func (s *PathSet) Normalize() { normalize(s.Root) }

func normalize(n *PathNode) {
	if n == nil {
		return
	}
	if star, ok := n.Children["*"]; ok {
		for label, c := range n.Children {
			if label != "*" {
				c.Merge(star)
			}
		}
	}
	for _, c := range n.Children {
		normalize(c)
	}
}

// String renders the set for explain output, one path per line.
func (s *PathSet) String() string {
	if s.Root.All {
		return "/ (all)\n"
	}
	var b strings.Builder
	if s.Root.Text {
		b.WriteString("/ (text)\n")
	}
	writePaths(&b, s.Root, "")
	if b.Len() == 0 {
		return "(empty)\n"
	}
	return b.String()
}

func writePaths(b *strings.Builder, n *PathNode, prefix string) {
	suffix := ""
	if n.All {
		suffix = " (all)"
	} else if n.Text {
		suffix = " (text)"
	}
	if prefix != "" {
		b.WriteString(prefix + suffix + "\n")
	}
	if n.All {
		return
	}
	labels := make([]string, 0, len(n.Children))
	for l := range n.Children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		writePaths(b, n.Children[l], prefix+"/"+l)
	}
}

// Automaton state sentinels. Non-negative values are indices into the
// automaton's state table.
const (
	// StateSkip is the verdict for an irrelevant child: deliver its start
	// and end events (a shell), skip its interior.
	StateSkip int32 = -1
	// StateAll marks a keep-everything region: every event below is
	// delivered without further lookups.
	StateAll int32 = -2
)

// Automaton is the compiled, read-only form of a PathSet: a tree automaton
// over element labels whose current state answers, per event, whether to
// deliver it. It is immutable after Compile and safe for concurrent use by
// any number of readers.
//
// Compiled with a name-id vocabulary (CompileVocab), every state
// additionally carries a dense jump table indexed by the DTD's element
// ids, so the per-event verdict is one slice load (ChildID) instead of a
// map probe.
type Automaton struct {
	states []state
	vocab  bool
}

type state struct {
	children map[string]int32
	// byID is the vocabulary jump table: byID[id] is the verdict/successor
	// for a child with dense name id `id` (nil unless CompileVocab).
	byID []int32
	star int32 // verdict for labels without a named entry
	text bool
}

// Compile builds the skip automaton of a normalized path-set. Compile
// normalizes defensively, so callers may pass a freshly derived set.
func Compile(s *PathSet) *Automaton {
	s.Normalize()
	a := &Automaton{}
	a.build(s.Root)
	return a
}

// CompileVocab is Compile plus a dense jump table per state over the
// given name-id vocabulary (names[id] = element name, as produced by
// dtd.IDNames). Readers then dispatch with ChildID — one slice load per
// start tag. Labels in the path-set that are not in the vocabulary can
// never match a validated event and are simply unreachable through the
// id tables.
func CompileVocab(s *PathSet, names []string) *Automaton {
	a := Compile(s)
	a.vocab = true
	for i := range a.states {
		st := &a.states[i]
		st.byID = make([]int32, len(names))
		for id, name := range names {
			if next, ok := st.children[name]; ok {
				st.byID[id] = next
			} else {
				st.byID[id] = st.star
			}
		}
	}
	return a
}

// HasVocab reports whether the automaton carries id jump tables (built by
// CompileVocab) and therefore supports ChildID.
func (a *Automaton) HasVocab() bool { return a.vocab }

// ChildID is Child keyed by the child element's dense name id. Valid only
// on automata built by CompileVocab, for ids within that vocabulary.
func (a *Automaton) ChildID(st int32, id int32) int32 {
	if st == StateAll {
		return StateAll
	}
	if st < 0 || int(st) >= len(a.states) {
		return StateSkip
	}
	return a.states[st].byID[id]
}

// build interns a path node as a state and returns its id (or a
// sentinel).
func (a *Automaton) build(n *PathNode) int32 {
	if n.All {
		return StateAll
	}
	id := int32(len(a.states))
	a.states = append(a.states, state{star: StateSkip, text: n.Text})
	var children map[string]int32
	star := StateSkip
	for label, c := range n.Children {
		cid := a.build(c)
		if label == "*" {
			star = cid
			continue
		}
		if children == nil {
			children = make(map[string]int32, len(n.Children))
		}
		children[label] = cid
	}
	a.states[id].children = children
	a.states[id].star = star
	return id
}

// Start returns the automaton's start state (the virtual document node).
func (a *Automaton) Start() int32 {
	if len(a.states) == 0 {
		return StateAll // an all-root set compiles to zero states
	}
	return 0
}

// Child returns the state governing a child element with the given label:
// StateAll (deliver everything below), StateSkip (deliver a shell, skip
// the interior), or a state id to descend into.
func (a *Automaton) Child(st int32, label string) int32 {
	if st == StateAll {
		return StateAll
	}
	if st == StateSkip || st < 0 || int(st) >= len(a.states) {
		return StateSkip
	}
	s := &a.states[st]
	if next, ok := s.children[label]; ok {
		return next
	}
	return s.star
}

// Text reports whether direct text children of an element in state st
// must be delivered.
func (a *Automaton) Text(st int32) bool {
	if st == StateAll {
		return true
	}
	if st < 0 || int(st) >= len(a.states) {
		return false
	}
	return a.states[st].text
}

// Len returns the number of interned states (diagnostics).
func (a *Automaton) Len() int { return len(a.states) }
