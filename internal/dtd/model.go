// Package dtd implements Document Type Definitions: parsing, content-model
// automata, validation, and the schema-constraint analyses that drive the
// FluX optimizer (paper §3.1):
//
//   - cardinality constraints  — "a ∈ ||≤1 r": an r-element has at most one
//     a-child; enables loop merging;
//   - order constraints        — all a-children precede all b-children;
//     enables on-the-fly scheduling instead of buffering;
//   - language (co-occurrence) constraints — no r-element has both an
//     a-child and a b-child; enables elimination of unsatisfiable
//     conditionals;
//   - past(S) analysis         — given the parser's position inside an
//     element, can any child labeled in S still occur? This powers the
//     XSAX on-first events (paper §3.2).
//
// All analyses are decided on the deterministic Glushkov automata of the
// content models, built once per element declaration.
package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// Model is a content-model expression tree. The concrete types are Name,
// Seq, Choice, Rep, PCData, Mixed, Empty and Any.
type Model interface {
	String() string
	modelNode()
}

// Name is a reference to a child element type.
type Name struct{ Label string }

// Seq is a sequence group (a, b, c).
type Seq struct{ Items []Model }

// Choice is an alternative group (a | b | c).
type Choice struct{ Items []Model }

// RepOp is a repetition operator: '?', '*' or '+'.
type RepOp byte

// Repetition operators.
const (
	ZeroOrOne  RepOp = '?'
	ZeroOrMore RepOp = '*'
	OneOrMore  RepOp = '+'
)

// Rep applies a repetition operator to a sub-model.
type Rep struct {
	Item Model
	Op   RepOp
}

// PCData is the #PCDATA-only content model: text, no element children.
type PCData struct{}

// Mixed is mixed content (#PCDATA | a | b)*: text interleaved with the
// listed child elements in any order and number.
type Mixed struct{ Labels []string }

// Empty is the EMPTY content model.
type Empty struct{}

// Any is the ANY content model: any declared elements and text.
type Any struct{}

func (Name) modelNode()   {}
func (Seq) modelNode()    {}
func (Choice) modelNode() {}
func (Rep) modelNode()    {}
func (PCData) modelNode() {}
func (Mixed) modelNode()  {}
func (Empty) modelNode()  {}
func (Any) modelNode()    {}

func (m Name) String() string { return m.Label }

func (m Seq) String() string {
	parts := make([]string, len(m.Items))
	for i, it := range m.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func (m Choice) String() string {
	parts := make([]string, len(m.Items))
	for i, it := range m.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, "|") + ")"
}

// String brackets an item that is itself a repetition: a** would not
// parse back, (a*)* does.
func (m Rep) String() string {
	if _, ok := m.Item.(Rep); ok {
		return "(" + m.Item.String() + ")" + string(m.Op)
	}
	return m.Item.String() + string(m.Op)
}

func (PCData) String() string { return "(#PCDATA)" }

func (m Mixed) String() string {
	if len(m.Labels) == 0 {
		return "(#PCDATA)*"
	}
	return "(#PCDATA|" + strings.Join(m.Labels, "|") + ")*"
}

func (Empty) String() string { return "EMPTY" }
func (Any) String() string   { return "ANY" }

// AttType is the type of a declared attribute.
type AttType uint8

// Attribute types. Tokenized types beyond enumerations are validated as
// CDATA; the engine does not resolve ID/IDREF references.
const (
	AttCDATA AttType = iota
	AttID
	AttIDRef
	AttNMToken
	AttEnum
)

// AttDefault describes the default/requiredness of an attribute.
type AttDefault uint8

// Attribute default kinds.
const (
	AttImplied AttDefault = iota
	AttRequired
	AttFixed
	AttDefaulted
)

// AttDef is one attribute declaration from an ATTLIST.
type AttDef struct {
	Name    string
	Type    AttType
	Enum    []string // for AttEnum
	Default AttDefault
	Value   string // for AttFixed and AttDefaulted
}

// Element is one element type declaration together with its compiled
// automaton.
type Element struct {
	Name  string
	Model Model
	Atts  []*AttDef

	auto *Automaton
	// id is the element's dense name id within its DTD (see Element.ID).
	id int32
	// hasPCData reports whether text children are permitted.
	hasPCData bool
	// isAny marks the ANY content model.
	isAny bool
}

// ID returns the element's dense name id: declared elements are numbered
// in declaration order starting at 0, with the hidden document
// pseudo-element last. Ids index the Sym-oriented dispatch tables of the
// whole pipeline (content-model StepID tables, projection jump tables,
// the runtime's handler slices). Two DTDs with equal String() renderings
// assign identical ids, which is what lets plans compiled against an
// equivalent DTD ride a shared stream with integer dispatch.
func (e *Element) ID() int32 { return e.id }

// Automaton returns the compiled content-model automaton.
func (e *Element) Automaton() *Automaton { return e.auto }

// HasPCData reports whether text content is permitted inside the element.
func (e *Element) HasPCData() bool { return e.hasPCData }

// IsAny reports whether the element was declared with the ANY model.
func (e *Element) IsAny() bool { return e.isAny }

// AttDef returns the declaration of the named attribute, or nil.
func (e *Element) AttDef(name string) *AttDef {
	for _, a := range e.Atts {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// DTD is a parsed document type definition.
type DTD struct {
	// Root is the expected document element name. It is the name from the
	// DOCTYPE declaration when parsed from one, else the first declared
	// element.
	Root string
	// Elements maps element names to their declarations.
	Elements map[string]*Element
	// Order lists element names in declaration order (for deterministic
	// printing).
	Order []string
	// byID maps dense name ids back to declarations (index = Element.ID).
	byID []*Element
}

// NumIDs returns the size of the DTD's name-id space (declared elements
// plus the document pseudo-element); valid ids are 0..NumIDs()-1.
func (d *DTD) NumIDs() int { return len(d.byID) }

// ByID returns the declaration with the given dense name id.
func (d *DTD) ByID(id int32) *Element { return d.byID[id] }

// IDNames returns element names indexed by their dense ids; it is the
// vocabulary handed to integer-compiled dispatch tables (e.g. the
// projection automaton). The returned slice is freshly allocated.
func (d *DTD) IDNames() []string {
	out := make([]string, len(d.byID))
	for i, e := range d.byID {
		out[i] = e.Name
	}
	return out
}

// assignIDs numbers the declarations (declaration order, document
// pseudo-element last) and compiles every content-model automaton's
// id-indexed transition table. Called once at the end of Parse, after all
// elements exist.
func (d *DTD) assignIDs() {
	d.byID = make([]*Element, 0, len(d.Order)+1)
	for _, name := range d.Order {
		e := d.Elements[name]
		e.id = int32(len(d.byID))
		d.byID = append(d.byID, e)
	}
	if doc, ok := d.Elements[DocElem]; ok {
		doc.id = int32(len(d.byID))
		d.byID = append(d.byID, doc)
	}
	for _, e := range d.byID {
		e.auto.compileIDTable(d)
	}
}

// Element returns the declaration for name, or nil if undeclared.
func (d *DTD) Element(name string) *Element { return d.Elements[name] }

// ElementBytes is the zero-copy form of Element: the byte-slice key is
// looked up without allocating a string.
func (d *DTD) ElementBytes(name []byte) *Element { return d.Elements[string(name)] }

// AttDefBytes returns the declaration of the named attribute without
// allocating, or nil.
func (e *Element) AttDefBytes(name []byte) *AttDef {
	for _, a := range e.Atts {
		if string(name) == a.Name {
			return a
		}
	}
	return nil
}

// Labels returns the sorted set of all declared element names.
func (d *DTD) Labels() []string {
	out := append([]string(nil), d.Order...)
	sort.Strings(out)
	return out
}

// String serializes the DTD back to declaration syntax.
func (d *DTD) String() string {
	var b strings.Builder
	for _, name := range d.Order {
		e := d.Elements[name]
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", e.Name, modelDecl(e.Model))
		if len(e.Atts) > 0 {
			fmt.Fprintf(&b, "<!ATTLIST %s", e.Name)
			for _, a := range e.Atts {
				b.WriteString(" ")
				b.WriteString(a.Name)
				switch a.Type {
				case AttCDATA:
					b.WriteString(" CDATA")
				case AttID:
					b.WriteString(" ID")
				case AttIDRef:
					b.WriteString(" IDREF")
				case AttNMToken:
					b.WriteString(" NMTOKEN")
				case AttEnum:
					b.WriteString(" (" + strings.Join(a.Enum, "|") + ")")
				}
				switch a.Default {
				case AttImplied:
					b.WriteString(" #IMPLIED")
				case AttRequired:
					b.WriteString(" #REQUIRED")
				case AttFixed:
					fmt.Fprintf(&b, " #FIXED %q", a.Value)
				case AttDefaulted:
					fmt.Fprintf(&b, " %q", a.Value)
				}
			}
			b.WriteString(">\n")
		}
	}
	return b.String()
}

// modelDecl renders a model as it appears in a declaration: name groups
// must be parenthesized at top level.
func modelDecl(m Model) string {
	switch m.(type) {
	case Name:
		return "(" + m.String() + ")"
	case Rep:
		if _, ok := m.(Rep).Item.(Name); ok {
			return "(" + m.(Rep).Item.String() + ")" + string(m.(Rep).Op)
		}
	}
	return m.String()
}
