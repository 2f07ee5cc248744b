package xsax

import (
	"fmt"

	"fluxquery/internal/dtd"
	"fluxquery/internal/xmltok"
)

// vcore is the Reader's DTD-validation state machine: the open-element
// stack, the content-model stepping, the attribute checks and the
// sym→declaration binding. Its methods return errors without position
// information; the Reader wraps them with its scanner's current line.
type vcore struct {
	d       *dtd.DTD
	stack   []frame
	apairs  []dtd.AttrPair
	sawRoot bool
	// symElem binds stream symbols to declarations: symElem[sym] is the
	// *dtd.Element of the name with that symbol, bound at the name's
	// first occurrence on this stream (one map lookup per distinct name
	// per stream; every later occurrence is a slice load).
	symElem []*dtd.Element
}

// reset rebinds the core to a new stream and DTD, retaining storage.
func (v *vcore) reset(d *dtd.DTD) {
	v.d = d
	v.stack = v.stack[:0]
	v.sawRoot = false
	// Symbols may be renumbered by a scanner Reset, and the DTD may
	// differ: drop all sym→element bindings (they re-form at first
	// occurrence per name).
	for i := range v.symElem {
		v.symElem[i] = nil
	}
}

// elemOf resolves a start tag's stream symbol to its DTD declaration,
// binding the symbol at the name's first occurrence on this stream. The
// steady-state cost is a single slice load per start tag.
func (v *vcore) elemOf(sym xmltok.Sym, name []byte) *dtd.Element {
	if int(sym) < len(v.symElem) {
		if e := v.symElem[sym]; e != nil {
			return e
		}
	}
	e := v.d.ElementBytes(name)
	if e == nil {
		return nil
	}
	for int(sym) >= len(v.symElem) {
		v.symElem = append(v.symElem, nil)
	}
	v.symElem[sym] = e
	return e
}

// start validates a start tag — root rule, parent content-model step,
// attribute declarations — and pushes its frame, returning the bound
// declaration.
func (v *vcore) start(sym xmltok.Sym, name []byte, attrs []xmltok.AttrBytes) (*dtd.Element, error) {
	e := v.elemOf(sym, name)
	if e == nil {
		return nil, fmt.Errorf("undeclared element <%s>", name)
	}
	if len(v.stack) == 0 {
		if v.sawRoot {
			return nil, fmt.Errorf("multiple root elements")
		}
		if e.Name != v.d.Root {
			return nil, fmt.Errorf("root element is <%s>, DTD requires <%s>", e.Name, v.d.Root)
		}
		v.sawRoot = true
	} else {
		parent := &v.stack[len(v.stack)-1]
		next := parent.elem.Automaton().StepID(parent.state, e.ID())
		if next < 0 {
			return nil, fmt.Errorf("child <%s> not allowed here in <%s> (content model %s)",
				e.Name, parent.elem.Name, parent.elem.Model)
		}
		parent.state = next
	}
	// Attribute validation over the zero-copy views.
	v.apairs = v.apairs[:0]
	for _, a := range attrs {
		v.apairs = append(v.apairs, dtd.AttrPair{Name: a.Name, Value: a.Value})
	}
	if err := v.d.ValidateAttrPairs(e, v.apairs); err != nil {
		return nil, err
	}
	v.stack = append(v.stack, frame{elem: e, sym: sym, state: e.Automaton().Start()})
	return e, nil
}

// end validates an end tag — name match against the open element, the
// content model's accepting state — and pops its frame.
func (v *vcore) end(sym xmltok.Sym, name []byte) (*dtd.Element, error) {
	if len(v.stack) == 0 {
		return nil, fmt.Errorf("unmatched end tag </%s>", name)
	}
	f := v.stack[len(v.stack)-1]
	// The tokenizer hands start and end tags of one element the same
	// symbol, so the name check is one integer comparison.
	if sym != f.sym {
		return nil, fmt.Errorf("end tag </%s> does not match open element <%s>", name, f.elem.Name)
	}
	if !f.elem.Automaton().Accepting(f.state) {
		return nil, fmt.Errorf("element <%s> ended prematurely (content model %s)", f.elem.Name, f.elem.Model)
	}
	v.stack = v.stack[:len(v.stack)-1]
	return f.elem, nil
}

// text classifies a text event: deliver it, drop it (insignificant
// whitespace in element content), or reject it (character data in an
// element whose model has no #PCDATA).
func (v *vcore) text(data []byte) (deliver bool, err error) {
	if len(v.stack) > 0 && !v.stack[len(v.stack)-1].elem.HasPCData() {
		if !xmltok.IsAllWhitespace(data) {
			return false, fmt.Errorf("element %s may not contain character data", v.stack[len(v.stack)-1].elem.Name)
		}
		// Insignificant whitespace in element content: drop it so
		// downstream operators see the pure child sequence.
		return false, nil
	}
	return true, nil
}
