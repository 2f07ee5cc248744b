// Package xsax implements the paper's XSAX parser (§3.2): a validating
// streaming XML parser that runs the DTD's content-model automata while
// scanning. Reader is the validating pull reader every pass runs, with
// the optional projection automaton (SetProjection) that prunes
// irrelevant subtrees into start/end shells. The paper's on-first events
// are decided above it: the runtime steps each open element's
// content-model automaton over the delivered children and fires an
// on-first handler once the DTD's past(S) holds.
//
// Reader is event-based and zero-copy: NextEvent validates the underlying
// tokenizer event and returns it with the element name resolved to the
// DTD's interned declaration name, so consumers dispatch on strings
// without allocating. Event data and attribute views are only valid until
// the next call; a Batch copies them into owned memory, and consumers
// copy exactly at the points where the buffer description forest says
// data must survive.
package xsax

import (
	"fmt"
	"io"
	"sync"

	"fluxquery/internal/dtd"
	"fluxquery/internal/proj"
	"fluxquery/internal/xmltok"
)

// frame is one open element during parsing.
type frame struct {
	elem *dtd.Element
	// sym is the element's stream symbol; the end-tag name check is one
	// integer comparison against it.
	sym   xmltok.Sym
	state int
}

// Event is one validated XML event. Name is the interned element name
// from the DTD declaration (Start/EndElement) and is always safe to
// retain; Data and Attrs view scanner-owned memory valid only until the
// next Reader call.
type Event struct {
	Kind xmltok.Kind
	// Name is the element name (Start/EndElement) or ProcInst target.
	Name string
	// Elem is the DTD declaration of a Start/EndElement. Its dense ID()
	// keys every integer dispatch table above the reader.
	Elem *dtd.Element
	// Data holds text/comment/directive content (zero-copy view).
	Data []byte
	// Attrs holds a StartElement's attributes (zero-copy views; each
	// carries the attribute name's stream symbol).
	Attrs []xmltok.AttrBytes
	// tab resolves attribute-name symbols to owned strings after the
	// byte views have been invalidated; it points at the producing
	// scanner's symbol table, which publishes every new name atomically,
	// so consumers may read it while the scanner interns ahead (see
	// xmltok.SymTab).
	tab *xmltok.SymTab
}

// IsWhitespace reports whether a Text event is all XML whitespace.
func (e *Event) IsWhitespace() bool {
	return e.Kind == xmltok.Text && xmltok.IsAllWhitespace(e.Data)
}

// AppendOwnedAttrs appends the event's attributes to dst as owned
// strings. Attribute names resolve lazily through the scanner's symbol
// table — an owned, interned string, no allocation per attribute — so
// only the values are copied.
func (e *Event) AppendOwnedAttrs(dst []xmltok.Attr) []xmltok.Attr {
	for _, a := range e.Attrs {
		var name string
		if e.tab != nil && a.Sym != xmltok.NoSym {
			name = e.tab.Name(a.Sym)
		} else {
			name = string(a.Name)
		}
		dst = append(dst, xmltok.Attr{Name: name, Value: string(a.Value)})
	}
	return dst
}

// OwnedAttrs returns the event's attributes as owned strings, interning
// attribute names through the element's ATTLIST declarations. The result
// is freshly allocated and safe to retain.
func (e *Event) OwnedAttrs() []xmltok.Attr {
	if len(e.Attrs) == 0 {
		return nil
	}
	return e.AppendOwnedAttrs(make([]xmltok.Attr, 0, len(e.Attrs)))
}

// ScanStats reports what a projecting reader delivered and skipped over
// one stream.
type ScanStats struct {
	// EventsDelivered counts events handed to the consumer.
	EventsDelivered int64
	// EventsSkipped counts events (or, in fast mode, raw markup
	// structures) consumed without delivery.
	EventsSkipped int64
	// SubtreesSkipped counts pruned subtrees (shell deliveries).
	SubtreesSkipped int64
	// BytesSkipped counts raw input bytes consumed by bulk skips (fast
	// mode only; validate mode tokenizes everything).
	BytesSkipped int64
	// BytesRead counts all raw input bytes the scan consumed, skipped or
	// not — the pass's bytes-in for telemetry.
	BytesRead int64
}

// Reader is a validating pull reader over an XML stream. With
// SetProjection it additionally filters delivery through a projection
// skip automaton (see package proj): pruned subtrees are delivered as
// bare start/end shells with their interiors skipped.
type Reader struct {
	sc *xmltok.Scanner
	// vcore holds the validation state machine (open-element stack,
	// content-model stepping, sym→declaration binding).
	vcore
	// ev is the reader-owned event returned by NextEvent; setEvent
	// overwrites it with direct field stores (a struct-literal assignment
	// would duffcopy the whole Event per delivered event).
	ev Event

	// Projection state: pauto is nil when projection is off. pstack holds
	// the automaton state per delivered open element (pstack[0] is the
	// virtual document state); a pending shell skip is consumed at the
	// next NextEvent call. pvocab selects the id-jump-table dispatch of
	// automata compiled with the DTD vocabulary.
	pauto       *proj.Automaton
	pfast       bool
	pvocab      bool
	pstack      []int32
	pendingSkip bool
	pstats      ScanStats
}

// NewReader returns a validating reader for the stream r under DTD d.
func NewReader(r io.Reader, d *dtd.DTD) *Reader {
	return &Reader{sc: xmltok.NewScanner(r), vcore: vcore{d: d}}
}

func (r *Reader) setEvent(kind xmltok.Kind, name string, elem *dtd.Element, data []byte, attrs []xmltok.AttrBytes, tab *xmltok.SymTab) *Event {
	ev := &r.ev
	ev.Kind = kind
	ev.Name = name
	ev.Elem = elem
	ev.Data = data
	ev.Attrs = attrs
	ev.tab = tab
	return ev
}

// Reset rebinds the reader to a new stream and DTD, retaining its
// scanner window and stack storage.
func (r *Reader) Reset(rd io.Reader, d *dtd.DTD) {
	r.sc.Reset(rd)
	r.vcore.reset(d)
	r.pauto = nil
	r.pfast = false
	r.pvocab = false
	r.pstack = r.pstack[:0]
	r.pendingSkip = false
	r.pstats = ScanStats{}
}

// SetProjection installs a projection automaton for the current stream:
// only events the automaton deems relevant are delivered; pruned subtrees
// become start/end shells. In fast mode pruned interiors are bulk-skipped
// in the tokenizer (tag balance and the outer end-tag name are checked,
// declarations and content models inside are not); otherwise they are
// fully tokenized and validated, and merely not delivered. Projection is
// cleared by Reset, so it must be re-installed per stream.
func (r *Reader) SetProjection(a *proj.Automaton, mode proj.Mode) {
	if a == nil || mode == proj.ModeOff {
		r.pauto = nil
		return
	}
	r.pauto = a
	r.pfast = mode == proj.ModeFast
	r.pvocab = a.HasVocab()
	r.pstack = append(r.pstack[:0], a.Start())
	r.pendingSkip = false
	r.pstats = ScanStats{}
}

// ScanStats returns the projection counters accumulated since
// SetProjection (zeros when projection is off) plus the raw bytes the
// underlying scanner has consumed on the current stream.
func (r *Reader) ScanStats() ScanStats {
	st := r.pstats
	st.BytesRead = r.sc.Offset()
	return st
}

var readerPool sync.Pool

// GetReader returns a pooled validating reader bound to rd and d.
// Release it with PutReader when the stream has been consumed.
func GetReader(rd io.Reader, d *dtd.DTD) *Reader {
	if v := readerPool.Get(); v != nil {
		r := v.(*Reader)
		r.Reset(rd, d)
		return r
	}
	return NewReader(rd, d)
}

// PutReader returns a Reader obtained from GetReader to the pool.
func PutReader(r *Reader) { readerPool.Put(r) }

// NextEvent returns the next validated event in zero-copy form. Comments,
// processing instructions and directives are passed through unvalidated.
// The error is io.EOF at the end of a well-formed, valid document. With a
// projection installed (SetProjection), irrelevant events are consumed
// here and never delivered.
func (r *Reader) NextEvent() (*Event, error) {
	if r.pauto == nil {
		return r.nextCore()
	}
	if r.pendingSkip {
		ev, err := r.finishSkip()
		if err != nil {
			return nil, err
		}
		r.pstats.EventsDelivered++
		return ev, nil
	}
	for {
		ev, err := r.nextCore()
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case xmltok.StartElement:
			var next int32
			if r.pvocab {
				next = r.pauto.ChildID(r.pstack[len(r.pstack)-1], ev.Elem.ID())
			} else {
				next = r.pauto.Child(r.pstack[len(r.pstack)-1], ev.Name)
			}
			if next == proj.StateSkip {
				// Shell: deliver the (validated) start bare, mark its
				// interior for skipping. Nothing downstream reads a
				// pruned element's attributes, so they are dropped to
				// save the per-consumer batch copy.
				ev.Attrs = nil
				r.pendingSkip = true
				r.pstats.SubtreesSkipped++
			} else {
				r.pstack = append(r.pstack, next)
			}
		case xmltok.EndElement:
			r.pstack = r.pstack[:len(r.pstack)-1]
		case xmltok.Text:
			if !r.pauto.Text(r.pstack[len(r.pstack)-1]) {
				r.pstats.EventsSkipped++
				continue
			}
		}
		r.pstats.EventsDelivered++
		return ev, nil
	}
}

// finishSkip consumes the interior of a pending shell element and returns
// its EndElement. In fast mode the tokenizer bulk-skips the raw bytes; in
// validate mode every interior event is tokenized and validated, just not
// delivered.
func (r *Reader) finishSkip() (*Event, error) {
	r.pendingSkip = false
	f := r.stack[len(r.stack)-1]
	if r.pfast {
		c, err := r.sc.SkipSubtree(f.elem.Name)
		r.pstats.BytesSkipped += c.Bytes
		r.pstats.EventsSkipped += c.Events
		if err != nil {
			return nil, err
		}
		// The interior was not validated, so the element's content-model
		// accepting state cannot be checked; the frame is popped as-is.
		r.stack = r.stack[:len(r.stack)-1]
		return r.setEvent(xmltok.EndElement, f.elem.Name, f.elem, nil, nil, nil), nil
	}
	target := len(r.stack)
	for {
		ev, err := r.nextCore()
		if err != nil {
			if err == io.EOF {
				return nil, r.errf("unexpected EOF while skipping <%s>", f.elem.Name)
			}
			return nil, err
		}
		if ev.Kind == xmltok.EndElement && len(r.stack) == target-1 {
			return ev, nil
		}
		r.pstats.EventsSkipped++
	}
}

// nextCore is the unprojected event loop: tokenize, validate, deliver.
func (r *Reader) nextCore() (*Event, error) {
	for {
		ev, err := r.sc.NextEvent()
		if err == io.EOF && !r.sawRoot {
			return nil, r.errf("document has no root element")
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case xmltok.StartElement:
			return r.startElement(ev)
		case xmltok.EndElement:
			return r.endElement(ev)
		case xmltok.Text:
			deliver, terr := r.vcore.text(ev.DataBytes())
			if terr != nil {
				return nil, r.errf("%s", terr)
			}
			if !deliver {
				continue
			}
			return r.setEvent(xmltok.Text, "", nil, ev.DataBytes(), nil, nil), nil
		case xmltok.ProcInst:
			// The target resolves through the symbol table: owned string,
			// no per-event allocation.
			return r.setEvent(ev.Kind, r.sc.SymName(ev.Sym()), nil, ev.DataBytes(), nil, nil), nil
		default:
			return r.setEvent(ev.Kind, "", nil, ev.DataBytes(), nil, nil), nil
		}
	}
}

func (r *Reader) errf(format string, args ...any) error {
	return fmt.Errorf("xsax: line %d: %s", r.sc.Line(), fmt.Sprintf(format, args...))
}

func (r *Reader) startElement(tok *xmltok.Event) (*Event, error) {
	attrs := tok.Attrs()
	e, err := r.vcore.start(tok.Sym(), tok.NameBytes(), attrs)
	if err != nil {
		return nil, r.errf("%s", err)
	}
	return r.setEvent(xmltok.StartElement, e.Name, e, nil, attrs, r.sc.Syms()), nil
}

func (r *Reader) endElement(tok *xmltok.Event) (*Event, error) {
	e, err := r.vcore.end(tok.Sym(), tok.NameBytes())
	if err != nil {
		return nil, r.errf("%s", err)
	}
	return r.setEvent(xmltok.EndElement, e.Name, e, nil, nil, nil), nil
}

// Validate reads the whole stream and returns the first validation error,
// if any.
func Validate(rd io.Reader, d *dtd.DTD) error {
	r := GetReader(rd, d)
	defer PutReader(r)
	for {
		_, err := r.NextEvent()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
