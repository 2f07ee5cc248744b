package xsax

import (
	"sync"

	"fluxquery/internal/xmltok"
)

// Batch is an owned, reusable sequence of validated events. Events
// returned by Reader.NextEvent view scanner memory that is invalidated by
// the very next reader call; Append copies those views into the batch's
// arena so the whole batch can be handed across a consumer boundary — to
// an incremental StepExec, or to many of them at once in the shared-stream
// dispatcher — while the reader keeps scanning ahead.
//
// Ownership rule: the events in Events (including every Data and Attrs
// byte view) are valid until the next Reset of the batch. A driver must
// therefore not Reset until every consumer has finished the batch; the
// rendezvous protocol of runtime.StepExec guarantees exactly that.
// Element names and declarations are interned in the DTD and always safe
// to retain; consumers that keep text or attribute bytes beyond the batch
// lifetime must copy them (the evaluator does so at its BDF buffer-fill
// points).
type Batch struct {
	// Events is the batch content, in stream order.
	Events []Event
	// arena backs the Data and attribute byte views of Events.
	arena []byte
	// attrs backs the Attrs slices of Events.
	attrs []xmltok.AttrBytes
}

// Reset empties the batch, retaining its storage. It invalidates every
// event previously handed out.
func (b *Batch) Reset() {
	b.Events = b.Events[:0]
	b.arena = b.arena[:0]
	b.attrs = b.attrs[:0]
}

// Len returns the number of buffered events.
func (b *Batch) Len() int { return len(b.Events) }

// ArenaBytes returns the number of payload bytes the batch currently
// owns; drivers use it to bound batch size.
func (b *Batch) ArenaBytes() int { return len(b.arena) }

// Append copies ev into the batch. The copy is deep with respect to
// scanner-owned memory (Data, attribute names and values) and shallow for
// interned data (Name, Elem, the symbol-table reference — the table
// publishes new names atomically, so resolving symbols through it is safe
// while the scanner runs ahead).
func (b *Batch) Append(ev *Event) {
	e := Event{Kind: ev.Kind, Name: ev.Name, Elem: ev.Elem, tab: ev.tab}
	if len(ev.Data) > 0 {
		e.Data = b.copyBytes(ev.Data)
	}
	if len(ev.Attrs) > 0 {
		start := len(b.attrs)
		for _, a := range ev.Attrs {
			b.attrs = append(b.attrs, xmltok.AttrBytes{
				Name:  b.copyBytes(a.Name),
				Value: b.copyBytes(a.Value),
				Sym:   a.Sym,
			})
		}
		// Full slice expression: a later arena/attrs growth must not let
		// one event's append bleed into another event's view.
		e.Attrs = b.attrs[start:len(b.attrs):len(b.attrs)]
	}
	b.Events = append(b.Events, e)
}

func (b *Batch) copyBytes(p []byte) []byte {
	off := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[off:len(b.arena):len(b.arena)]
}

var batchPool sync.Pool

// GetBatch returns an empty pooled batch.
func GetBatch() *Batch {
	if v := batchPool.Get(); v != nil {
		b := v.(*Batch)
		b.Reset()
		return b
	}
	return &Batch{}
}

// PutBatch returns a batch to the pool. The caller must not retain any of
// the batch's events past this call.
func PutBatch(b *Batch) { batchPool.Put(b) }
