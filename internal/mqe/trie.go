package mqe

import (
	"fluxquery/internal/shared"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xsax"
)

// This file implements trie-routed dispatch: instead of fanning every
// batch to every riding plan, the dispatcher walks the shared dispatch
// trie (package shared) one node per element and appends each event only
// to the pending batches of the delivery *classes* whose fan-out list
// names them. A class groups every subscription with the same projection
// automaton and shell requirement — their event streams are provably
// identical — so the per-event cost is the trie step plus one arena copy
// per receiving class: proportional to the distinct path families the
// registrations touch, not to the registration count. A class's pending
// batch flushes to every member evaluator when it fills (or at end of
// stream); rendezvous cost amortizes the same way — a plan is woken once
// per batch of its own events, so a plan whose paths see little of the
// stream is woken rarely.
//
// Ownership: pending batches are dispatcher-owned xsax.Batches. Append
// deep-copies event payloads out of the pass's source batch (filled by
// the sequential reader or taken off the pipeline's validated ring)
// immediately, so the source memory can recycle without waiting for
// evaluator acknowledgements; symbol-table references stay valid for the
// whole stream (the table is append-only between streams, see
// xmltok.SymTab). A flush is one feedAll step over the members of every
// due class, after which the pending batches reset and their arenas
// reuse.

// DispatchMode selects how a Set fans the shared stream out to its
// plans.
type DispatchMode uint8

const (
	// DispatchFanout delivers every batch to every riding plan (the
	// original shared pass).
	DispatchFanout DispatchMode = iota
	// DispatchTrie routes events through the shared dispatch trie:
	// per-plan delivery, shell elision for plans that allow it, per-plan
	// batch flushing.
	DispatchTrie
)

// String returns the mode's flag spelling ("fanout", "trie").
func (m DispatchMode) String() string {
	if m == DispatchTrie {
		return "trie"
	}
	return "fanout"
}

// ParseDispatchMode converts a flag value ("fanout", "trie").
func ParseDispatchMode(s string) (DispatchMode, bool) {
	switch s {
	case "fanout":
		return DispatchFanout, true
	case "trie":
		return DispatchTrie, true
	}
	return DispatchFanout, false
}

// DispatchStats reports the dispatch-layer statistics of the most recent
// shared pass.
type DispatchStats struct {
	// Mode is the dispatch mode the pass ran with ("fanout", "trie").
	Mode string
	// Plans is the number of plans riding the pass.
	Plans int
	// TrieNodes, TrieLists and MaxFanout describe the trie snapshot the
	// pass used (zero in fanout mode): interned product nodes, interned
	// fan-out lists, and the widest list.
	TrieNodes, TrieLists, MaxFanout int
	// Events counts events routed through the trie; Deliveries counts
	// per-plan event deliveries (the sum of fan-out sizes — the work a
	// plain fanout pass would have multiplied by the plan count).
	Events, Deliveries int64
	// Flushes counts per-plan batch rendezvous.
	Flushes int64
	// BuildNanos is the time spent (re)building the trie snapshot, paid
	// on the first Run after a registration change, not per pass.
	BuildNanos int64
}

// tframe is one open element on the trie walk: the interior node
// governing its children and the fan-out list its end event owes.
type tframe struct {
	node int32
	fan  int32
}

// trieSink routes events to per-class pending batches and flushes each
// to the class's member consumers.
type trieSink struct {
	t    *shared.Trie
	cons []Consumer
	// members maps each trie plan index (delivery class) to the consumer
	// indices riding it; clsLive counts a class's not-yet-closed members
	// so fully dead classes stop buffering. pend and dueMark are indexed
	// by class, dead and cls (a consumer's class) by consumer.
	members [][]int32
	clsLive []int32
	pend    []*xsax.Batch
	dead    []bool
	cls     []int32

	stack   []tframe
	due     []int32
	dueMark []bool

	// flush scratch: the live members of every due class (tasks, with
	// their consumer indices in taskIdx) and their feed results.
	tasks   []Consumer
	taskIdx []int32
	res     []feedResult

	maxEvents, maxBytes int
	events, deliveries  int64
	flushes             int64
	// disp, when non-nil, receives the routing totals at close.
	disp *DispatchStats
}

func newTrieSink(t *shared.Trie, members [][]int32, consumers []Consumer, maxEvents, maxBytes int, disp *DispatchStats) *trieSink {
	if members == nil {
		// Trie built directly over the consumers: one class each.
		members = make([][]int32, len(consumers))
		for i := range members {
			members[i] = []int32{int32(i)}
		}
	}
	s := &trieSink{
		t:         t,
		cons:      consumers,
		members:   members,
		clsLive:   make([]int32, len(members)),
		pend:      make([]*xsax.Batch, len(members)),
		dead:      make([]bool, len(consumers)),
		cls:       make([]int32, len(consumers)),
		dueMark:   make([]bool, len(members)),
		maxEvents: maxEvents,
		maxBytes:  maxBytes,
		disp:      disp,
	}
	for c := range s.pend {
		s.pend[c] = xsax.GetBatch()
		s.clsLive[c] = int32(len(members[c]))
		for _, p := range members[c] {
			s.cls[p] = int32(c)
		}
	}
	s.stack = append(s.stack, tframe{node: t.Root(), fan: -1})
	return s
}

// feed routes one validated batch and flushes the classes whose pending
// batches filled: only their plans are woken.
func (s *trieSink) feed(evs []xsax.Event) {
	for i := range evs {
		s.route(&evs[i])
	}
	s.flushDue()
}

// route walks one event through the trie and appends it to every
// receiving plan's pending batch.
func (s *trieSink) route(ev *xsax.Event) {
	s.events++
	switch ev.Kind {
	case xmltok.StartElement:
		top := s.stack[len(s.stack)-1]
		if top.node == shared.Drop {
			s.stack = append(s.stack, tframe{node: shared.Drop, fan: -1})
			return
		}
		fan, next := s.t.StartChild(top.node, ev.Elem.ID())
		s.stack = append(s.stack, tframe{node: next, fan: fan})
		s.deliver(s.t.List(fan), ev)
	case xmltok.EndElement:
		n := len(s.stack) - 1
		if n < 1 {
			return
		}
		fr := s.stack[n]
		s.stack = s.stack[:n]
		if fr.fan >= 0 {
			s.deliver(s.t.List(fr.fan), ev)
		}
	case xmltok.Text:
		if top := s.stack[len(s.stack)-1]; top.node != shared.Drop {
			s.deliver(s.t.TextList(top.node), ev)
		}
	default:
		// Comments, processing instructions and directives: no evaluator
		// output depends on them (copy regions reproduce elements and
		// text only), so they are not routed.
	}
}

func (s *trieSink) deliver(classes []int32, ev *xsax.Event) {
	for _, c := range classes {
		n := s.clsLive[c]
		if n == 0 {
			continue
		}
		b := s.pend[c]
		b.Append(ev)
		s.deliveries += int64(n)
		if !s.dueMark[c] && (b.Len() >= s.maxEvents || b.ArenaBytes() >= s.maxBytes) {
			s.dueMark[c] = true
			s.due = append(s.due, c)
		}
	}
}

// flushDue feeds every due class's pending batch to its live members in
// one feed step, so the plans of all due classes evaluate concurrently.
func (s *trieSink) flushDue() {
	if len(s.due) == 0 {
		return
	}
	s.tasks, s.taskIdx = s.tasks[:0], s.taskIdx[:0]
	for _, c := range s.due {
		for _, p := range s.members[c] {
			if !s.dead[p] {
				s.tasks = append(s.tasks, s.cons[p])
				s.taskIdx = append(s.taskIdx, p)
			}
		}
	}
	s.res = feedAll(s.tasks, func(i int) []xsax.Event {
		return s.pend[s.cls[s.taskIdx[i]]].Events
	}, s.res)
	s.flushes += int64(len(s.tasks))
	for i, r := range s.res {
		if r.done {
			p := s.taskIdx[i]
			s.cons[p].Close(r.err)
			s.dead[p] = true
			s.clsLive[s.cls[p]]--
		}
	}
	for _, c := range s.due {
		s.pend[c].Reset()
		s.dueMark[c] = false
	}
	s.due = s.due[:0]
}

// close flushes every remaining pending batch, closes the consumers
// with the stream's terminal status, returns the pending batches to the
// pool and reports the routing totals.
func (s *trieSink) close(cause error) {
	s.due = s.due[:0]
	for c := range s.pend {
		if s.clsLive[c] > 0 && s.pend[c].Len() > 0 {
			s.dueMark[c] = true
			s.due = append(s.due, int32(c))
		}
	}
	s.flushDue()
	for p, cons := range s.cons {
		if !s.dead[p] {
			cons.Close(cause)
		}
	}
	for c := range s.pend {
		xsax.PutBatch(s.pend[c])
		s.pend[c] = nil
	}
	if ds := s.disp; ds != nil {
		ds.Events = s.events
		ds.Deliveries = s.deliveries
		ds.Flushes = s.flushes
	}
}
