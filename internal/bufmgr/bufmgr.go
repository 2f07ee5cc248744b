// Package bufmgr is the engine's memory-governed buffer manager: it
// turns the paper's buffer-minimization *metric* (the deterministic byte
// accounting of internal/dom, reported as Stats.PeakBufferBytes) into an
// operational *guarantee*. A process-global Manager owns a configurable
// byte budget; every BDF buffer-fill point in the runtime reserves
// against it through a per-plan Account and releases when the evaluator
// frees the buffer, so the live heap residency of all buffered subtrees
// is known at every instant.
//
// Three overflow policies decide what happens when a reservation would
// exceed the budget:
//
//   - PolicyFail: the reservation returns ErrBudgetExceeded and the plan
//     aborts deterministically. The cap applies per Account (per plan),
//     so in a shared pass one over-budget query errors without poisoning
//     its siblings.
//   - PolicySpill: the Account evicts its coldest buffered subtrees —
//     largest first — to a temp-file segment store (dom↔bytes codec,
//     codec.go) and rehydrates them transparently on first evaluator
//     access (the dom.Node Lazy hook). Live heap buffer bytes stay under
//     the budget whenever any spillable subtree remains.
//   - PolicyBackpressure: reservations always succeed, but the pass's
//     Gate blocks the stream driver (runtime feed loop, mqe dispatcher)
//     while the manager is over budget and another pass still holds
//     reservations it can drain. A shared pass therefore throttles
//     instead of dying; the gate's deadlock rule guarantees that at
//     least one pass always proceeds.
//
// Locking: the reservation ledger lives under the Manager mutex. An
// Account is owned by one evaluator goroutine; spilling and rehydration
// touch only that account's own subtrees, so no cross-goroutine tree
// access ever happens (a sibling plan's evaluator may be reading its
// buffers concurrently — they are never victims of another account).
package bufmgr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fluxquery/internal/dom"
)

// Policy selects the overflow behavior of a Manager.
type Policy int

// Overflow policies.
const (
	// PolicyFail rejects the reservation that would push an account past
	// the budget with ErrBudgetExceeded.
	PolicyFail Policy = iota
	// PolicySpill serializes cold buffered subtrees to disk to stay
	// under the budget, rehydrating on first access.
	PolicySpill
	// PolicyBackpressure blocks the stream driver at its Gate until
	// reservations drain elsewhere in the process.
	PolicyBackpressure
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyFail:
		return "fail"
	case PolicySpill:
		return "spill"
	case PolicyBackpressure:
		return "backpressure"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a flag value ("fail", "spill", "backpressure").
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "fail":
		return PolicyFail, true
	case "spill":
		return PolicySpill, true
	case "backpressure":
		return PolicyBackpressure, true
	default:
		return 0, false
	}
}

// ErrBudgetExceeded reports a reservation rejected under PolicyFail.
// Errors returned by the manager match it under errors.Is.
var ErrBudgetExceeded = errors.New("bufmgr: buffer budget exceeded")

// BudgetError carries the ledger state of a rejected reservation.
type BudgetError struct {
	// Budget is the configured byte budget.
	Budget int64
	// Held is what the rejected account already held.
	Held int64
	// Need is the reservation that did not fit.
	Need int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("bufmgr: buffer budget exceeded: plan holds %d B, needs %d B more, budget %d B",
		e.Held, e.Need, e.Budget)
}

// Is makes errors.Is(err, ErrBudgetExceeded) hold.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Config configures a Manager.
type Config struct {
	// Budget bounds the live heap bytes of all buffered data governed by
	// the manager. <= 0 disables enforcement (the manager still
	// accounts, so metrics stay available).
	Budget int64
	// Policy selects the overflow behavior.
	Policy Policy
	// SpillDir is where PolicySpill keeps its segment file ("" =
	// os.TempDir()). The file is created lazily on first spill and
	// unlinked immediately, so it can never outlive the process.
	SpillDir string
	// SpillUnit is the eviction granularity: a freshly buffered subtree
	// is cut into disjoint chunks of at most roughly this many bytes
	// (descending into element children until a piece fits) and each
	// chunk spills and rehydrates independently. Small units are what
	// keep residency bounded when a once-handler iterates a buffer much
	// larger than the budget — only the chunk under the evaluator's
	// cursor needs to be resident. 0 derives a unit from the budget
	// (budget/16, clamped to [256 B, 64 KiB]).
	SpillUnit int64
}

// Manager is a process-global buffer-memory governor. All methods are
// safe for concurrent use.
type Manager struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	// total is the live heap bytes currently reserved across accounts.
	total int64
	peak  int64
	// gates tracks every open Gate for the backpressure holder scan.
	gates  map[*Gate]struct{}
	store  *segStore
	closed bool

	// metrics
	spilledBytes    int64
	rehydratedBytes int64
	spillOps        int64
	rehydrateOps    int64
	stallNanos      int64
	stalls          int64
	rejections      int64
	overshootPeak   int64
}

// New returns a Manager for the given configuration. Start-up also
// sweeps the configured spill directory for segment dirs orphaned by
// dead processes (see sweepStaleSpillDirs) — the one leak the unlinked
// segment file cannot prevent is its parent per-process directory.
func New(cfg Config) *Manager {
	m := &Manager{cfg: cfg, gates: map[*Gate]struct{}{}}
	m.cond = sync.NewCond(&m.mu)
	sweepStaleSpillDirs(cfg.SpillDir)
	return m
}

// Budget returns the configured byte budget (<= 0 when unenforced).
func (m *Manager) Budget() int64 { return m.cfg.Budget }

// Policy returns the configured overflow policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// enforced reports whether the budget is active.
func (m *Manager) enforced() bool { return m != nil && m.cfg.Budget > 0 }

// Close releases the spill store. Accounts and gates must be closed
// first; Close is idempotent.
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.store != nil {
		return m.store.close()
	}
	return nil
}

// Metrics is a point-in-time snapshot of the manager's counters.
type Metrics struct {
	// Budget and Policy echo the configuration.
	Budget int64  `json:"budget"`
	Policy string `json:"policy"`
	// ReservedBytes is the current live reservation total;
	// PeakReservedBytes its high-water mark.
	ReservedBytes     int64 `json:"reserved_bytes"`
	PeakReservedBytes int64 `json:"peak_reserved_bytes"`
	// OvershootPeakBytes is the high-water of reservations past the
	// budget (spill had no victims left, or backpressure force-granted).
	OvershootPeakBytes int64 `json:"overshoot_peak_bytes"`
	// SpilledBytes/SpillOps and RehydratedBytes/RehydrateOps count
	// spill-store traffic (cumulative).
	SpilledBytes    int64 `json:"spilled_bytes"`
	SpillOps        int64 `json:"spill_ops"`
	RehydratedBytes int64 `json:"rehydrated_bytes"`
	RehydrateOps    int64 `json:"rehydrate_ops"`
	// SpillFileBytes/SpillSegsLive describe the segment file.
	SpillFileBytes int64 `json:"spill_file_bytes"`
	SpillSegsLive  int64 `json:"spill_segs_live"`
	// SpillRetries counts transparently retried spill I/O operations
	// (transient write/read failures absorbed by the backoff loop).
	SpillRetries int64 `json:"spill_retries"`
	// Stall/Stalls accumulate backpressure gate waits. Stall marshals as
	// integer nanoseconds, keeping the JSON wire format of the old
	// StallNanos field.
	Stall  time.Duration `json:"stall_nanos"`
	Stalls int64         `json:"stalls"`
	// Rejections counts PolicyFail budget errors.
	Rejections int64 `json:"rejections"`
}

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mt := Metrics{
		Budget:             m.cfg.Budget,
		Policy:             m.cfg.Policy.String(),
		ReservedBytes:      m.total,
		PeakReservedBytes:  m.peak,
		OvershootPeakBytes: m.overshootPeak,
		SpilledBytes:       m.spilledBytes,
		SpillOps:           m.spillOps,
		RehydratedBytes:    m.rehydratedBytes,
		RehydrateOps:       m.rehydrateOps,
		Stall:              time.Duration(m.stallNanos),
		Stalls:             m.stalls,
		Rejections:         m.rejections,
	}
	if m.store != nil {
		mt.SpillFileBytes = m.store.fileBytes()
		mt.SpillSegsLive = m.store.liveSegs()
		mt.SpillRetries = m.store.retryCount()
	}
	return mt
}

// commitLocked adds n (possibly negative) to the ledger.
func (m *Manager) commitLocked(g *Gate, n int64) {
	m.total += n
	if m.total > m.peak {
		m.peak = m.total
	}
	if over := m.total - m.cfg.Budget; m.cfg.Budget > 0 && over > m.overshootPeak {
		m.overshootPeak = over
	}
	if g != nil {
		g.held += n
	}
	if n < 0 {
		// Drained reservations may unblock backpressure waiters.
		m.cond.Broadcast()
	}
}

// segstore returns the lazily created spill store.
func (m *Manager) segstore() (*segStore, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("bufmgr: manager closed")
	}
	if m.store == nil {
		st, err := openSegStore(m.cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		m.store = st
	}
	return m.store, nil
}

// Gate is one stream pass's backpressure point. The driver that feeds
// the pass calls Wait before each batch; under PolicyBackpressure the
// call blocks while the process is over budget and some other pass still
// holds reservations it can drain.
type Gate struct {
	m *Manager
	// ctx, when non-nil, cancels the pass: Wait returns its error
	// instead of (or while) blocking. Set once by Bind before the pass
	// starts; the watcher goroutine broadcasts the manager condition on
	// cancellation so parked waiters re-check and unpark.
	ctx       context.Context
	stopWatch chan struct{}
	// held aggregates the reservations of all attached accounts
	// (guarded by m.mu).
	held int64
	// waiting marks the gate blocked in Wait (guarded by m.mu). A
	// waiting pass cannot drain anything, so it does not count as a
	// holder for other gates' wait conditions — the rule that makes the
	// whole scheme deadlock-free: the last would-be waiter always
	// proceeds.
	waiting bool
	stall   int64
	closed  bool
}

// NewGate registers a new pass with the manager.
func (m *Manager) NewGate() *Gate {
	if m == nil {
		return nil
	}
	g := &Gate{m: m}
	m.mu.Lock()
	m.gates[g] = struct{}{}
	m.mu.Unlock()
	return g
}

// Bind attaches a cancellation context to the gate. It must be called
// before the pass's first Wait; the gate holds one watcher goroutine
// until Close (or cancellation, whichever is first) so that a Wait
// parked on the backpressure condition unparks when ctx is cancelled.
func (g *Gate) Bind(ctx context.Context) {
	if g == nil || ctx == nil || ctx.Done() == nil {
		return
	}
	g.ctx = ctx
	if !g.m.enforced() || g.m.cfg.Policy != PolicyBackpressure {
		// No condition waits to unpark: Wait polls ctx.Err directly.
		return
	}
	m := g.m
	stop := make(chan struct{})
	g.stopWatch = stop
	go func() {
		select {
		case <-ctx.Done():
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		case <-stop:
		}
	}()
}

// Wait blocks per the backpressure rule and returns nil when the pass
// may proceed. With a bound context it returns the context's error as
// soon as the pass is cancelled — also from inside a parked wait, which
// the Bind watcher unblocks. It is a no-op on a nil gate and a pure
// cancellation check under any policy other than backpressure.
func (g *Gate) Wait() error {
	if g == nil {
		return nil
	}
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return err
		}
	}
	if !g.m.enforced() || g.m.cfg.Policy != PolicyBackpressure {
		return nil
	}
	m := g.m
	m.mu.Lock()
	var start time.Time
	for m.total > m.cfg.Budget && m.otherHolderLocked(g) {
		if g.ctx != nil && g.ctx.Err() != nil {
			break
		}
		if start.IsZero() {
			start = time.Now()
			m.stalls++
		}
		g.waiting = true
		// This gate just became a non-drainer: wake the others so they
		// re-evaluate their own wait conditions.
		m.cond.Broadcast()
		m.cond.Wait()
	}
	g.waiting = false
	if !start.IsZero() {
		d := time.Since(start).Nanoseconds()
		g.stall += d
		m.stallNanos += d
	}
	m.mu.Unlock()
	if g.ctx != nil {
		return g.ctx.Err()
	}
	return nil
}

// otherHolderLocked reports whether some other pass holds reservations
// and is not itself blocked — i.e. whether waiting can help.
func (m *Manager) otherHolderLocked(g *Gate) bool {
	for h := range m.gates {
		if h != g && h.held > 0 && !h.waiting {
			return true
		}
	}
	return false
}

// Stall returns the cumulative time the gate has spent blocked.
func (g *Gate) Stall() time.Duration {
	if g == nil {
		return 0
	}
	g.m.mu.Lock()
	defer g.m.mu.Unlock()
	return time.Duration(g.stall)
}

// Close deregisters the pass. Attached accounts must be closed first.
func (g *Gate) Close() {
	if g == nil {
		return
	}
	if g.stopWatch != nil {
		close(g.stopWatch)
		g.stopWatch = nil
	}
	m := g.m
	m.mu.Lock()
	if !g.closed {
		g.closed = true
		delete(m.gates, g)
		// A departing holder can change other gates' wait conditions.
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// Account is one plan execution's reservation ledger. It is owned by a
// single evaluator goroutine: Filled, Freed, Release, Pin and Unpin must
// not be called concurrently (Close may be called by the driver after
// the evaluator has terminated).
type Account struct {
	m *Manager
	g *Gate
	// unit is the account's eviction granularity (see Config.SpillUnit).
	unit int64
	// held is the account's live heap reservation; peak its high-water.
	held int64
	peak int64
	// victims registers the account's spillable buffered subtrees.
	victims map[*dom.Node]*spillRec
	// redrop is the MRU stack of rehydrated units: their segments are
	// still on disk, so dropping one is free (no encode, no write) and
	// O(1). Entries go stale when a unit is freed or re-dropped through
	// another path; pops skip them.
	redrop []redropEntry

	spilledBytes    int64
	rehydratedBytes int64
	spillOps        int64
	rehydrateOps    int64
	// ticks stamps fill/rehydrate order onto units for MRU re-drops.
	ticks  int64
	closed bool
}

// spillRec is the spill state of one tracked buffered subtree.
type spillRec struct {
	// logical is the subtree's full accounted size at fill time;
	// payload the spillable portion (children only — the root node's
	// name and attributes stay resident so handler-free matching and
	// attribute axes work without disk access).
	logical int64
	payload int64
	seg     seg
	onDisk  bool
	// resident marks the children heap-resident (true for a fresh fill
	// and after rehydration; a rehydrated subtree keeps its segment so
	// dropping it again is free).
	resident bool
	pins     int
	// seq is the unit's last fill/rehydrate tick, for the MRU re-drop
	// order (see makeRoom).
	seq int64
	// dead marks a freed unit; stale stack entries check it.
	dead bool
}

type redropEntry struct {
	n   *dom.Node
	rec *spillRec
}

// NewAccount attaches a new account to the gate's pass.
func (g *Gate) NewAccount() *Account {
	if g == nil {
		return nil
	}
	a := &Account{m: g.m, g: g, unit: g.m.cfg.SpillUnit}
	if a.unit <= 0 {
		a.unit = g.m.cfg.Budget / 16
		if a.unit < 256 {
			a.unit = 256
		}
		if a.unit > 64<<10 {
			a.unit = 64 << 10
		}
	}
	return a
}

// Filled reserves logical bytes of freshly buffered data rooted at n in
// one step, applying the overflow policy. spillable cuts n into spill
// units and registers them as eviction candidates; text fills pass
// false. n may be nil when spillable is false. (Bulk fills reserve
// before the units register, so they can only spill *previously* filled
// data; the materializer streams large fills through a Filler instead.)
func (a *Account) Filled(n *dom.Node, logical int64, spillable bool) error {
	if a == nil || logical <= 0 {
		return nil
	}
	if err := a.reserve(logical); err != nil {
		return err
	}
	if spillable && n != nil {
		a.registerUnits(n, logical)
	}
	return nil
}

// Filler incrementally accounts one materializing subtree against the
// account. The runtime's materializer streams construction through it —
// Push on a kept element start, Text on a kept text node, Pop on the
// element end — and the filler reserves and registers eviction units as
// subtrees complete, instead of one bulk reservation at the end. That is
// what lets a buffer far larger than the budget build up without ever
// holding more than the budget in accounted residency: each completed
// unit's reservation may spill the units completed before it.
//
// The unit cut is the same as registerUnits': a completed element of at
// most unit bytes (or with nothing but text below it) rides along as a
// candidate; the first oversized ancestor registers and reserves its
// candidates as units and leaves its own skeleton to the final Finish
// reservation.
type Filler struct {
	a *Account
	// stack mirrors the materializer's kept-element stack.
	stack []fillFrame
	// reserved is what the filler has already committed; Finish reserves
	// the remainder of the root's total.
	reserved int64
}

type fillFrame struct {
	node *dom.Node
	size int64
	// elemKids marks that at least one element child was pushed; an
	// oversized frame with nothing but text below it registers itself
	// as one (unsplittable) unit, mirroring cutWalk's rule.
	elemKids bool
	// cands are completed child subtrees still small enough to merge
	// into this frame's unit. They are reserved and registered the
	// moment the frame's accumulated size passes the unit threshold —
	// the frame can then never merge them (size only grows) — so the
	// built-but-unaccounted backlog is bounded by one unit per open
	// frame, not by the subtree.
	cands []fillCand
}

type fillCand struct {
	node *dom.Node
	size int64
}

// NewFiller starts the incremental accounting of one buffered subtree
// rooted at root (nil account returns a nil filler; all methods are
// nil-safe no-ops so the unmanaged path stays zero-cost).
func (a *Account) NewFiller(root *dom.Node) *Filler {
	if a == nil {
		return nil
	}
	f := &Filler{a: a}
	f.stack = append(f.stack, fillFrame{node: root, size: root.SelfSize()})
	return f
}

// Push mirrors a kept child element start.
func (f *Filler) Push(n *dom.Node) {
	if f == nil {
		return
	}
	f.stack[len(f.stack)-1].elemKids = true
	f.stack = append(f.stack, fillFrame{node: n, size: n.SelfSize()})
}

// Text mirrors a kept text node appended to the current element.
func (f *Filler) Text(n *dom.Node) {
	if f == nil {
		return
	}
	f.stack[len(f.stack)-1].size += n.SelfSize()
}

// Pop mirrors the current element's end tag. It may reserve (and spill)
// as completed subtrees pass the unit threshold; a budget rejection
// aborts the materialization.
func (f *Filler) Pop() error {
	if f == nil {
		return nil
	}
	top := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	parent := &f.stack[len(f.stack)-1]
	parent.size += top.size
	if top.size <= f.a.unit {
		// Small enough to be one unit. While the parent itself still
		// fits under the threshold it may yet merge its children into
		// one larger unit, and the deferred backlog is bounded by the
		// unit size; the moment it outgrows that, its candidates are
		// committed units — reserve them now, mid-parse.
		parent.cands = append(parent.cands, fillCand{node: top.node, size: top.size})
		if parent.size > f.a.unit {
			return f.flushCands(parent)
		}
		return nil
	}
	if !top.elemKids {
		// Oversized but nothing below it except text: unsplittable,
		// register the element itself (cutWalk's rule) so large text
		// blocks stay evictable.
		if err := f.a.reserve(top.size); err != nil {
			return err
		}
		f.reserved += top.size
		f.a.track(top.node, top.size)
		return nil
	}
	// Oversized: remaining candidates (accumulated before the frame
	// crossed the threshold via text) become units; the skeleton is
	// reserved by Finish.
	return f.flushCands(&top)
}

// flushCands reserves and registers a frame's accumulated candidate
// units and empties the list.
func (f *Filler) flushCands(fr *fillFrame) error {
	err := f.a.reserveUnits(fr.cands, &f.reserved)
	fr.cands = fr.cands[:0]
	return err
}

// Finish completes the subtree's accounting: the root's remaining bytes
// (its skeleton plus everything not yet reserved) are reserved in one
// step and the root-level units registered. It returns the subtree's
// full logical size as streamed through the filler — the caller must
// record *this* in its logical ledger, not a post-hoc Size() walk, which
// under-reports whenever pressure already spilled units of this very
// subtree during construction.
func (f *Filler) Finish() (total int64, err error) {
	if f == nil {
		return 0, nil
	}
	root := f.stack[0]
	a := f.a
	total = root.size
	if root.size <= a.unit || !hasElementChild(root.node) {
		// The whole subtree is one unit.
		if err := a.reserve(total - f.reserved); err != nil {
			return total, err
		}
		a.track(root.node, total)
		return total, nil
	}
	if err := a.reserveUnits(root.cands, &f.reserved); err != nil {
		return total, err
	}
	return total, a.reserve(total - f.reserved)
}

// reserveUnits reserves and registers a batch of completed units,
// spilling older units for room as needed.
func (a *Account) reserveUnits(cands []fillCand, reserved *int64) error {
	for _, c := range cands {
		if err := a.reserve(c.size); err != nil {
			return err
		}
		*reserved += c.size
		a.track(c.node, c.size)
	}
	return nil
}

// reserve applies the overflow policy to n fresh bytes and commits them.
func (a *Account) reserve(n int64) error {
	if n <= 0 {
		return nil
	}
	m := a.m
	if m.enforced() {
		switch m.cfg.Policy {
		case PolicyFail:
			if a.held+n > m.cfg.Budget {
				m.mu.Lock()
				m.rejections++
				m.mu.Unlock()
				return &BudgetError{Budget: m.cfg.Budget, Held: a.held, Need: n}
			}
		case PolicySpill:
			if err := a.makeRoom(n); err != nil {
				return err
			}
		}
	}
	a.commit(n)
	return nil
}

// track registers one eviction unit of the given fill-time size.
func (a *Account) track(n *dom.Node, sz int64) {
	if a.m.cfg.Policy != PolicySpill || !a.m.enforced() {
		return
	}
	if payload := sz - n.SelfSize(); payload > 0 {
		if a.victims == nil {
			a.victims = make(map[*dom.Node]*spillRec)
		}
		a.ticks++
		a.victims[n] = &spillRec{logical: sz, payload: payload, resident: true, seq: a.ticks}
	}
}

// registerUnits cuts a freshly buffered subtree into disjoint eviction
// units: a node small enough (or with nothing but text below it) becomes
// one unit; an oversized node stays resident and its element children
// are cut recursively. Units are disjoint and never nested, so a spilled
// unit's segment always holds complete, self-contained content.
//
// The cut runs bottom-up in a single O(nodes) walk: every element
// registers itself when small enough, and a parent that also fits
// absorbs its directly registered children into one larger unit. A
// child that was itself oversized registered only its descendants (not
// itself), and then the parent is oversized too, so absorption never
// reaches past one level — units stay disjoint. sz is ignored (the walk
// computes exact sizes); it remains a parameter so callers that already
// know the size read naturally.
func (a *Account) registerUnits(n *dom.Node, sz int64) {
	if n.Kind != dom.ElementNode {
		return
	}
	a.cutWalk(n)
}

func (a *Account) cutWalk(n *dom.Node) int64 {
	sz := n.SelfSize()
	elemKids := false
	for _, c := range n.Children {
		if c.Kind == dom.ElementNode {
			elemKids = true
			sz += a.cutWalk(c)
		} else {
			sz += c.SelfSize()
		}
	}
	if sz <= a.unit || !elemKids {
		for _, c := range n.Children {
			delete(a.victims, c)
		}
		a.track(n, sz)
	}
	return sz
}

func hasElementChild(n *dom.Node) bool {
	for _, c := range n.Children {
		if c.Kind == dom.ElementNode {
			return true
		}
	}
	return false
}

// commit moves n bytes (possibly negative) through the ledgers.
func (a *Account) commit(n int64) {
	a.held += n
	if a.held > a.peak {
		a.peak = a.held
	}
	m := a.m
	m.mu.Lock()
	m.commitLocked(a.g, n)
	m.mu.Unlock()
}

// Release returns n bytes of untracked residency (text fills, or whole
// frames freed in one sweep after their tracked children were Freed).
func (a *Account) Release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.commit(-n)
}

// FreeTree releases one buffered subtree the evaluator is done with: it
// walks the resident part of the tree, removes every eviction unit it
// contains (returning spill segments to the store), and drains the
// resident bytes from the ledger in one commit. It reports the
// subtree's logical size — fill-time sizes for spilled units, resident
// sizes for the rest — which is what the caller's logical ledger must
// shrink by. Call it exactly once per buffered subtree.
func (a *Account) FreeTree(n *dom.Node) int64 {
	if a == nil {
		return n.Size()
	}
	logical, resident := a.freeWalk(n)
	a.commit(-resident)
	return logical
}

func (a *Account) freeWalk(n *dom.Node) (logical, resident int64) {
	if rec, ok := a.victims[n]; ok {
		delete(a.victims, n)
		rec.dead = true
		if rec.onDisk {
			a.m.freeSeg(rec.seg)
		}
		resident = rec.logical - rec.payload
		if rec.resident {
			resident = rec.logical
		}
		return rec.logical, resident
	}
	// Untracked node: its own bytes are resident; units can only occur
	// further down (they are never nested, and nothing is tracked below
	// a spilled stub).
	self := n.SelfSize()
	logical, resident = self, self
	for _, c := range n.Children {
		cl, cr := a.freeWalk(c)
		logical += cl
		resident += cr
	}
	return logical, resident
}

// Pin marks a tracked subtree unevictable while a handler replays it;
// Unpin reverses. Both are no-ops for untracked nodes.
func (a *Account) Pin(n *dom.Node) {
	if a == nil || a.victims == nil {
		return
	}
	if rec, ok := a.victims[n]; ok {
		rec.pins++
	}
}

// Unpin reverses Pin.
func (a *Account) Unpin(n *dom.Node) {
	if a == nil || a.victims == nil {
		return
	}
	if rec, ok := a.victims[n]; ok && rec.pins > 0 {
		rec.pins--
	}
}

// makeRoom spills the account's coldest resident units — largest first —
// until need more bytes fit under the budget or no victims remain (the
// reservation then overshoots; the overshoot high-water is recorded in
// the metrics). Once pressure triggers, it spills past the bare minimum
// by a headroom of budget/8 so that a steady stream of small fills pays
// for one victim scan per chunk of traffic, not per fill.
func (a *Account) makeRoom(need int64) error {
	m := a.m
	m.mu.Lock()
	over := m.total + need - m.cfg.Budget
	m.mu.Unlock()
	if over <= 0 {
		return nil
	}
	// Free re-drops first: pop the MRU stack of rehydrated units, one at
	// a time and without headroom — each pop is O(1) and costs no I/O.
	// MRU is the optimal replacement for the cyclic scans a nested-loop
	// join makes over a buffer (LRU would evict exactly what the next
	// iteration needs next), and popping precisely enough preserves the
	// stable resident prefix that makes MRU work; a batched eviction
	// here would wipe the whole cursor trail every time.
	for over > 0 && len(a.redrop) > 0 {
		e := a.redrop[len(a.redrop)-1]
		a.redrop = a.redrop[:len(a.redrop)-1]
		rec := e.rec
		if rec.dead || !rec.resident || !rec.onDisk || rec.pins > 0 {
			continue // stale entry (freed, already dropped, or pinned)
		}
		freed, err := a.spillOne(e.n, rec)
		if err != nil {
			return err
		}
		over -= freed
	}
	if over <= 0 {
		return nil
	}
	// Fresh spills encode and write a segment and rescan the victim set,
	// so once pressure triggers this path it evicts past the bare
	// minimum by budget/8 of headroom — a steady stream of small fills
	// then pays for one scan per chunk of traffic, not per fill. Order:
	// largest cold buffer first, so each segment write retires the most
	// memory; equal payloads go oldest first (by seq), so the victims do
	// not depend on map iteration order.
	over += m.cfg.Budget / 8
	type cand struct {
		n   *dom.Node
		rec *spillRec
	}
	var cands []cand
	for n, rec := range a.victims {
		if rec.resident && rec.pins == 0 && rec.payload > 0 {
			cands = append(cands, cand{n, rec})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i].rec, cands[j].rec
		if a.payload != b.payload {
			return a.payload > b.payload
		}
		return a.seq < b.seq
	})
	for _, c := range cands {
		if over <= 0 {
			break
		}
		freed, err := a.spillOne(c.n, c.rec)
		if err != nil {
			return err
		}
		over -= freed
	}
	return nil
}

// spillOne evicts one resident subtree's children: to its retained
// segment when it has one (a rehydrated subtree), otherwise by encoding
// them into a fresh segment. It returns the bytes released.
func (a *Account) spillOne(n *dom.Node, rec *spillRec) (int64, error) {
	if !rec.onDisk {
		data := EncodeChildren(n)
		st, err := a.m.segstore()
		if err != nil {
			return 0, err
		}
		sg, err := st.put(data)
		if err != nil {
			return 0, err
		}
		rec.seg, rec.onDisk = sg, true
	}
	n.Children = nil
	n.Lazy = a.hydrateHook(rec)
	rec.resident = false
	a.commit(-rec.payload)
	a.spilledBytes += rec.payload
	a.spillOps++
	m := a.m
	m.mu.Lock()
	m.spilledBytes += rec.payload
	m.spillOps++
	m.mu.Unlock()
	return rec.payload, nil
}

// hydrateHook builds the dom.Node Lazy hook that restores a spilled
// subtree on first traversal. Rehydration reserves the payload again,
// which may in turn spill other cold subtrees of the same account — the
// mechanism that keeps residency bounded while a once-handler walks a
// buffer much larger than the budget. Hydration runs on the evaluator
// goroutine; an I/O failure panics and is converted into the plan's
// error by the runtime's recover wrapper.
func (a *Account) hydrateHook(rec *spillRec) func(*dom.Node) {
	return func(n *dom.Node) {
		rec.pins++
		if err := a.makeRoom(rec.payload); err != nil {
			rec.pins--
			panic(fmt.Errorf("bufmgr: rehydrate: %w", err))
		}
		st, err := a.m.segstore()
		if err == nil {
			err = st.get(rec.seg, func(data []byte) error {
				return DecodeChildren(n, data)
			})
		}
		rec.pins--
		if err != nil {
			panic(fmt.Errorf("bufmgr: rehydrate: %w", err))
		}
		rec.resident = true
		a.ticks++
		rec.seq = a.ticks
		a.redrop = append(a.redrop, redropEntry{n: n, rec: rec})
		a.commit(rec.payload)
		a.rehydratedBytes += rec.payload
		a.rehydrateOps++
		m := a.m
		m.mu.Lock()
		m.rehydratedBytes += rec.payload
		m.rehydrateOps++
		m.mu.Unlock()
	}
}

// AccountStats is the final ledger of one closed account.
type AccountStats struct {
	// PeakBytes is the account's live heap high-water mark.
	PeakBytes int64
	// SpilledBytes/RehydratedBytes count the account's spill traffic.
	SpilledBytes    int64
	RehydratedBytes int64
	SpillOps        int64
	RehydrateOps    int64
}

// Close releases everything the account still holds (an aborted plan
// dies with live buffers) and returns its final stats. It may be called
// from the driver goroutine once the evaluator has terminated; it is
// idempotent.
func (a *Account) Close() AccountStats {
	if a == nil {
		return AccountStats{}
	}
	st := AccountStats{
		PeakBytes:       a.peak,
		SpilledBytes:    a.spilledBytes,
		RehydratedBytes: a.rehydratedBytes,
		SpillOps:        a.spillOps,
		RehydrateOps:    a.rehydrateOps,
	}
	if a.closed {
		return st
	}
	a.closed = true
	for _, rec := range a.victims {
		if rec.onDisk {
			a.m.freeSeg(rec.seg)
		}
	}
	a.victims = nil
	if a.held != 0 {
		a.commit(-a.held)
	}
	return st
}

// freeSeg returns a segment to the store (no-op when the store was
// never created or already closed).
func (m *Manager) freeSeg(s seg) {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	if st != nil {
		st.free(s)
	}
}
