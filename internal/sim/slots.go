package sim

import (
	"math"
	"math/bits"

	"rtsync/internal/model"
)

// tentativeSlots holds each processor's one live tentative event outside
// the event heap: the running job's completion, or under MPCP/DPCP its
// next critical-section boundary. Every (re)arm follows a dispatch
// generation bump, so a slot's previous occupant is stale the moment it is
// overwritten — a preemption replaces the event instead of leaving it in
// the heap to pop as a no-op.
//
// Slot events are kindCompletion, the lowest kind, so among themselves they
// order by (at, seq) and at one instant they pop before any heap event.
// An empty slot holds emptyKey, which sorts after every armed slot, so
// finding the earliest is a branch-free minimum.
type tentativeSlots struct {
	s []slot // indexed by processor
	// first caches the index of the earliest armed slot; -1 means "look
	// again" (or, with armed == 0, that there is none).
	first int
	armed int
}

// slot is one processor's tentative event: gen is the dispatch generation
// that armed it, op is opCompletion or opSegment.
type slot struct {
	key slotKey
	gen int64
	op  int8
}

// slotKey orders slots: the event's time, then the sequence number of the
// arming push.
type slotKey struct {
	at  model.Time
	seq int64
}

// emptySeq is an unarmed slot's seq. No armed event carries it, so an
// event at TimeInfinity still sorts before an empty slot.
const emptySeq = math.MaxInt64

// emptyKey marks an unarmed slot; it sorts after every armed one.
var emptyKey = slotKey{at: model.TimeInfinity, seq: emptySeq}

// before reports whether k sorts before o. It compares (at, seq) as one
// 128-bit number — time with its sign bit flipped into unsigned order high,
// seq low — through the borrow of a subtraction, so the earliest-slot scan
// compiles to conditional moves instead of branches the CPU would
// mispredict.
func (k slotKey) before(o slotKey) bool {
	const sign = 1 << 63
	_, borrow := bits.Sub64(uint64(k.seq), uint64(o.seq), 0)
	_, borrow = bits.Sub64(uint64(k.at)^sign, uint64(o.at)^sign, borrow)
	return borrow != 0
}

// reset empties n slots, reusing the array.
func (t *tentativeSlots) reset(n int) {
	if cap(t.s) < n {
		t.s = make([]slot, n)
	}
	t.s = t.s[:n]
	for p := range t.s {
		t.s[p].key = emptyKey
	}
	t.first = -1
	t.armed = 0
}

// live reports whether processor p's slot holds an event.
func (t *tentativeSlots) live(p int) bool { return t.s[p].key.seq != emptySeq }

// set arms processor p's slot, replacing any occupant.
func (t *tentativeSlots) set(p int, ev slot) {
	if !t.live(p) {
		t.armed++
	}
	t.s[p] = ev
	switch {
	case t.first == p:
		t.first = -1 // it may no longer be the earliest
	case t.first >= 0 && ev.key.before(t.s[t.first].key):
		t.first = p
	}
}

// earliest returns the processor whose slot pops first, or -1 when none is
// armed.
func (t *tentativeSlots) earliest() int {
	if t.first < 0 && t.armed > 0 {
		t.first = t.scan()
	}
	return t.first
}

// scan finds the earliest slot; empty ones never win while any is armed.
func (t *tentativeSlots) scan() int {
	best, bk := 0, t.s[0].key
	for p := 1; p < len(t.s); p++ {
		if k := t.s[p].key; k.before(bk) {
			best, bk = p, k
		}
	}
	return best
}

// take empties processor p's slot — the earliest — into *dst as a
// kindCompletion event.
func (t *tentativeSlots) take(p int, dst *event) {
	sl := &t.s[p]
	*dst = event{at: sl.key.at, seq: sl.key.seq, inst: sl.gen, kind: kindCompletion, op: sl.op, a: int32(p)}
	sl.key = emptyKey
	t.armed--
	t.first = -1
}
