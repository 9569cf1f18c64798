package sim

import (
	"math/bits"

	"rtsync/internal/model"
)

// Wheel geometry: wheelLevels levels of wheelSlots buckets, wheelBits bits
// of the timestamp per level. Level 0 buckets are single ticks; a level-l
// bucket spans 64^l ticks. Together the levels cover wheelSpan (64^4 ≈
// 16.8M) ticks ahead of the cursor — comfortably past the largest workload
// period (1e7 ticks at the default tick scale) — and events beyond that
// wait in an overflow min-heap until the cursor's block reaches them.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelSpan   = int64(1) << (wheelBits * wheelLevels)
	// numKinds is the count of event kinds (completion, timer, release);
	// level-0 buckets keep one FIFO per kind to drain in exact kind order.
	numKinds = 3
)

// wheelNode is one queued event in the wheel's arena. Bucket FIFOs link
// nodes by arena reference, where reference 0 is nil and reference i+1 is
// nodes[i] — so zero-valued buckets and a zero-valued wheel are empty and
// valid, and no pointer chasing leaves the arena. The pad rounds the node
// up to one cache line: cascades walk nodes in arena order and relink them
// without copying the event, so keeping each node in a single line matters
// more than the 20 spare bytes.
type wheelNode struct {
	ev   event
	next int32
	_    [20]byte
}

// fifo is an intrusive singly-linked queue of arena references (0 = empty).
type fifo struct{ head, tail int32 }

// timingWheel is a hierarchical timer wheel over the int64 tick timeline,
// the O(1)-amortized replacement for the binary event heap. It reproduces
// the heap's total order (at, kind, seq) exactly:
//
//   - at: the cursor drains level-0 slots in increasing time; coarser
//     buckets cascade into finer ones before their window is reached, and
//     the overflow heap holds events beyond the wheel's horizon until the
//     cursor's block reaches them.
//   - kind: each level-0 bucket holds one ordered spill list per kind,
//     drained lowest kind first.
//   - seq: pushes append to bucket tails and seq increases monotonically
//     with push time, so every FIFO is seq-sorted; cascades and overflow
//     transfers replay events in (at, kind, seq) order before any later
//     push can reach the same bucket (see DESIGN.md §4e for the argument).
//
// The zero value is ready to use; reset reclaims everything while keeping
// the node arena's backing array, so a warm wheel allocates nothing.
type timingWheel struct {
	// cur is the drain cursor: the at of the most recently popped event,
	// or the bound of a later refused popBefore.
	// Invariant: every wheel-resident event e has e.at >= cur and
	// e.at^cur < wheelSpan (same top-level block); everything farther
	// out sits in overflow.
	cur   int64
	count int
	// occ[l] bit s is set iff bucket (l, s) is non-empty.
	occ [wheelLevels]uint64
	// l0 holds the level-0 buckets: per slot, one FIFO per event kind.
	l0 [wheelSlots][numKinds]fifo
	// l0kinds[s] bit k is set iff l0[s][k] is non-empty, so draining a
	// slot finds its minimum kind with one TrailingZeros8 instead of
	// probing all three FIFOs.
	l0kinds [wheelSlots]uint8
	// up holds levels 1..wheelLevels-1. Their buckets mix kinds in one
	// FIFO (insertion order = seq order); the cascade re-sorts on the
	// way down.
	up [wheelLevels - 1][wheelSlots]fifo
	// nodes is the arena; free heads the free list threaded through it.
	nodes []wheelNode
	free  int32
	// overflow holds events with at beyond the wheel's current block.
	overflow eventHeap
	// cascades counts bucket redistributions — the wheel's amortized
	// "sort debt", surfaced through obs.SimStats.
	cascades int64
}

// reset empties the wheel, keeping the arena's capacity for reuse.
func (w *timingWheel) reset() {
	w.cur = 0
	w.count = 0
	w.occ = [wheelLevels]uint64{}
	w.l0 = [wheelSlots][numKinds]fifo{}
	w.l0kinds = [wheelSlots]uint8{}
	w.up = [wheelLevels - 1][wheelSlots]fifo{}
	w.nodes = w.nodes[:0]
	w.free = 0
	w.overflow.reset()
	w.cascades = 0
}

func (w *timingWheel) len() int { return w.count + w.overflow.len() }

func (w *timingWheel) push(ev *event) {
	if int64(ev.at)^w.cur >= wheelSpan {
		w.overflow.push(*ev)
		return
	}
	w.place(ev)
}

// place copies an in-block event into the arena and routes the node. This
// is the only point where event bytes move into the wheel; cascades relink
// nodes without touching their payload.
func (w *timingWheel) place(ev *event) {
	w.placeNode(w.alloc(ev), int64(ev.at), routeKind(ev.kind))
}

// routeKind clamps an event kind into the level-0 FIFO range. Engine kinds
// are always in range, so this compiles to two never-taken branches; the
// stored event keeps its original kind.
func routeKind(k int8) int {
	if k < 0 {
		return 0
	}
	if k >= numKinds {
		return numKinds - 1
	}
	return int(k)
}

// placeNode routes node n, carrying an event at time at, to its bucket. The
// level is the highest six-bit digit where at and the cursor differ, so an
// event always lands in the finest level whose current window contains it;
// at == cur lands in the cursor's own level-0 slot, which the next pop
// still scans.
func (w *timingWheel) placeNode(n int32, at int64, k int) {
	if at < w.cur {
		// Unreachable from the engine (pushes are clamped to now);
		// route at the cursor so a buggy caller still drains.
		at = w.cur
	}
	w.count++
	if x := at ^ w.cur; x < wheelSlots {
		s := at & wheelMask
		w.append(&w.l0[s][k], n)
		w.l0kinds[s] |= 1 << uint(k)
		w.occ[0] |= 1 << uint(s)
	} else {
		l := (bits.Len64(uint64(x)) - 1) / wheelBits
		s := (at >> uint(l*wheelBits)) & wheelMask
		w.append(&w.up[l-1][s], n)
		w.occ[l] |= 1 << uint(s)
	}
}

// alloc takes a node from the free list, or extends the arena.
func (w *timingWheel) alloc(ev *event) int32 {
	if w.free != 0 {
		n := w.free
		nd := &w.nodes[n-1]
		w.free = nd.next
		nd.ev = *ev
		nd.next = 0
		return n
	}
	w.nodes = append(w.nodes, wheelNode{ev: *ev})
	return int32(len(w.nodes))
}

// append links node n at the tail of f.
func (w *timingWheel) append(f *fifo, n int32) {
	if f.tail == 0 {
		f.head, f.tail = n, n
		return
	}
	w.nodes[f.tail-1].next = n
	f.tail = n
}

// pop removes the minimum event by (at, kind, seq) into *dst. The caller
// must ensure len() > 0.
func (w *timingWheel) pop(dst *event) {
	if !w.popBefore(model.TimeInfinity, dst) {
		// Only events at TimeInfinity remain, and the refusal parked the
		// cursor on their level-0 slot.
		w.drainSlot(int(w.cur&wheelMask), dst)
	}
}

// popBefore removes the minimum event by (at, kind, seq) into *dst and
// reports true when that event's time is before x. Otherwise it pops
// nothing and leaves the cursor at x, so events pushed at or after x still
// route to the finest level that holds them. x must not precede the last
// popped time (or refused bound), or the cursor would move back; the
// engine passes its earliest tentative slot, which is never before now.
//
// Moving the cursor keeps the wheel's invariants: it never enters a coarse
// bucket's window without cascading that bucket first, and when the wheel
// is empty it pulls in the overflow block that contains x, so overflow
// still holds only events beyond the cursor's block.
func (w *timingWheel) popBefore(x model.Time, dst *event) bool {
	xt := int64(x)
	for {
		if w.count == 0 {
			if w.overflow.len() == 0 || int64(w.overflow.top().at) >= xt {
				w.cur = xt
				w.refill()
				return false
			}
			// Everything pending is beyond the wheel's block: jump the
			// cursor to the overflow's earliest event and pull its
			// whole block in.
			w.cur = int64(w.overflow.top().at)
			w.refill()
		}
		c0 := w.cur & wheelMask
		if rot := w.occ[0] >> uint(c0); rot != 0 {
			// Level 0 holds the minimum: the first occupied slot at or
			// after the cursor, inside the cursor's 64-tick window.
			t := w.cur + int64(bits.TrailingZeros64(rot))
			if t >= xt {
				w.cur = xt
				return false
			}
			w.cur = t
			w.drainSlot(int(t&wheelMask), dst)
			return true
		}
		advanced := false
		for l := 1; l < wheelLevels; l++ {
			shift := uint(l * wheelBits)
			cl := (w.cur >> shift) & wheelMask
			rot := w.occ[l] >> uint(cl)
			if rot == 0 {
				continue
			}
			s := cl + int64(bits.TrailingZeros64(rot))
			// Bucket (l, s) holds the minimum; its window starts at the
			// cursor with digit l set to s and every finer digit zeroed.
			clearMask := (int64(1) << (shift + wheelBits)) - 1
			start := (w.cur &^ clearMask) | (s << shift)
			if start > xt {
				// x falls before the window: no bucket's window
				// contains it, so the cursor can sit there as is.
				w.cur = xt
				return false
			}
			// Enter the window and spill the bucket downward. Each
			// event re-places at a level below l, so the level-0
			// rescan sees them.
			w.cur = start
			w.cascade(l, int(s))
			advanced = true
			break
		}
		if !advanced {
			panic("sim: timing wheel lost an event (occupancy empty with count > 0)")
		}
	}
}

// refill pulls every overflow event inside the cursor's block into the
// wheel. Heap pops arrive in (at, kind, seq) order, so the refilled FIFOs
// stay seq-sorted.
func (w *timingWheel) refill() {
	for w.overflow.len() > 0 && int64(w.overflow.top().at)^w.cur < wheelSpan {
		ev := w.overflow.pop()
		w.place(&ev)
	}
}

// drainSlot pops the minimum (kind, seq) event from level-0 slot s into
// *dst: the head of the lowest-kind non-empty FIFO, found via the slot's
// kind mask.
func (w *timingWheel) drainSlot(s int, dst *event) {
	k := bits.TrailingZeros8(w.l0kinds[s])
	if k >= numKinds {
		panic("sim: timing wheel level-0 bucket empty despite occupancy bit")
	}
	f := &w.l0[s][k]
	n := f.head
	nd := &w.nodes[n-1]
	f.head = nd.next
	if f.head == 0 {
		f.tail = 0
		if w.l0kinds[s] &^= 1 << uint(k); w.l0kinds[s] == 0 {
			w.occ[0] &^= 1 << uint(s)
		}
	}
	*dst = nd.ev
	nd.next = w.free
	w.free = n
	w.count--
}

// cascade redistributes bucket (l, s) into finer levels as the cursor
// enters its window, relinking each node in place — no event bytes move.
// Replayed in FIFO (= seq) order, every event lands at a level below l, and
// no later push can precede them into a bucket — which is what keeps
// same-instant pops in exact seq order.
func (w *timingWheel) cascade(l, s int) {
	f := &w.up[l-1][s]
	n := f.head
	f.head, f.tail = 0, 0
	w.occ[l] &^= 1 << uint(s)
	w.cascades++
	for n != 0 {
		nd := &w.nodes[n-1]
		next := nd.next
		nd.next = 0
		w.count--
		w.placeNode(n, int64(nd.ev.at), routeKind(nd.ev.kind))
		n = next
	}
}
