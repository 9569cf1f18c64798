package sim

import (
	"fmt"
	"testing"

	"rtsync/internal/model"
)

// queuePair drives the timing wheel and the reference heap through one
// program. Like the engine, it never pushes before the last popped time or
// before the bound of the last refused popBefore — the instant the engine's
// tentative slot then runs at.
type queuePair struct {
	wheel timingWheel
	heap  eventHeap
	seq   int64
	now   model.Time
}

func (q *queuePair) push(at model.Time, kind int8) error {
	q.seq++
	ev := event{at: at, kind: kind, seq: q.seq}
	q.wheel.push(&ev)
	q.heap.push(ev)
	if q.wheel.len() != q.heap.len() {
		return fmt.Errorf("len diverged after push: wheel %d heap %d", q.wheel.len(), q.heap.len())
	}
	return nil
}

// pop pops both queues and requires the same event.
func (q *queuePair) pop() error {
	var a event
	q.wheel.pop(&a)
	return q.popped(a, q.heap.pop())
}

// popBefore asks the wheel for an event before x. The reference pops only
// when its minimum is before x; a refusal must leave the wheel's cursor at
// x.
func (q *queuePair) popBefore(x model.Time) error {
	var a event
	got := q.wheel.popBefore(x, &a)
	want := q.heap.len() > 0 && q.heap.top().at < x
	if got != want {
		return fmt.Errorf("popBefore(%v) = %v, reference says %v (wheel len %d)", x, got, want, q.wheel.len())
	}
	if got {
		return q.popped(a, q.heap.pop())
	}
	if q.wheel.cur != int64(x) {
		return fmt.Errorf("refused popBefore(%v) left the cursor at %d", x, q.wheel.cur)
	}
	q.now = x
	return nil
}

func (q *queuePair) popped(a, b event) error {
	if a.at != b.at || a.kind != b.kind || a.seq != b.seq {
		return fmt.Errorf("pop diverged: wheel (%v,%d,%d) heap (%v,%d,%d)", a.at, a.kind, a.seq, b.at, b.kind, b.seq)
	}
	if a.at < q.now {
		return fmt.Errorf("time ran backwards: %v after %v", a.at, q.now)
	}
	q.now = a.at
	return nil
}

// drain pops everything left and requires both queues to empty together.
func (q *queuePair) drain() error {
	for q.heap.len() > 0 {
		if err := q.pop(); err != nil {
			return err
		}
	}
	if q.wheel.len() != 0 {
		return fmt.Errorf("wheel retains %d events after drain", q.wheel.len())
	}
	return nil
}

// FuzzQueueEquivalence feeds a byte stream as a push/pop program to the
// timing wheel and the binary heap side by side and requires identical pop
// sequences. The program respects the engine's only invariant — pushes are
// never earlier than the last popped time or refused bound — and otherwise
// roams freely: same-instant ties across all three kinds, deltas that
// straddle slot, window and block boundaries, horizon-stranded far-future
// timers, interleaved drains that force cascades and overflow transfers,
// and bounded pops whose bound lands on those same boundaries.
func FuzzQueueEquivalence(f *testing.F) {
	// Deltas indexed by a nibble: boundary-heavy, biased toward the wheel's
	// interesting edges. 1<<40 models MPM/RG timers stranded past the
	// horizon; wheelSpan±x exercises the overflow heap and block crossing.
	deltas := [16]int64{
		0, 0, 1, 2, 63, 64, 65, 4095, 4096, 1 << 17, 1 << 22,
		wheelSpan - 1, wheelSpan, wheelSpan + 7, 3 * wheelSpan, 1 << 40,
	}

	f.Add([]byte{0x00, 0x13, 0x27, 0xFF, 0x3B, 0xFF, 0x4C, 0xFF, 0xFF})
	f.Add([]byte{0x1F, 0x2F, 0x3F, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x00, 0x00, 0x00, 0xFF, 0x00, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x0B, 0x1C, 0x2D, 0x0E, 0xFF, 0x0A, 0xFF, 0xFF, 0xFF, 0xFF})
	// Bounds on slot and window edges: refuse at an event's own instant,
	// then pop across the 64-tick window and past a level-2 bucket.
	f.Add([]byte{0x04, 0x15, 0x28, 0xE4, 0x00, 0xE3, 0xE5, 0xE7, 0xE8, 0xFF, 0xFF})
	// A refusal below a level-2 bucket's window, then a bound inside it:
	// the bounded pop must cascade before it pops.
	f.Add([]byte{0x09, 0x19, 0xE8, 0xE9, 0xFF, 0xFF})
	// Block edge: refuse on the last in-block tick and pop it; on the
	// emptied wheel, refuse there again with the next block waiting in
	// overflow, then at the block boundary (pulling that block in), and
	// push a same-instant tie behind the pulled-in event.
	f.Add([]byte{0x0C, 0x1D, 0x2B, 0xEB, 0xE2, 0xE1, 0xE2, 0x00, 0xFF, 0xFF, 0xFF})
	// Overflow events earlier than the bound: a bounded pop on an empty
	// wheel must jump to them; then a refusal on an empty queue.
	f.Add([]byte{0x0E, 0x1F, 0x02, 0xEF, 0xEF, 0xEF, 0xE9, 0x05, 0xFF})

	f.Fuzz(func(t *testing.T, program []byte) {
		var q queuePair
		for _, op := range program {
			var err error
			switch {
			case op >= 0xF0 && q.heap.len() > 0:
				// 0xF0..0xFF pops when possible.
				err = q.pop()
			case op >= 0xE0 && op < 0xF0:
				// 0xE0..0xEF pops only before now + delta.
				err = q.popBefore(q.now.Add(model.Duration(deltas[op&0x0F])))
			default:
				// Anything else pushes with delta = low nibble,
				// kind = high nibble mod 3.
				err = q.push(q.now.Add(model.Duration(deltas[op&0x0F])), int8((op>>4)%numKinds))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := q.drain(); err != nil {
			t.Fatal(err)
		}
	})
}
