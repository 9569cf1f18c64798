package sim

import (
	"testing"

	"rtsync/internal/model"
)

// FuzzQueueEquivalence feeds a byte stream as a push/pop program to the
// timing wheel and the binary heap side by side and requires identical pop
// sequences. The program respects the engine's only invariant — pushes are
// never earlier than the last popped time — and otherwise roams freely:
// same-instant ties across all three kinds, deltas that straddle slot,
// window and block boundaries, horizon-stranded far-future timers, and
// interleaved drains that force cascades and overflow transfers.
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

	f.Fuzz(func(t *testing.T, program []byte) {
		var wheel timingWheel
		var heap eventHeap

		var seq int64
		var now model.Time
		pop := func() {
			var a event
			wheel.pop(&a)
			b := heap.pop()
			if a.at != b.at || a.kind != b.kind || a.seq != b.seq {
				t.Fatalf("pop diverged: wheel (%v,%d,%d) heap (%v,%d,%d)",
					a.at, a.kind, a.seq, b.at, b.kind, b.seq)
			}
			if a.at < now {
				t.Fatalf("time ran backwards: %v after %v", a.at, now)
			}
			now = a.at
		}

		for _, op := range program {
			// 0xF0..0xFF pops when possible; anything else pushes with
			// delta = low nibble, kind = high nibble mod 3.
			if op >= 0xF0 && heap.len() > 0 {
				pop()
				continue
			}
			seq++
			ev := event{
				at:   now.Add(model.Duration(deltas[op&0x0F])),
				kind: int8((op >> 4) % numKinds),
				seq:  seq,
			}
			wheel.push(&ev)
			heap.push(ev)
			if wheel.len() != heap.len() {
				t.Fatalf("len diverged after push: wheel %d heap %d", wheel.len(), heap.len())
			}
		}
		for heap.len() > 0 {
			pop()
		}
		if wheel.len() != 0 {
			t.Fatalf("wheel retains %d events after drain", wheel.len())
		}
	})
}
