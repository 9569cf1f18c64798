package sim

import (
	"reflect"
	"testing"

	"rtsync/internal/model"
)

// overflowProgram drives a wheel and the reference heap through the same
// push/pop schedule and fails on the first divergence in (at, kind, seq).
type overflowProgram struct {
	t     *testing.T
	wheel timingWheel
	heap  eventHeap
	seq   int64
	now   model.Time
}

func (p *overflowProgram) push(at model.Time, kind int8) {
	p.seq++
	ev := event{at: at, kind: kind, seq: p.seq}
	p.wheel.push(&ev)
	p.heap.push(ev)
}

func (p *overflowProgram) popAll() {
	for p.heap.len() > 0 {
		var got event
		p.wheel.pop(&got)
		want := p.heap.pop()
		if got.at != want.at || got.kind != want.kind || got.seq != want.seq {
			p.t.Fatalf("pop diverged: wheel (%v,%d,%d) heap (%v,%d,%d)",
				got.at, got.kind, got.seq, want.at, want.kind, want.seq)
		}
		if got.at < p.now {
			p.t.Fatalf("time ran backwards: %v after %v", got.at, p.now)
		}
		p.now = got.at
	}
	if p.wheel.len() != 0 {
		p.t.Fatalf("wheel retains %d events after heap drained", p.wheel.len())
	}
}

// TestWheelOverflowBlockBoundary pins the overflow heap's hand-off: events
// pushed past the cursor's ~16.8M-tick block land in overflow, and popping
// across the boundary refills the wheel in exact (at, kind, seq) order —
// including same-instant kind ties straddling the boundary itself.
func TestWheelOverflowBlockBoundary(t *testing.T) {
	p := &overflowProgram{t: t}
	// In-block events around the boundary, then far events at one, two, and
	// three blocks out, with same-instant kind ties on both sides.
	for _, d := range []int64{0, 1, 63, wheelSpan - 2, wheelSpan - 1} {
		p.push(model.Time(d), 0)
		p.push(model.Time(d), 2)
	}
	for _, d := range []int64{wheelSpan, wheelSpan + 1, 2*wheelSpan - 1, 2 * wheelSpan, 3*wheelSpan + 7} {
		p.push(model.Time(d), 1)
		p.push(model.Time(d), 0)
	}
	if p.wheel.overflow.len() == 0 {
		t.Fatal("no event landed in overflow: block boundary not exercised")
	}
	p.popAll()
}

// TestWheelOverflowCascadeBack checks the second half of the hand-off: an
// overflow refill deposits events into coarse wheel levels, and the cursor
// must cascade them back down to level 0 before draining. The far block's
// events are spread across slot distances that force multi-level descent.
func TestWheelOverflowCascadeBack(t *testing.T) {
	p := &overflowProgram{t: t}
	p.push(1, 0) // keeps the wheel non-empty so the first pops stay in-block
	base := int64(5 * wheelSpan)
	// Offsets inside the far block chosen to land on every wheel level
	// after the refill jump: same-slot, next-slot, window and block edges.
	for _, off := range []int64{0, 1, 2, 63, 64, 4095, 4096, 1 << 17, 1 << 22, wheelSpan - 1} {
		p.push(model.Time(base+off), int8(off%int64(numKinds)))
	}
	if p.wheel.overflow.len() == 0 {
		t.Fatal("no event landed in overflow")
	}
	p.popAll()
	if p.wheel.cascades == 0 {
		t.Fatal("no cascades: refill deposited everything at level 0, test shape lost its bite")
	}
}

// TestWheelOverflowEngineReset runs a system whose period exceeds the
// wheel's block span — so every timer and release crosses the overflow
// heap — twice on one recycled engine. Both runs must complete work and
// produce identical metrics, proving Reset clears overflow state and the
// arena free list across runs. The golden fixtures' overflow-rg and
// overflow-ds cases pin the same system's schedule, captured while the
// engine could still replay it on the reference heap queue.
func TestWheelOverflowEngineReset(t *testing.T) {
	if int64(40_000_000) <= wheelSpan {
		t.Fatalf("test premise broken: period 40M <= wheelSpan %d", wheelSpan)
	}
	b := model.NewBuilder()
	pr := b.AddProcessor("P")
	q := b.AddProcessor("Q")
	b.AddTask("A", 40_000_000, 0).Subtask(pr, 1_000_000, 2).Subtask(q, 2_000_000, 1).Done()
	b.AddTask("B", 60_000_000, 0).Subtask(q, 3_000_000, 2).Subtask(pr, 1_500_000, 1).Done()
	sys := b.MustBuild()

	var r Runner
	cfg := Config{Protocol: NewRG(), Horizon: 200_000_000}
	var first Metrics
	for run := 0; run < 2; run++ {
		out, err := r.Run(sys, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if out.Metrics.Events == 0 || out.Metrics.Tasks[0].Completed == 0 {
			t.Fatalf("run %d: nothing happened (events=%d)", run, out.Metrics.Events)
		}
		if run == 0 {
			first.CopyFrom(out.Metrics)
			continue
		}
		var second Metrics
		second.CopyFrom(out.Metrics)
		if !reflect.DeepEqual(&first, &second) {
			t.Fatalf("metrics differ across engine reuse\nfirst:  %+v\nsecond: %+v", &first, &second)
		}
	}
}
