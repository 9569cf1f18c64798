package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
	c.Max(3)
	if got := c.Load(); got != 5 {
		t.Fatalf("Max(3) lowered the counter to %d", got)
	}
	c.Max(9)
	if got := c.Load(); got != 9 {
		t.Fatalf("Max(9) = %d, want 9", got)
	}
	c.Store(0)
	if got := c.Load(); got != 0 {
		t.Fatalf("Store(0) = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-7) // clamps to 0
	h.Observe(1)
	h.Observe(5)
	h.Observe(1 << 40) // overflow lands in the last bucket
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 0+0+1+5+1<<40 {
		t.Fatalf("Sum = %d", s.Sum)
	}
	want := []HistogramBucket{
		{UpTo: 0, Count: 2},
		{UpTo: 1, Count: 1},
		{UpTo: 7, Count: 1},
		{UpTo: 1<<(HistBuckets-1) - 1, Count: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

func TestSimStatsSnapshot(t *testing.T) {
	st := NewSimStats()
	for op := 0; op < NumEventOps; op++ {
		for k := 0; k <= op; k++ {
			st.CountEvent(op)
		}
	}
	st.CountEvent(NumEventOps) // out of range: dropped
	st.CountEvent(-1)          // out of range: dropped
	st.NotePreemption()
	st.NoteContextSwitch()
	st.NoteContextSwitch()
	st.NoteRGStall(3)
	st.ObserveQueueDepth(10)
	st.ObserveQueueDepth(4)
	st.AddIdle(0, 100)
	st.AddIdle(2, 50)
	st.AddIdle(MaxProcs+5, 7) // clamps into the last slot
	st.AddIdle(-1, 99)        // dropped
	st.NoteRun()
	st.NoteLockAcquisition()
	st.NoteLockAcquisition()
	st.NotePriorityBoost()
	st.NoteLockSuspension(5)

	s := st.Snapshot()
	if s.EventsTotal != 1+2+3+4+5 {
		t.Errorf("EventsTotal = %d, want 15", s.EventsTotal)
	}
	if len(s.EventsByOp) != NumEventOps || s.EventsByOp["completion"] != 1 ||
		s.EventsByOp["first_release"] != 4 || s.EventsByOp["segment"] != 5 {
		t.Errorf("EventsByOp = %v", s.EventsByOp)
	}
	if s.LockAcquisitions != 2 || s.PriorityBoosts != 1 {
		t.Errorf("lock counters: %+v", s)
	}
	if s.LockSuspensions != 1 || s.LockStallTicks == nil || s.LockStallTicks.Sum != 5 {
		t.Errorf("suspensions: %d, %+v", s.LockSuspensions, s.LockStallTicks)
	}
	if s.Preemptions != 1 || s.ContextSwitches != 2 || s.Runs != 1 {
		t.Errorf("counters: %+v", s)
	}
	if s.EventQueueHighWater != 10 {
		t.Errorf("high water = %d, want 10", s.EventQueueHighWater)
	}
	if s.ReleaseGuardStalls != 1 || s.StallTicks == nil || s.StallTicks.Sum != 3 {
		t.Errorf("stalls: %d, %+v", s.ReleaseGuardStalls, s.StallTicks)
	}
	if len(s.IdleTicksPerProc) != MaxProcs {
		t.Fatalf("idle bank trimmed to %d slots, want %d (clamped slot used)", len(s.IdleTicksPerProc), MaxProcs)
	}
	if s.IdleTicksPerProc[0] != 100 || s.IdleTicksPerProc[2] != 50 || s.IdleTicksPerProc[MaxProcs-1] != 7 {
		t.Errorf("idle ticks = %v", s.IdleTicksPerProc)
	}
}

func TestSweepProgressSnapshot(t *testing.T) {
	sp := NewSweepProgress()
	cells := []string{"(3,50)", "(5,70)"}
	run := sp.StartSweep(cells, 4, 2)

	run.Shard(0).UnitDone(0, 100*time.Millisecond)
	run.Shard(0).UnitDone(0, 100*time.Millisecond)
	run.Shard(0).UnitDone(0, 100*time.Millisecond)
	run.Shard(1).UnitDone(1, 200*time.Millisecond)
	run.Shard(1).UnitDone(1, 200*time.Millisecond)
	run.Shard(0).NoteSchedulable(true)
	run.Shard(0).NoteSchedulable(true)
	run.Shard(1).NoteSchedulable(false)
	sp.SetCurrent(&cells[1])

	s := sp.Snapshot()
	if s.UnitsDone != 5 || s.UnitsTotal != 8 {
		t.Errorf("units %d/%d, want 5/8", s.UnitsDone, s.UnitsTotal)
	}
	if s.Schedulable != 2 || s.Unschedulable != 1 {
		t.Errorf("schedulable %d/%d, want 2/1", s.Schedulable, s.Unschedulable)
	}
	if s.CurrentCell != "(5,70)" {
		t.Errorf("current cell %q", s.CurrentCell)
	}
	if len(s.Cells) != 2 {
		t.Fatalf("cells = %+v", s.Cells)
	}
	if s.Cells[0].Cell != "(3,50)" || s.Cells[0].Units != 3 {
		t.Errorf("cell 0 = %+v", s.Cells[0])
	}
	// 3 units over 0.3s of wall time: 10 systems/s.
	if got := s.Cells[0].SystemsPerSec; got < 9.99 || got > 10.01 {
		t.Errorf("cell 0 rate %.3f, want 10", got)
	}
	if s.ETASec <= 0 {
		t.Errorf("ETA %.3f, want > 0 with 3 units left", s.ETASec)
	}
	if !strings.Contains(s.Line(), "5/8 units") || !strings.Contains(s.Line(), "cell (5,70)") {
		t.Errorf("status line %q", s.Line())
	}

	// A second sweep announcing the same labels merges per-cell stats and
	// extends the total — the -figure all case.
	run2 := sp.StartSweep(cells, 4, 1)
	run2.Shard(0).UnitDone(0, 100*time.Millisecond)
	s = sp.Snapshot()
	if s.UnitsDone != 6 || s.UnitsTotal != 16 {
		t.Errorf("after second sweep: units %d/%d, want 6/16", s.UnitsDone, s.UnitsTotal)
	}
	if len(s.Cells) != 2 || s.Cells[0].Units != 4 {
		t.Errorf("merged cells = %+v", s.Cells)
	}
}

func TestSweepReporter(t *testing.T) {
	sp := NewSweepProgress()
	run := sp.StartSweep([]string{"(2,50)"}, 2, 1)
	var buf bytes.Buffer
	stop := sp.StartReporter(&buf, time.Millisecond)
	run.Shard(0).UnitDone(0, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "[sweep] 1/2 units") {
		t.Errorf("reporter output %q lacks the status line", out)
	}
	if n := strings.Count(out, "\n"); n < 2 {
		t.Errorf("expected periodic lines plus a final line, got %d", n)
	}
}
