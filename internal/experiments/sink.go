package experiments

import (
	"sync"
	"time"

	"rtsync/internal/obs"
	"rtsync/internal/record"
	"rtsync/internal/workload"
)

// beginUnit refills the worker's retained record for unit g: study tag,
// grid cell, full config (seed already installed by sweep), and the unit's
// global commit order. With timings or sim counts requested it also arms
// the phase clock and snapshots the private counter bank.
func (w *worker) beginUnit(study string, cfg workload.Config, g int64) {
	w.rec.Reset(study, cfg)
	w.rec.Unit = g
	w.curUnit = g
	if w.timings {
		w.timing = record.Timing{}
		w.t0 = time.Now()
	}
	if w.recStats != nil {
		w.base = w.recStats.Core()
	}
	if w.spans != nil {
		w.sim.SpanUnit = g
		w.spanT0 = w.spans.Clock()
	}
}

// lap closes the pipeline phase that ran since the last lap (or beginUnit):
// it charges the elapsed wall time to the record's per-phase accumulator
// (Params.RecordTimings) and records a phase span (Params.Trace). Free when
// both are off. Studies call it after generation, after the analyses, and
// after the simulations.
func (w *worker) lap(ph phase) {
	if w.timings {
		now := time.Now()
		dst := &w.timing.GenNS
		switch ph {
		case phaseAnalyze:
			dst = &w.timing.AnaNS
		case phaseSimulate:
			dst = &w.timing.SimNS
		}
		*dst += now.Sub(w.t0).Nanoseconds()
		w.t0 = now
	}
	if w.spans != nil {
		now := w.spans.Clock()
		w.spans.Record(spanPhaseOf[ph], w.spanT0, now, w.curCell, w.curUnit)
		w.spanT0 = now
	}
}

// deposit hands the worker's current unit to the commit window: its sealed
// record when err is nil, err otherwise. With tracing on it records the
// unit's turnstile-wait span (until it held the window's lock with room in
// the window) and its commit span (the deposit plus any drain it led).
func (w *worker) deposit(win *commitWindow, err error) {
	if err == nil {
		w.seal()
	}
	if w.spans == nil {
		win.deposit(w.curUnit, &w.rec, err, nil)
		return
	}
	t0 := w.spans.Clock()
	placed := win.deposit(w.curUnit, &w.rec, err, w.spans)
	w.spans.Record(obs.SpanTurnstileWait, t0, placed, w.curCell, w.curUnit)
	w.spans.Record(obs.SpanCommit, placed, w.spans.Clock(), w.curCell, w.curUnit)
}

// seal attaches the record's optional sections: the phase timings and the
// unit's engine-counter delta.
func (w *worker) seal() {
	if w.timings {
		w.rec.Timing = &w.timing
	}
	if w.recStats != nil {
		c := w.recStats.Core()
		w.counts = record.SimCounts{
			Events:   c.Events - w.base.Events,
			Preempts: c.Preemptions - w.base.Preemptions,
			Switches: c.ContextSwitches - w.base.ContextSwitches,
			Runs:     c.Runs - w.base.Runs,
		}
		w.rec.Sim = &w.counts
	}
}

// commitWindow commits a parallel sweep's units in global unit order
// through a bounded reorder buffer. A worker deposits each finished unit
// and moves on. The unit at the frontier (the oldest not yet committed) is
// folded through View.Apply and RecordSink.Write straight from the
// depositor's record; a later unit is deep-copied into slot g mod
// len(slots) and waits there. Whoever deposits the frontier unit then
// drains every consecutive filled slot behind it. Apply and Write run under
// the window mutex, one at a time and in unit order, so every figure and
// store is byte-identical at any Parallelism; the mutex hand-off also
// publishes each commit's writes to the next. A depositor blocks only when
// its unit is a whole window ahead of the frontier.
type commitWindow struct {
	mu    sync.Mutex
	room  sync.Cond // broadcast whenever the frontier advances
	view  View
	sink  RecordSink
	slots []commitSlot
	next  int64 // the frontier
	err   error // the first error in unit order
	// waiting counts depositors blocked on a full window.
	waiting int
}

// commitSlot holds one early unit until the frontier reaches it. Its record
// keeps its backing arrays across uses, so a warm window copies without
// allocating.
type commitSlot struct {
	full   bool
	err    error
	rec    record.CellRecord
	timing record.Timing
	sim    record.SimCounts
}

// slotsPerWorker sizes the commit window. Traced at 2 workers over the
// locking study's heavy-tailed analyses (1,600 units), 128 slots per worker
// never filled, where 32 per worker still blocked single deposits for up
// to 56-73 ms.
const slotsPerWorker = 128

// newCommitWindow returns a window of the given number of slots committing
// into v and, when non-nil, sink.
func newCommitWindow(slots int, v View, sink RecordSink) *commitWindow {
	c := &commitWindow{view: v, sink: sink, slots: make([]commitSlot, slots)}
	c.room.L = &c.mu
	return c
}

// deposit hands unit g's outcome to the window: rec when err is nil, err
// otherwise. rec is read only during the call. Every unit of the sweep
// must be deposited exactly once. When spans is non-nil, deposit returns
// the span clock at the moment the unit had room in the window.
func (c *commitWindow) deposit(g int64, rec *record.CellRecord, err error, spans *obs.SpanArena) (placed int64) {
	n := int64(len(c.slots))
	c.mu.Lock()
	if g-c.next >= n {
		c.waiting++
		for g-c.next >= n {
			c.room.Wait()
		}
		c.waiting--
	}
	if spans != nil {
		placed = spans.Clock()
	}
	if g != c.next {
		c.slots[g%n].fill(rec, err)
		c.mu.Unlock()
		return placed
	}
	c.commit(rec, err)
	for s := &c.slots[c.next%n]; s.full; s = &c.slots[c.next%n] {
		s.full = false
		c.commit(&s.rec, s.err)
	}
	if c.waiting > 0 {
		c.room.Broadcast()
	}
	c.mu.Unlock()
	return placed
}

// commit folds the frontier unit into the view and the sink, keeps the
// first error, and advances the frontier. The caller holds c.mu.
func (c *commitWindow) commit(rec *record.CellRecord, err error) {
	if err == nil {
		err = c.view.Apply(rec)
		if err == nil && c.sink != nil {
			err = c.sink.Write(rec)
		}
	}
	if err != nil && c.err == nil {
		c.err = err
	}
	c.next++
}

// fill parks one unit's outcome in the slot, deep-copying rec into the
// slot's retained storage.
func (s *commitSlot) fill(rec *record.CellRecord, err error) {
	s.full, s.err = true, err
	if err != nil {
		return
	}
	verdicts, observations, tallies := s.rec.Verdicts, s.rec.Obs, s.rec.Tallies
	s.rec = *rec
	s.rec.Verdicts = append(verdicts[:0], rec.Verdicts...)
	s.rec.Obs = append(observations[:0], rec.Obs...)
	s.rec.Tallies = append(tallies[:0], rec.Tallies...)
	if rec.Timing != nil {
		s.timing = *rec.Timing
		s.rec.Timing = &s.timing
	}
	if rec.Sim != nil {
		s.sim = *rec.Sim
		s.rec.Sim = &s.sim
	}
}

// seqEmitter drives the record path for the sequential studies (tightness,
// sensitivity), which run outside the worker-pool sweep: one retained
// record, monotonically increasing unit numbers, Apply-then-sink on every
// emit. Phase timings and sim counts are sweep-only.
type seqEmitter struct {
	p    *Params
	v    View
	rec  record.CellRecord
	unit int64
}

// begin refills the retained record for the next sequential unit.
func (e *seqEmitter) begin(study string, cfg workload.Config) *record.CellRecord {
	e.rec.Reset(study, cfg)
	e.rec.Unit = e.unit
	e.unit++
	return &e.rec
}

// commit folds the record into the view and streams it to the sink.
func (e *seqEmitter) commit() error {
	if err := e.v.Apply(&e.rec); err != nil {
		return err
	}
	if e.p.Records != nil {
		return e.p.Records.Write(&e.rec)
	}
	return nil
}
