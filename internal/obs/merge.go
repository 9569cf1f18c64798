package obs

// CoreCounts is the handful of headline engine counters cheap enough to
// snapshot per sweep unit: total events popped, preemptions, context
// switches, and completed runs. The record store diffs two CoreCounts to
// attribute engine work to one swept system.
type CoreCounts struct {
	Events          int64
	Preemptions     int64
	ContextSwitches int64
	Runs            int64
}

// Core loads the headline counters. Unlike Snapshot it allocates nothing,
// so the sweep can call it before and after every unit.
func (s *SimStats) Core() CoreCounts {
	var c CoreCounts
	for op := range s.events {
		c.Events += s.events[op].Load()
	}
	c.Preemptions = s.preemptions.Load()
	c.ContextSwitches = s.contextSwitches.Load()
	c.Runs = s.runs.Load()
	return c
}

// Merge folds src's counters into s: sums for counts and histograms, max
// for the high-water mark. Sweep workers that keep private per-worker
// SimStats banks (so per-unit deltas are exact, not interleaved with other
// workers) merge them into the shared sweep-wide bank at drain time.
func (s *SimStats) Merge(src *SimStats) {
	for op := range s.events {
		s.events[op].Add(src.events[op].Load())
	}
	s.preemptions.Add(src.preemptions.Load())
	s.contextSwitches.Add(src.contextSwitches.Load())
	s.rgStalls.Add(src.rgStalls.Load())
	s.queueHighWater.Max(src.queueHighWater.Load())
	s.runs.Add(src.runs.Load())
	for p := range s.idle {
		s.idle[p].Add(src.idle[p].Load())
	}
	s.stall.Merge(&src.stall)
	s.lockAcquisitions.Add(src.lockAcquisitions.Load())
	s.lockSuspensions.Add(src.lockSuspensions.Load())
	s.priorityBoosts.Add(src.priorityBoosts.Load())
	s.lockStall.Merge(&src.lockStall)
}

// Merge folds src's buckets, sum, and count into h.
func (h *Histogram) Merge(src *Histogram) {
	for b := range h.counts {
		h.counts[b].Add(src.counts[b].Load())
	}
	h.sum.Add(src.sum.Load())
	h.n.Add(src.n.Load())
}
