package analysis

import (
	"slices"

	"rtsync/internal/model"
	"rtsync/internal/obs"
)

// Analyzer is the reusable dense core behind AnalyzePM, AnalyzeDS and
// AnalyzeDSHolistic, playing the role sim.Engine plays for the simulator:
// Reset precomputes every per-system structure once — the dense SubtaskIndex,
// per-subtask periods/execs/blocking terms/failure caps, the interference
// term arrays (all stored in one shared backing buffer), the exact
// over-utilization flags, and the SA/DS consumer edges — after which the
// Analyze methods run with zero steady-state heap allocations. Experiment
// sweep workers hold one Analyzer each, exactly as they hold one sim.Runner.
//
// Each Analyze method returns a pointer to a Result owned by the Analyzer;
// it stays valid until the next Reset or the next call of the same method.
// The package-level AnalyzePM/AnalyzeDS/AnalyzeDSHolistic wrappers use a
// fresh Analyzer per call, so their Results are never invalidated.
type Analyzer struct {
	// Stats, when non-nil, receives fixed-point iteration histograms and
	// warm-solve counts from every Analyze call — the same attach-a-bank
	// contract as sim.Runner.Stats. Reads and writes are atomic, so one
	// bank may be shared across sweep workers.
	Stats *obs.AnalysisStats

	sys  *model.System
	opts Options
	ix   *model.SubtaskIndex

	// Per-subtask constants, indexed densely. failCap is the per-task EER
	// failure cap (FailureFactor × period); busyCap = 2 × failCap bounds
	// the busy-period and completion fixed points.
	period   []model.Duration
	exec     []model.Duration
	block    []model.Duration
	failCap  []model.Duration
	busyCap  []model.Duration
	overUtil []bool
	// prefixExec[i] is the sum of execution times of subtask i and its
	// chain predecessors: the SA/DS optimistic seed and the holistic
	// best-case completion offset.
	prefixExec []model.Duration

	// Interference terms of subtask i live in termBuf[termOff[i]:
	// termOff[i+1]]: slot 0 is the self term, the rest the interferers in
	// (task, sub) order. Period and Exec are fixed at Reset; Jitter is
	// rewritten per evaluation (zero for SA/PM, IEER-derived for SA/DS and
	// the holistic analysis). termSrc parallels termBuf and names the dense
	// index whose bound supplies the term's jitter (the chain predecessor
	// of the term's subtask), or -1 for first subtasks.
	termOff []int
	termBuf []term
	termSrc []int32

	// Consumer edges for the SA/DS worklist: the subtasks whose IEERT
	// recurrences read i's bound live in consBuf[consOff[i]:consOff[i+1]].
	consOff []int
	consBuf []int32

	// Dense per-processor subtask lists (procBuf[procOff[p]:procOff[p+1]],
	// ascending dense index = (task, sub) order, the order OnProcessor
	// returns) so Reset never pays OnProcessor's per-call slice.
	procOff []int
	procBuf []int32

	// Worklist and iteration scratch. incStack is the BFS stack of
	// AnalyzeDSFrom's dependency-closure computation.
	dirty, nextDirty []bool
	cur, nxt         []model.Duration
	incStack         []int32

	// Pass-to-pass seeds of the iterative analyses: each subtask's
	// converged busy period D (warmD) and completions C(1..n) (warmC, a
	// ragged arena: subtask i's span is warmSpan[i]) from its previous
	// evaluation within the CURRENT analysis, plus per-global-segment
	// lock-wait fixed points (warmW, ragged via gsegOff). Sound seeds
	// because the outer iterates — bounds, lock waits, and hence every
	// jitter input — grow monotonically from the optimistic seed, so a
	// subtask's previous converged values lower-bound its next ones. Each
	// Analyze method zeroes them on entry (resetWarm): a bound from
	// AnalyzeDS would NOT be a sound seed for AnalyzeHolistic, whose
	// jitters are smaller.
	warmD    []model.Duration
	warmC    []model.Duration
	warmSpan []seedSpan
	warmW    []model.Duration

	// termSub parallels termBuf and names the dense index OWNING each
	// term (the interfering subtask itself, where termSrc names its
	// jitter source) — the key the locking analyses use to charge an
	// interferer's own lock-wait as additional jitter.
	termSub []int32

	// Locking-analysis state (AnalyzeMPCP/AnalyzeDPCP), built by
	// initLocking. Empty for systems without critical-section segments;
	// see locking.go for the layout.
	hasSegs    bool
	gcsTotal   []model.Duration
	gsegOff    []int
	lockResOff []int
	lockResBuf []resUser
	lw, lwNext []model.Duration
	lockOff    []int
	lockBuf    []term
	lockSub    []int32
	waitTerms  []term
	evalTerms  []term
	hostProc   []bool

	// Persistent per-method results.
	pm, ds, hol, mpcp, dpcp Result
}

// NewAnalyzer returns an Analyzer ready to analyze s.
func NewAnalyzer(s *model.System, opts Options) (*Analyzer, error) {
	a := &Analyzer{}
	if err := a.Reset(s, opts); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset validates s and precomputes the dense per-system structures,
// reusing every backing array whose capacity suffices. After Reset, any
// Result previously returned by this Analyzer is invalid.
func (a *Analyzer) Reset(s *model.System, opts Options) error {
	if err := s.Validate(); err != nil {
		return err
	}
	a.init(s, opts)
	return nil
}

// init is Reset without validation (IEERT, like its map-based predecessor,
// does not validate).
func (a *Analyzer) init(s *model.System, opts Options) {
	a.sys, a.opts = s, opts
	if a.ix == nil {
		a.ix = model.NewSubtaskIndex(s)
	} else {
		a.ix.Reset(s)
	}
	n := a.ix.Len()

	a.period = resizeDurations(a.period, n)
	a.exec = resizeDurations(a.exec, n)
	a.block = resizeDurations(a.block, n)
	a.failCap = resizeDurations(a.failCap, n)
	a.busyCap = resizeDurations(a.busyCap, n)
	a.prefixExec = resizeDurations(a.prefixExec, n)
	a.cur = resizeDurations(a.cur, n)
	a.nxt = resizeDurations(a.nxt, n)
	a.warmD = resizeDurations(a.warmD, n)
	a.warmSpan = resizeSpans(a.warmSpan, n)
	a.overUtil = resizeBools(a.overUtil, n)
	a.dirty = resizeBools(a.dirty, n)
	a.nextDirty = resizeBools(a.nextDirty, n)
	a.termOff = resizeInts(a.termOff, n+1)
	a.consOff = resizeInts(a.consOff, n+1)
	a.termBuf = a.termBuf[:0]
	a.termSrc = a.termSrc[:0]
	a.termSub = a.termSub[:0]
	a.consBuf = a.consBuf[:0]

	var ceilings []model.Priority
	if len(s.Resources) > 0 {
		ceilings = s.ResourceCeilings()
	}

	// Counting sort of dense indices by processor. After the cursor pass
	// procOff[p] is the END of p's range; the backward shift restores the
	// conventional offsets procBuf[procOff[p]:procOff[p+1]].
	np := len(s.Procs)
	a.procOff = resizeInts(a.procOff, np+1)
	for p := 0; p <= np; p++ {
		a.procOff[p] = 0
	}
	a.procBuf = resizeInt32s(a.procBuf, n)
	for i := 0; i < n; i++ {
		a.procOff[s.Subtask(a.ix.ID(i)).Proc]++
	}
	for p := 1; p < np; p++ {
		a.procOff[p] += a.procOff[p-1]
	}
	for i := n - 1; i >= 0; i-- {
		p := s.Subtask(a.ix.ID(i)).Proc
		a.procOff[p]--
		a.procBuf[a.procOff[p]] = int32(i)
	}
	a.procOff[np] = n

	for i := 0; i < n; i++ {
		id := a.ix.ID(i)
		self := s.Subtask(id)
		a.period[i] = s.Task(id).Period
		a.exec[i] = self.Exec
		a.failCap[i] = opts.failureCap(a.period[i])
		a.busyCap[i] = a.failCap[i].MulSat(2)
		if id.Sub == 0 {
			a.prefixExec[i] = self.Exec
		} else {
			a.prefixExec[i] = a.prefixExec[i-1].AddSat(self.Exec)
		}

		// Self term, then the interference set H(i,j) in (task, sub)
		// order, sharing one backing buffer across all subtasks. The
		// jitter source of a term for subtask o is o's chain predecessor.
		a.termOff[i] = len(a.termBuf)
		a.termBuf = append(a.termBuf, term{Period: a.period[i], Exec: self.Exec})
		a.termSrc = append(a.termSrc, predIndex(i, id))
		a.termSub = append(a.termSub, int32(i))
		nonPreemptive := !s.Procs[self.Proc].Preemptive
		var blocking model.Duration
		util := float64(self.Exec) / float64(a.period[i])
		for _, oj := range a.procBuf[a.procOff[self.Proc]:a.procOff[self.Proc+1]] {
			oi := int(oj)
			if oi == i {
				continue
			}
			other := a.ix.ID(oi)
			o := s.Subtask(other)
			if o.Priority >= self.Priority {
				p := s.Task(other).Period
				a.termBuf = append(a.termBuf, term{Period: p, Exec: o.Exec})
				a.termSrc = append(a.termSrc, predIndex(oi, other))
				a.termSub = append(a.termSub, oj)
				util += float64(o.Exec) / float64(p)
				continue
			}
			// Strictly lower priority: a blocking source if the
			// processor is non-preemptive or its ceiling-raised
			// priority reaches ours.
			if o.Exec > blocking &&
				(nonPreemptive || (ceilings != nil && s.EffectivePriority(other, ceilings) >= self.Priority)) {
				blocking = o.Exec
			}
			// A lower-priority LOCAL critical section blocks only for its
			// own length — the segment-granular refinement of the Locks
			// bound above. Global sections are charged by the locking
			// analyses as interference terms, never as once-per-busy-
			// period blocking.
			for _, g := range o.Segments {
				if !s.Resources[g.Resource].Global() &&
					ceilings[g.Resource] >= self.Priority && g.Length > blocking {
					blocking = g.Length
				}
			}
		}
		a.block[i] = blocking
		// util summed this subtask's terms (self plus interferers, just
		// appended) in order; only a sum within its rounding margin of 1
		// replays them exactly.
		a.overUtil[i] = utilExceedsOne(util, a.termBuf[a.termOff[i]:])
	}
	a.termOff[n] = len(a.termBuf)

	// Consumer edges: subtask i's bound is read (as release jitter) by its
	// successor and by every subtask the successor can interfere with.
	for i := 0; i < n; i++ {
		a.consOff[i] = len(a.consBuf)
		if a.ix.IsLast(i) {
			continue
		}
		succ := a.ix.ID(i)
		succ.Sub++
		a.consBuf = append(a.consBuf, int32(i+1))
		sp := s.Subtask(succ)
		for _, oj := range a.procBuf[a.procOff[sp.Proc]:a.procOff[sp.Proc+1]] {
			if int(oj) != i+1 && sp.Priority >= s.Subtask(a.ix.ID(int(oj))).Priority {
				a.consBuf = append(a.consBuf, oj)
			}
		}
	}
	a.consOff[n] = len(a.consBuf)

	a.initLocking(s)

	for _, r := range []*Result{&a.pm, &a.ds, &a.hol, &a.mpcp, &a.dpcp} {
		r.Index = a.ix
		r.Bounds = resizeBounds(r.Bounds, n)
		r.TaskEER = resizeDurations(r.TaskEER, len(s.Tasks))
	}
	a.pm.Protocol, a.ds.Protocol, a.hol.Protocol = "SA/PM", "SA/DS", "Holistic"
	a.mpcp.Protocol, a.dpcp.Protocol = "MPCP", "DPCP"
}

// solve runs one inner fixed-point solve from the larger of S0 and seed, a
// pass-to-pass seed at or below the least fixed point (0 when there is
// none). Every start in [S0, lfp] converges to the identical least fixed
// point (see fixpointFrom), so a seed never changes a bound — only how fast
// it is reached.
func (a *Analyzer) solve(base model.Duration, terms []term, cap model.Duration, seed model.Duration) model.Duration {
	return a.solveFrom(base, terms, cap, max(startDemand(base, terms), seed), seed > 0)
}

// solveFrom iterates from t, which the caller guarantees lies in
// [S0, lfp], and records the demand-evaluation count; seeded marks a
// solve handed a nonzero seed.
func (a *Analyzer) solveFrom(base model.Duration, terms []term, cap model.Duration, t model.Duration, seeded bool) model.Duration {
	v, iters := fixpointFrom(base, terms, cap, a.opts.MaxFixpointIter, t)
	if a.Stats != nil {
		a.Stats.ObserveFixpoint(int64(iters), seeded)
	}
	return v
}

// seedSpan locates one subtask's completion seeds in warmC: n slots from
// off, the first M of them holding C(1..M).
type seedSpan struct{ off, n int }

// response runs steps 1–4 of the busy-period analysis for subtask i, the
// part every analysis shares: the level busy period D, its instance count
// M = ceil((D+J)/p), and the worst response from the optimistic release,
// max_k C(k) + J − (k−1)·p. terms[0] is the self term and terms[1:] the
// interferers, Exec and Jitter already set; J is the self term's jitter
// and the completion C(k) solves t = B + k·e + Σ interference(t) with e
// the self term's Exec. worst is model.Infinite when a solve fails or M
// exceeds MaxInstances (d too when D diverges); d and m are returned for
// SA/PM's per-subtask record.
//
// Two shortcuts, both exact (DESIGN.md §4k): a single-instance busy
// period has C(1) = D, and C(k) starts at C(k−1) + e, which lies in
// [S0, C(k)], so its S0 pass is skipped. seeded selects the pass-to-pass
// seeds of the iterative analyses (DESIGN.md §4j): D and every C(k) start
// at the larger of that start and the subtask's converged value from its
// previous evaluation, and each converged value is kept for the next.
// SA/PM runs once and keeps no seeds.
func (a *Analyzer) response(i int, terms []term, seeded bool) (worst, d model.Duration, m int64) {
	if a.overUtil[i] {
		return model.Infinite, model.Infinite, 0
	}
	var dSeed model.Duration
	if seeded {
		dSeed = a.warmD[i]
	}
	d = a.solve(a.block[i], terms, a.busyCap[i], dSeed)
	if d.IsInfinite() {
		return model.Infinite, d, 0
	}
	self := terms[0]
	m = model.CeilDiv(d.AddSat(self.Jitter), a.period[i])
	if m > a.opts.MaxInstances {
		return model.Infinite, d, m
	}
	// C(k)'s seed is cs[k-1], 0 for an instance not reached before. A
	// single-instance busy period solves no completion and keeps no span.
	var cs []model.Duration
	if seeded {
		prevD := a.warmD[i]
		a.warmD[i] = d
		if m > 1 {
			cs = a.completionSeeds(i, int(m), prevD)
		}
	}
	c := d // C(1) = D when the busy period holds one instance
	if m > 1 {
		var cSeed model.Duration
		if cs != nil {
			cSeed = cs[0]
		}
		c = a.solve(a.block[i].AddSat(self.Exec), terms[1:], a.busyCap[i], cSeed)
		if c.IsInfinite() {
			return model.Infinite, d, m
		}
		if cs != nil {
			cs[0] = c
		}
	}
	worst = c.AddSat(self.Jitter)
	for k := int64(2); k <= m; k++ {
		start := c.AddSat(self.Exec)
		if cs != nil {
			start = max(start, cs[k-1])
		}
		c = a.solveFrom(a.block[i].AddSat(self.Exec.MulSat(k)), terms[1:], a.busyCap[i], start, true)
		if c.IsInfinite() {
			return model.Infinite, d, m
		}
		if cs != nil {
			cs[k-1] = c
		}
		if rk := c.AddSat(self.Jitter) - a.period[i].MulSat(k-1); rk > worst {
			worst = rk
		}
	}
	return worst, d, m
}

// completionSeeds returns subtask i's completion seeds C(1..m), m ≥ 2: its
// converged completions from its previous evaluation in this analysis, and
// 0 for instances that evaluation did not reach. A subtask without a span
// had only single-instance busy periods so far, whose C(1) was D, so its
// new span starts C(1) at prevD, the previous evaluation's D.
//
// M only grows across passes, often by one instance at a time, so a span
// too short for m doubles (to at least m), moving to the end of warmC
// unless it is last there; the old span lies dead until the next
// resetWarm. A span thus moves O(log M) times per analysis; growing it to
// exactly m would move it on every pass and, on the locking study, hold 7×
// the entries. warmC's backing array is reused across analyses and Resets.
func (a *Analyzer) completionSeeds(i, m int, prevD model.Duration) []model.Duration {
	sp := &a.warmSpan[i]
	if m > sp.n {
		if end := sp.off + sp.n; end != len(a.warmC) {
			off := len(a.warmC)
			a.warmC = append(a.warmC, a.warmC[sp.off:end]...)
			sp.off = off
		}
		// Zero-extend by n−sp.n without the temporary slice that
		// append(s, make(...)...) allocates when built with -race.
		n, old := max(m, 2*sp.n), len(a.warmC)
		a.warmC = slices.Grow(a.warmC, n-sp.n)[:old+n-sp.n]
		clear(a.warmC[old:])
		if sp.n == 0 {
			a.warmC[sp.off] = prevD
		}
		sp.n = n
	}
	return a.warmC[sp.off : sp.off+m]
}

// resetWarm zeroes the pass-to-pass seeds. Called on entry to each
// iterative Analyze method — never between its passes — so seeds only flow
// between passes of one analysis, where monotonicity makes them sound.
func (a *Analyzer) resetWarm() {
	clear(a.warmD)
	clear(a.warmSpan)
	clear(a.warmW)
	a.warmC = a.warmC[:0]
}

// predIndex returns the dense index of id's chain predecessor given id's own
// dense index, or -1 when id is a first subtask (no release jitter source).
func predIndex(i int, id model.SubtaskID) int32 {
	if id.Sub == 0 {
		return -1
	}
	return int32(i - 1)
}

// AnalyzePM runs Algorithm SA/PM (§4.1) over the Reset system: for every
// subtask, bound the φ(i,j)-level busy period (step 1), the number of
// instances in it (step 2), each instance's response time (step 3), take
// the maximum (step 4), and sum along each chain for the task EER bound
// (step 5). By Theorem 1 the same bounds are valid under the RG protocol,
// and by construction under PM/MPM.
func (a *Analyzer) AnalyzePM() *Result {
	res := &a.pm
	res.Iterations = 1
	for i := 0; i < a.ix.Len(); i++ {
		res.Bounds[i] = a.pmSubtask(i)
	}
	s := a.sys
	for t := range s.Tasks {
		off := a.ix.TaskOffset(t)
		eer := model.Duration(0)
		for j := 0; j < a.ix.ChainLen(t); j++ {
			eer = eer.AddSat(res.Bounds[off+j].Response)
		}
		if eer > a.failCap[off] {
			eer = model.Infinite
		}
		res.TaskEER[t] = eer
	}
	return res
}

// pmSubtask computes R(i,j) for one strictly periodic subtask: every
// term's jitter is zero, so the response is measured from the release.
func (a *Analyzer) pmSubtask(i int) SubtaskBound {
	terms := a.termBuf[a.termOff[i]:a.termOff[i+1]]
	for k := range terms {
		terms[k].Jitter = 0
	}
	worst, d, m := a.response(i, terms, false)
	return SubtaskBound{Response: worst, BusyPeriod: d, Instances: m}
}

// AnalyzeDS runs Algorithm SA/DS (Figure 11) over the Reset system: seed
// every subtask's IEER bound with the sum of its prefix execution times,
// then iterate Algorithm IEERT until a fixed point. The bound on the IEER
// time of a task's last subtask is the bound on the task's EER time
// (Theorem 2).
//
// The iteration is monotone non-decreasing from the optimistic seed, so it
// either converges or grows past the failure cap; either way it terminates.
// Tasks whose bound reaches model.Infinite are reported as failures but the
// iteration continues for the remaining tasks, as in the paper's experiment
// (bound ratios are averaged over tasks with finite bounds).
//
// Instead of a map-backed dirty set re-sorted every pass, the worklist is a
// pair of dense bool arrays scanned in ascending index order — the same
// deterministic (task, sub) order the sort produced, which the in-place
// (Gauss-Seidel) updates and the MaxOuterIter cutoff both depend on.
func (a *Analyzer) AnalyzeDS() *Result {
	n := a.ix.Len()
	a.resetWarm()
	r := a.cur[:n]
	copy(r, a.prefixExec)
	for i := range a.dirty {
		a.dirty[i] = true
		a.nextDirty[i] = false
	}
	return a.runDS(&a.ds, r, n)
}

// runDS drives the IEERT worklist to its fixed point: the shared back half
// of AnalyzeDS (everything dirty) and AnalyzeDSFrom (only the delta's
// dependency closure dirty). r holds the seeded bounds, pending the number
// of subtasks initially marked in a.dirty.
func (a *Analyzer) runDS(res *Result, r []model.Duration, pending int) *Result {
	n := a.ix.Len()
	iterations := 0
	for pending > 0 {
		iterations++
		pending = 0
		sawInfinite := false
		for i := 0; i < n; i++ {
			if !a.dirty[i] {
				continue
			}
			nv := a.ieertSubtask(i, r)
			if nv == r[i] {
				continue
			}
			// The subtask itself only needs re-evaluation when one of
			// its inputs changes, which its predecessor's consumer
			// edges cover.
			r[i] = nv
			if nv.IsInfinite() {
				sawInfinite = true
			}
			for _, c := range a.consBuf[a.consOff[i]:a.consOff[i+1]] {
				if !a.nextDirty[c] {
					a.nextDirty[c] = true
					pending++
				}
			}
		}
		a.dirty, a.nextDirty = a.nextDirty, a.dirty
		for i := range a.nextDirty {
			a.nextDirty[i] = false
		}
		if a.opts.StopOnFailure && sawInfinite {
			// The caller only cares whether the system fails; poison
			// everything still in flux — including the chain suffixes
			// of infinite subtasks, which would have gone infinite on
			// later passes — so no unsound intermediate value leaks
			// out, and stop early.
			for i, d := range a.dirty {
				if d {
					r[i] = model.Infinite
				}
			}
			for i := 0; i < n; i++ {
				if r[i].IsInfinite() && !a.ix.IsLast(i) {
					r[i+1] = model.Infinite
				}
			}
			break
		}
		if iterations >= a.opts.MaxOuterIter {
			// Non-convergence within the budget: poison every bound.
			for i := range r {
				r[i] = model.Infinite
			}
			break
		}
	}
	return a.finishIterative(res, r, iterations)
}

// ieertSubtask computes the new IEER bound R'(i,j) for one subtask under
// the current bounds r — one cell of Algorithm IEERT (Figure 10). Under the
// DS protocol an instance of T(u,v) is released when T(u,v-1) completes, so
// its release deviates from strict periodicity by up to R(u,v-1); the
// interference terms therefore charge ceil((t + R(u,v-1)) / p_u) instances
// — the "clumping effect" — and the subtask's own instances count
// M(i,j) = ceil((D + R(i,j-1)) / p) with IEER times
// R(i,j)(m) = C(i,j)(m) + R(i,j-1) − (m−1)·p.
//
// A subtask whose new bound cannot be established (divergence, or past the
// per-task failure cap) gets model.Infinite, which poisons its successors.
func (a *Analyzer) ieertSubtask(i int, r []model.Duration) model.Duration {
	terms, ok := a.ieertTerms(i, r)
	if !ok {
		return model.Infinite
	}
	worst, _, _ := a.response(i, terms, true)
	if worst > a.failCap[i] {
		return model.Infinite
	}
	return worst
}

// ieertTerms sets subtask i's term jitters to the current bounds of the
// terms' chain predecessors, reporting false when one is infinite.
func (a *Analyzer) ieertTerms(i int, r []model.Duration) ([]term, bool) {
	off := a.termOff[i]
	terms := a.termBuf[off:a.termOff[i+1]]
	for k := range terms {
		j := model.Duration(0)
		if src := a.termSrc[off+k]; src >= 0 {
			j = r[src]
		}
		if j.IsInfinite() {
			return nil, false
		}
		terms[k].Jitter = j
	}
	return terms, true
}

// AnalyzeHolistic bounds task EER times under the DS protocol with the
// holistic schedulability analysis of Tindell & Clark over the Reset
// system; see AnalyzeDSHolistic for the relationship to Algorithm SA/DS.
// The iteration is Jacobi — every pass reads the previous pass's bounds —
// so it alternates between the cur and nxt scratch arrays rather than
// updating in place.
func (a *Analyzer) AnalyzeHolistic() *Result {
	n := a.ix.Len()
	a.resetWarm()
	l, next := a.cur[:n], a.nxt[:n]
	copy(l, a.prefixExec)
	iterations := 0
	for {
		iterations++
		same := true
		for i := 0; i < n; i++ {
			next[i] = a.holisticSubtask(i, l)
			if next[i] != l[i] {
				same = false
			}
		}
		l, next = next, l
		if same {
			break
		}
		if iterations >= a.opts.MaxOuterIter {
			for i := range l {
				l[i] = model.Infinite
			}
			break
		}
	}
	return a.finishIterative(&a.hol, l, iterations)
}

// holisticSubtask computes the new bound L'(i,j) = S(i,j−1) + R(i,j) where
// R(i,j) is the jitter-aware worst response time of the subtask from its
// own release and S is the best-case completion offset.
func (a *Analyzer) holisticSubtask(i int, l []model.Duration) model.Duration {
	terms, ok := a.holisticTerms(i, l)
	if !ok {
		return model.Infinite
	}
	worstResp, _, _ := a.response(i, terms, true)
	// New completion-offset bound: the predecessor's worst completion plus
	// this subtask's worst response from release. The response already
	// contains the release jitter relative to the earliest possible
	// release, so anchor at the predecessor's BEST completion.
	lNew := worstResp
	if src := a.termSrc[a.termOff[i]]; src >= 0 {
		lNew = a.prefixExec[src].AddSat(worstResp)
	}
	if lNew > a.failCap[i] {
		return model.Infinite
	}
	return lNew
}

// holisticTerms sets subtask i's term jitters for the holistic analysis:
// the release jitter charged for a term is the WIDTH L(u,v−1) − S(u,v−1)
// of its predecessor's completion window, never larger than the full IEER
// bound Algorithm IEERT charges. It reports false when a predecessor's
// bound is infinite.
func (a *Analyzer) holisticTerms(i int, l []model.Duration) ([]term, bool) {
	off := a.termOff[i]
	terms := a.termBuf[off:a.termOff[i+1]]
	for k := range terms {
		j := model.Duration(0)
		if src := a.termSrc[off+k]; src >= 0 {
			if l[src].IsInfinite() {
				return nil, false
			}
			j = l[src] - a.prefixExec[src]
		}
		terms[k].Jitter = j
	}
	return terms, true
}

// finishIterative copies the converged IEER bounds r into res and derives
// the per-task EER bounds from each chain's last subtask (Theorem 2).
func (a *Analyzer) finishIterative(res *Result, r []model.Duration, iterations int) *Result {
	res.Iterations = iterations
	if a.Stats != nil {
		a.Stats.ObserveOuter(int64(iterations))
	}
	for i, d := range r {
		res.Bounds[i] = SubtaskBound{Response: d}
	}
	for t := range a.sys.Tasks {
		res.TaskEER[t] = r[a.ix.TaskOffset(t)+a.ix.ChainLen(t)-1]
	}
	return res
}

// resizeDurations returns s with length n, reusing its backing array when
// the capacity suffices. Contents are unspecified.
func resizeDurations(s []model.Duration, n int) []model.Duration {
	if cap(s) < n {
		return make([]model.Duration, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeBounds(s []SubtaskBound, n int) []SubtaskBound {
	if cap(s) < n {
		return make([]SubtaskBound, n)
	}
	return s[:n]
}

func resizeSpans(s []seedSpan, n int) []seedSpan {
	if cap(s) < n {
		return make([]seedSpan, n)
	}
	return s[:n]
}
