package analysis

import (
	"fmt"

	"rtsync/internal/model"
)

// This file bounds end-to-end response times for systems whose subtasks
// contend for GLOBAL resources through critical-section segments
// (model.Subtask.Segments), arbitrated by the Multiprocessor
// Priority-Ceiling Protocol (sections execute boosted on the requester's
// processor) or the Distributed Priority-Ceiling Protocol (sections execute
// boosted on the resource's synchronization processor). Both analyses are
// DS-style jitter-aware busy-period iterations — the exact machinery of
// Algorithm IEERT — extended with three locking charges:
//
//  1. Per-request remote blocking. A request for resource ρ can wait behind
//     one in-progress lower-priority section (the longest single section of
//     any lower-priority user) plus the sections of higher-or-equal-priority
//     users, each re-issued as often as its owner's jittered period allows
//     while the request waits. Sections of OTHER resources can stretch the
//     wait too: a boosted section preempts any lower-base-priority section
//     sharing its host processor — including the current holder of ρ, and
//     (post-grant) the requester's own section — so every foreign section
//     hosted where ρ's sections execute joins the recurrence:
//
//	W = len(ρ-section) + max lower ρ-section
//	  + Σ_{hp users u}    ceil((W + J_u)/p_u)·ρ-sections_u
//	  + Σ_{hosted x}      ceil((W + J_x)/p_x)·foreign-sections_x.
//
//     ρ's sections execute on its users' home processors under MPCP and on
//     ρ's synchronization processor under DPCP; "hosted" collects the other
//     global sections bound there. W runs from the request to the END of the
//     requester's own section (its length is the recurrence base), so the
//     job's total lock wait is the sum over its requests of W minus its own
//     section length (already in its execution demand).
//
//  2. Suspension-oblivious demand inflation. The waiting time suspends the
//     job but the analysis charges it like execution in the job's own
//     completion recurrence (exec + wait per instance) — the standard
//     suspension-oblivious treatment, sound because suspension can only be
//     replaced by more waiting, never overlap with it.
//
//  3. Boosted-section interference. Sections run above every base priority,
//     so they preempt even the highest-priority subtask on their processor:
//     under MPCP every LOWER-priority procmate's global sections become
//     interference terms (higher-priority procmates already charge their
//     whole execution); under DPCP every remote section bound to this
//     processor as its synchronization host does, regardless of priority.
//
// An interferer's own lock wait spreads its supply across a wider window;
// the analyses charge it as additional release jitter on the interferer's
// terms, again the standard suspension-oblivious device.
//
// The iteration is Jacobi over the pair (bounds, lock waits), mirroring
// AnalyzeHolistic: both sequences are monotone non-decreasing from the
// optimistic seed (prefix execution sums, zero waits), so the iteration
// converges or escapes through the per-task failure cap to model.Infinite.

// lockProto selects whose blocking terms analyzeLocking charges.
type lockProto int

const (
	mpcpProto lockProto = iota
	dpcpProto
)

// resUser aggregates one subtask's critical sections on one global
// resource: the total held time per job and the longest single section.
type resUser struct {
	sub        int32
	prio       model.Priority
	total, max model.Duration
}

// initLocking builds the per-resource user lists and per-subtask global
// critical-section totals the locking analyses read. Everything stays empty
// (and the analyses degenerate to plain jitter-aware iteration) when the
// system declares no segments.
func (a *Analyzer) initLocking(s *model.System) {
	a.hasSegs = s.HasSegments()
	n := a.ix.Len()
	a.gcsTotal = resizeDurations(a.gcsTotal, n)
	a.lw = resizeDurations(a.lw, n)
	a.lwNext = resizeDurations(a.lwNext, n)
	for i := range a.gcsTotal {
		a.gcsTotal[i] = 0
	}
	// Ragged offsets of each subtask's GLOBAL segments in warmW — the
	// pass-to-pass seeds of lockWait's per-request fixed points. Segment
	// counts are fixed at Reset, so the layout never moves between passes.
	a.gsegOff = resizeInts(a.gsegOff, n+1)
	gsegs := 0
	for i := 0; i < n; i++ {
		a.gsegOff[i] = gsegs
		if a.hasSegs {
			for _, g := range s.Subtask(a.ix.ID(i)).Segments {
				if s.Resources[g.Resource].Global() {
					gsegs++
				}
			}
		}
	}
	a.gsegOff[n] = gsegs
	a.warmW = resizeDurations(a.warmW, gsegs)
	a.hostProc = resizeBools(a.hostProc, len(s.Procs))
	a.lockResOff = resizeInts(a.lockResOff, len(s.Resources)+1)
	a.lockResBuf = a.lockResBuf[:0]
	for r := range a.lockResOff {
		a.lockResOff[r] = 0
	}
	if !a.hasSegs {
		return
	}
	for r := range s.Resources {
		a.lockResOff[r] = len(a.lockResBuf)
		if !s.Resources[r].Global() {
			continue
		}
		for i := 0; i < n; i++ {
			st := s.Subtask(a.ix.ID(i))
			var tot, mx model.Duration
			for _, g := range st.Segments {
				if g.Resource != r {
					continue
				}
				tot = tot.AddSat(g.Length)
				if g.Length > mx {
					mx = g.Length
				}
			}
			if tot > 0 {
				a.lockResBuf = append(a.lockResBuf, resUser{sub: int32(i), prio: st.Priority, total: tot, max: mx})
			}
		}
	}
	a.lockResOff[len(s.Resources)] = len(a.lockResBuf)
	for i := 0; i < n; i++ {
		for _, g := range s.Subtask(a.ix.ID(i)).Segments {
			if s.Resources[g.Resource].Global() {
				a.gcsTotal[i] = a.gcsTotal[i].AddSat(g.Length)
			}
		}
	}
}

// buildLockTerms fills lockBuf with each subtask's boosted-section
// interference terms under the given protocol (charge 3 above). Period and
// Exec are fixed here; Jitter is rewritten per evaluation like termBuf's.
func (a *Analyzer) buildLockTerms(proto lockProto) {
	n := a.ix.Len()
	a.lockOff = resizeInts(a.lockOff, n+1)
	a.lockBuf = a.lockBuf[:0]
	a.lockSub = a.lockSub[:0]
	s := a.sys
	for i := 0; i < n; i++ {
		a.lockOff[i] = len(a.lockBuf)
		if !a.hasSegs {
			continue
		}
		self := s.Subtask(a.ix.ID(i))
		if proto == mpcpProto {
			for _, oj := range a.procBuf[a.procOff[self.Proc]:a.procOff[self.Proc+1]] {
				oi := int(oj)
				if oi == i {
					continue
				}
				if s.Subtask(a.ix.ID(oi)).Priority < self.Priority && a.gcsTotal[oi] > 0 {
					a.lockBuf = append(a.lockBuf, term{Period: a.period[oi], Exec: a.gcsTotal[oi]})
					a.lockSub = append(a.lockSub, oj)
				}
			}
			continue
		}
		for oi := 0; oi < n; oi++ {
			if oi == i {
				continue
			}
			var tot model.Duration
			for _, g := range s.Subtask(a.ix.ID(oi)).Segments {
				r := &s.Resources[g.Resource]
				if r.Global() && r.SyncProc == self.Proc {
					tot = tot.AddSat(g.Length)
				}
			}
			if tot > 0 {
				a.lockBuf = append(a.lockBuf, term{Period: a.period[oi], Exec: tot})
				a.lockSub = append(a.lockSub, int32(oi))
			}
		}
	}
	a.lockOff[n] = len(a.lockBuf)
}

// relJitter returns the release jitter charged for subtask u under bounds
// l: its chain predecessor's bound, the same charge Algorithm IEERT makes
// (zero for first subtasks — chains are dense, so the predecessor is u-1).
func (a *Analyzer) relJitter(u int, l []model.Duration) model.Duration {
	if a.ix.ID(u).Sub == 0 {
		return 0
	}
	return l[u-1]
}

// lockWait bounds subtask i's total per-job remote blocking (charge 1): the
// sum over its global requests of the per-request wait fixed point, minus
// its own section lengths (those are execution, already in exec[i]).
func (a *Analyzer) lockWait(i int, proto lockProto, l, lw []model.Duration) model.Duration {
	if !a.hasSegs {
		return 0
	}
	s := a.sys
	st := s.Subtask(a.ix.ID(i))
	var total model.Duration
	gseg := a.gsegOff[i] // warmW slot of the next global segment
	for _, g := range st.Segments {
		if !s.Resources[g.Resource].Global() {
			continue
		}
		// Host processors of this resource's sections: whatever executes
		// boosted there can delay the holder chain ahead of the request
		// (and the requester's own section once granted).
		users := a.lockResBuf[a.lockResOff[g.Resource]:a.lockResOff[g.Resource+1]]
		for p := range a.hostProc {
			a.hostProc[p] = false
		}
		if proto == dpcpProto {
			a.hostProc[s.Resources[g.Resource].SyncProc] = true
		} else {
			for _, u := range users {
				a.hostProc[s.Subtask(a.ix.ID(int(u.sub))).Proc] = true
			}
		}
		a.waitTerms = a.waitTerms[:0]
		var lower model.Duration
		for _, u := range users {
			ui := int(u.sub)
			if ui == i {
				continue
			}
			if u.prio < st.Priority {
				if u.max > lower {
					lower = u.max
				}
				continue
			}
			j := a.relJitter(ui, l).AddSat(lw[ui])
			if j.IsInfinite() {
				return model.Infinite
			}
			a.waitTerms = append(a.waitTerms, term{Period: a.period[ui], Exec: u.total, Jitter: j})
		}
		// Foreign sections hosted on ρ's host processors (lower-priority
		// ρ-sections never re-enter the grant queue ahead of the request,
		// but any foreign section outruns a lower-base holder).
		for x := 0; x < a.ix.Len(); x++ {
			if x == i {
				continue
			}
			xs := s.Subtask(a.ix.ID(x))
			var hosted model.Duration
			for _, h := range xs.Segments {
				if h.Resource == g.Resource || !s.Resources[h.Resource].Global() {
					continue
				}
				hp := xs.Proc
				if proto == dpcpProto {
					hp = s.Resources[h.Resource].SyncProc
				}
				if a.hostProc[hp] {
					hosted = hosted.AddSat(h.Length)
				}
			}
			if hosted > 0 {
				j := a.relJitter(x, l).AddSat(lw[x])
				if j.IsInfinite() {
					return model.Infinite
				}
				a.waitTerms = append(a.waitTerms, term{Period: a.period[x], Exec: hosted, Jitter: j})
			}
		}
		// The wait recurrence's jitters (bounds + lock waits) only grow
		// across passes, so this request's previous converged wait seeds
		// the next solve.
		var wStart model.Duration
		if a.opts.WarmStart {
			wStart = a.warmW[gseg]
		}
		w := a.solve(g.Length.AddSat(lower), a.waitTerms, a.busyCap[i], wStart)
		if w.IsInfinite() {
			return model.Infinite
		}
		if a.opts.WarmStart {
			a.warmW[gseg] = w
		}
		gseg++
		total = total.AddSat(w - g.Length)
	}
	return total
}

// lockSubtask computes the new bound for one subtask under the current
// bounds l and lock waits lw: Algorithm IEERT's cell with the inflated
// self-demand (charge 2) and the protocol's boosted-section terms
// (charge 3) appended to the interference set.
func (a *Analyzer) lockSubtask(i int, l, lw []model.Duration, wait model.Duration) model.Duration {
	terms, ok := a.lockTerms(i, l, lw, wait)
	if !ok {
		return model.Infinite
	}
	worst, _, _ := a.response(i, terms, a.opts.WarmStart)
	if worst > a.failCap[i] {
		return model.Infinite
	}
	return worst
}

// lockTerms assembles subtask i's locking-analysis terms in evalTerms: the
// self term with execution inflated by the lock wait and the chain
// predecessor's bound as jitter, the interferers jittered by their
// predecessors' bounds plus their own lock waits, then the protocol's
// boosted-section terms. It reports false when an input is infinite.
func (a *Analyzer) lockTerms(i int, l, lw []model.Duration, wait model.Duration) ([]term, bool) {
	if wait.IsInfinite() {
		return nil, false
	}
	off := a.termOff[i]
	selfJitter := model.Duration(0)
	if src := a.termSrc[off]; src >= 0 {
		selfJitter = l[src]
	}
	if selfJitter.IsInfinite() {
		return nil, false
	}
	a.evalTerms = append(a.evalTerms[:0], a.termBuf[off:a.termOff[i+1]]...)
	a.evalTerms[0].Exec = a.exec[i].AddSat(wait)
	a.evalTerms[0].Jitter = selfJitter
	for k := 1; k < len(a.evalTerms); k++ {
		u := int(a.termSub[off+k])
		j := a.relJitter(u, l).AddSat(lw[u])
		if j.IsInfinite() {
			return nil, false
		}
		a.evalTerms[k].Jitter = j
	}
	for k := a.lockOff[i]; k < a.lockOff[i+1]; k++ {
		u := int(a.lockSub[k])
		j := a.relJitter(u, l).AddSat(lw[u])
		if j.IsInfinite() {
			return nil, false
		}
		t := a.lockBuf[k]
		t.Jitter = j
		a.evalTerms = append(a.evalTerms, t)
	}
	return a.evalTerms, true
}

// analyzeLocking runs the Jacobi iteration over (bounds, lock waits).
func (a *Analyzer) analyzeLocking(res *Result, proto lockProto) *Result {
	n := a.ix.Len()
	a.resetWarm()
	a.buildLockTerms(proto)
	l, next := a.cur[:n], a.nxt[:n]
	copy(l, a.prefixExec)
	lw, lwNext := a.lw[:n], a.lwNext[:n]
	for i := range lw {
		lw[i] = 0
	}
	iterations := 0
	for {
		iterations++
		same := true
		for i := 0; i < n; i++ {
			w := a.lockWait(i, proto, l, lw)
			nv := a.lockSubtask(i, l, lw, w)
			if w != lw[i] || nv != l[i] {
				same = false
			}
			lwNext[i], next[i] = w, nv
		}
		l, next = next, l
		lw, lwNext = lwNext, lw
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
	return a.finishIterative(res, l, iterations)
}

// AnalyzeMPCP bounds task EER times under the DS release protocol with
// global critical sections arbitrated by the Multiprocessor Priority-
// Ceiling Protocol, over the Reset system. See the file comment for the
// blocking model; like every Analyze method the Result stays valid until
// the next Reset or the next AnalyzeMPCP call.
func (a *Analyzer) AnalyzeMPCP() *Result { return a.analyzeLocking(&a.mpcp, mpcpProto) }

// AnalyzeDPCP is AnalyzeMPCP with the Distributed Priority-Ceiling
// Protocol's placement: sections interfere on their resource's
// synchronization processor instead of the requester's.
func (a *Analyzer) AnalyzeDPCP() *Result { return a.analyzeLocking(&a.dpcp, dpcpProto) }

// AnalyzeMPCP runs the MPCP analysis with a fresh Analyzer; reusing one
// Analyzer across systems amortizes all per-call allocation.
func AnalyzeMPCP(s *model.System, opts Options) (*Result, error) {
	var a Analyzer
	if err := a.Reset(s, opts); err != nil {
		return nil, fmt.Errorf("MPCP: %w", err)
	}
	return a.AnalyzeMPCP(), nil
}

// AnalyzeDPCP runs the DPCP analysis with a fresh Analyzer.
func AnalyzeDPCP(s *model.System, opts Options) (*Result, error) {
	var a Analyzer
	if err := a.Reset(s, opts); err != nil {
		return nil, fmt.Errorf("DPCP: %w", err)
	}
	return a.AnalyzeDPCP(), nil
}
