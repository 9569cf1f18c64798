// Package analysis implements the schedulability analyses of Sun & Liu
// (ICDCS 1996, §4): Algorithm SA/PM — busy-period analysis after Lehoczky,
// valid for the PM, MPM and RG protocols (Theorem 1) — and Algorithm SA/DS,
// which iterates Algorithm IEERT to bound end-to-end response (EER) times
// under the DS protocol.
//
// Everything here is exact integer arithmetic over model.Duration ticks.
// A bound larger than Options.FailureFactor times the task's period is
// reported as model.Infinite, matching the paper's §5.2 failure criterion
// (factor 300).
package analysis

import (
	"math"
	"math/big"
	"math/bits"

	"rtsync/internal/model"
)

// term is one interference contribution ceil((t + Jitter)/Period) * Exec in
// a fixed-point demand equation. Jitter is zero for the strictly periodic
// analysis (SA/PM) and equals the interfering subtask's predecessor IEER
// bound in Algorithm IEERT.
type term struct {
	Period model.Duration
	Exec   model.Duration
	Jitter model.Duration
}

// demand evaluates base + Σ ceil((t+J)/p)·e, saturating at model.Infinite.
//
// Precondition, guaranteed by every caller and not re-checked per term:
// t > 0 and finite, base ≥ 0, and every term has Period > 0, Exec ≥ 0 and
// a finite Jitter ≥ 0. Then x = t+J fits an unsigned word with x ≥ 1, so
// ceil(x/p) is the single unsigned division (x−1)/p + 1, and the products
// and the running sum are exact 128-bit-checked unsigned arithmetic. The
// result is the exact sum, or Infinite when that sum — or any shifted
// instant t+J — reaches MaxInt64: the same saturation points as chained
// Duration.AddSat/MulSat, without a branch per term.
func demand(base model.Duration, t model.Duration, terms []term) model.Duration {
	total, sat := uint64(base), uint64(0)
	for k := range terms {
		tm := &terms[k]
		x := uint64(t) + uint64(tm.Jitter)
		hi, lo := bits.Mul64(uint64(tm.Exec), (x-1)/uint64(tm.Period)+1)
		var carry uint64
		total, carry = bits.Add64(total, lo, 0)
		sat |= hi | carry | (x+1)>>63 // (x+1)>>63 is set iff x ≥ MaxInt64
	}
	if sat != 0 || total >= math.MaxInt64 {
		return model.Infinite
	}
	return model.Duration(total)
}

// startDemand returns S0, the demand an instant after time 0: every term
// contributes max(1, ceil(J/p)) instances. Same precondition as demand;
// a jitter of at most one period needs no division.
func startDemand(base model.Duration, terms []term) model.Duration {
	total, sat := uint64(base), uint64(0)
	for k := range terms {
		tm := &terms[k]
		n := uint64(1)
		if tm.Jitter > tm.Period {
			n = (uint64(tm.Jitter)-1)/uint64(tm.Period) + 1
		}
		hi, lo := bits.Mul64(uint64(tm.Exec), n)
		var carry uint64
		total, carry = bits.Add64(total, lo, 0)
		sat |= hi | carry
	}
	if sat != 0 || total >= math.MaxInt64 {
		return model.Infinite
	}
	return model.Duration(total)
}

// solveFixpoint finds the least t > 0 with t = base + Σ ceil((t+J_k)/p_k)·e_k
// by the standard monotone iteration (Lehoczky; Joseph & Pandya). It starts
// from S0 (startDemand) — every term contributes at least one instance —
// so the iterates increase monotonically to the least fixed point. A seed
// at or below the least fixed point may be supplied to skip early
// iterations (pass 0 when none is known); the larger of it and S0 is
// handed to fixpointFrom. It returns model.Infinite if the iterate exceeds
// cap or the iteration fails to converge within maxIter steps, along with
// the number of demand evaluations spent. The terms obey demand's
// precondition.
func solveFixpoint(base model.Duration, terms []term, cap model.Duration, maxIter int, start model.Duration) (model.Duration, int) {
	return fixpointFrom(base, terms, cap, maxIter, max(startDemand(base, terms), start))
}

// fixpointFrom runs the fixed-point iteration from t. For any t with
// S0 ≤ t ≤ lfp the iterates t, demand(t), demand²(t), ... stay within
// [t, lfp] (demand is monotone and every point of [S0, lfp] has
// demand(t) ≥ t, since t ≤ lfp = demand(lfp) and the largest iterate below
// t bounds it from below), so the iteration converges to exactly the
// least fixed point S0 would reach — in no more steps, as the iterates
// dominate S0's pointwise. When that fixed point lies above cap (or none
// exists), the dominating iterates pass cap no later than S0's do. A
// t ≤ 0 (base == 0 and no terms: t = 0 has no positive solution) reports
// divergence rather than a bogus zero.
func fixpointFrom(base model.Duration, terms []term, cap model.Duration, maxIter int, t model.Duration) (model.Duration, int) {
	if t <= 0 {
		return model.Infinite, 0
	}
	for i := 0; i < maxIter; i++ {
		if t.IsInfinite() || t > cap {
			return model.Infinite, i
		}
		next := demand(base, t, terms)
		if next == t {
			return t, i + 1
		}
		if next < t {
			// Demand is non-decreasing in t; a drop means the start lay
			// above the least fixed point. Treat as divergence.
			return model.Infinite, i + 1
		}
		t = next
	}
	return model.Infinite, maxIter
}

// Options tunes the analyses. The zero value is NOT valid; use
// DefaultOptions.
type Options struct {
	// FailureFactor declares a task EER bound infinite when it exceeds
	// FailureFactor × the task's period (§5.2 of the paper uses 300).
	FailureFactor int64
	// MaxFixpointIter bounds a single fixed-point iteration.
	MaxFixpointIter int
	// MaxOuterIter bounds the SA/DS outer iteration (R = IEERT(T, R)).
	MaxOuterIter int
	// MaxInstances bounds the number of instances examined per busy
	// period (step 3's loop). Busy periods needing more are treated as
	// analysis failures.
	MaxInstances int64
	// StopOnFailure lets AnalyzeDS return as soon as any bound goes
	// infinite, with every not-yet-converged bound poisoned to
	// model.Infinite. Use when only Result.Failed matters (the Figure 12
	// experiment); per-task bounds of a stopped run are not meaningful
	// beyond their infiniteness.
	StopOnFailure bool
	// WarmStart does nothing. Every iterative analysis always seeds its
	// inner fixed-point solves from the previous outer pass's converged
	// values (DESIGN.md §4j); the field remains only so existing callers
	// that set it still compile, and cache digests ignore it.
	WarmStart bool
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{
		FailureFactor:   300,
		MaxFixpointIter: 1 << 20,
		MaxOuterIter:    4096,
		MaxInstances:    1 << 20,
	}
}

// failureCap returns the per-task EER cap implied by FailureFactor.
func (o Options) failureCap(period model.Duration) model.Duration {
	return period.MulSat(o.FailureFactor)
}

// interferers returns the interference set H(i,j): the subtasks, other than
// id itself, that run on id's processor with priority higher than or equal
// to id's (Definition 1 admits equal priorities).
func interferers(s *model.System, id model.SubtaskID) []model.SubtaskID {
	self := s.Subtask(id)
	var out []model.SubtaskID
	for _, other := range s.OnProcessor(self.Proc) {
		if other == id {
			continue
		}
		if s.Subtask(other).Priority >= self.Priority {
			out = append(out, other)
		}
	}
	return out
}

// blockingTerm returns the worst-case blocking a job of id can suffer from
// lower-priority work that cannot be preempted once started. Two sources,
// both extensions the paper's §2 and §6 point at (always on; zero for the
// paper's own lock-free, fully preemptive workloads):
//
//   - a non-preemptive ("link") processor: the largest execution time
//     among strictly lower-priority subtasks sharing the processor (one of
//     them may have been dispatched just before the job became ready);
//   - priority-ceiling emulation: the largest execution time among
//     strictly lower-priority subtasks on the processor whose effective
//     (ceiling-raised) priority reaches id's priority — the classical
//     once-per-job PCP blocking bound.
func blockingTerm(s *model.System, id model.SubtaskID, opts Options) model.Duration {
	self := s.Subtask(id)
	nonPreemptive := !s.Procs[self.Proc].Preemptive
	var ceilings []model.Priority
	if len(s.Resources) > 0 {
		ceilings = s.ResourceCeilings()
	}
	var b model.Duration
	for _, other := range s.OnProcessor(self.Proc) {
		if other == id {
			continue
		}
		o := s.Subtask(other)
		if o.Priority >= self.Priority || o.Exec <= b {
			continue
		}
		if nonPreemptive || (ceilings != nil && s.EffectivePriority(other, ceilings) >= self.Priority) {
			b = o.Exec
		}
	}
	return b
}

// procOverUtilized reports whether the level-(i,j) utilization (self plus
// interferers) exceeds 1, in which case no busy-period bound exists: the
// map-based companion of the dense test in Analyzer.init, deciding through
// the same exact utilExceedsOne.
func procOverUtilized(s *model.System, id model.SubtaskID) bool {
	terms := []term{{Period: s.Task(id).Period, Exec: s.Subtask(id).Exec}}
	for _, other := range interferers(s, id) {
		terms = append(terms, term{Period: s.Task(other).Period, Exec: s.Subtask(other).Exec})
	}
	return utilExceedsOne(utilFloat(terms), terms)
}

// utilFloat is the float64 sum of Exec/Period over terms, in term order.
func utilFloat(terms []term) float64 {
	f := 0.0
	for _, tm := range terms {
		f += float64(tm.Exec) / float64(tm.Period)
	}
	return f
}

var ratOne = big.NewRat(1, 1)

// utilExceedsOne decides Σ Exec/Period > 1 over terms exactly, given f, the
// float64 sum of the same fractions added in term order. Three tiers,
// cheapest first, so borderline systems cannot flicker between analyzable
// and not across platforms the way a float-with-epsilon check would:
//
//  1. f itself, whenever it lies outside its rounding margin of 1. Each
//     fraction costs two int64→float64 conversions and a division, each
//     sum an addition, all rounded to nearest, so f is within
//     (terms+2)·2⁻⁵³·sum of the exact sum, which 4e-16·terms·f covers
//     (TestUtilExceedsOneMatchesBig checks it against math/big).
//  2. Inside the margin (every sum of exactly 1 lands here), the exact
//     fraction in int64, kept reduced by gcd.
//  3. math/big, once tier 2 overflows.
func utilExceedsOne(f float64, terms []term) bool {
	eps := 4e-16 * float64(len(terms)) * f
	switch {
	case f > 1+eps:
		return true
	case f < 1-eps:
		return false
	}
	num, den := int64(0), int64(1)
	for _, tm := range terms {
		var ok bool
		if num, den, ok = addFrac(num, den, int64(tm.Exec), int64(tm.Period)); !ok {
			var sum, t big.Rat
			for _, tm := range terms {
				sum.Add(&sum, t.SetFrac64(int64(tm.Exec), int64(tm.Period)))
			}
			return sum.Cmp(ratOne) > 0
		}
	}
	return num > den
}

// addFrac returns num/den + e/p reduced, for non-negative numerators and
// positive denominators, reporting false when an intermediate product or
// sum overflows int64.
func addFrac(num, den, e, p int64) (int64, int64, bool) {
	// num/den + e/p = (num·(p/g) + e·(den/g)) / (den·(p/g)), g = gcd(den,p).
	g := gcd64(den, p)
	pg, dg := p/g, den/g
	n1, ok1 := mul64(num, pg)
	n2, ok2 := mul64(e, dg)
	d, ok3 := mul64(den, pg)
	n, ok4 := add64(n1, n2)
	if !(ok1 && ok2 && ok3 && ok4) {
		return 0, 0, false
	}
	if g = gcd64(n, d); g > 1 {
		n, d = n/g, d/g
	}
	return n, d, true
}

// gcd64 returns the greatest common divisor of two non-negative int64s
// (gcd(x, 0) = x).
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mul64 multiplies non-negative int64s, reporting whether the product fits.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a > math.MaxInt64/b {
		return 0, false
	}
	return a * b, true
}

// add64 adds non-negative int64s, reporting whether the sum fits.
func add64(a, b int64) (int64, bool) {
	if a > math.MaxInt64-b {
		return 0, false
	}
	return a + b, true
}
