// Differential fuzzing of the analyzer kernel. The single-division demand,
// the S0 start and the shortcut per-instance loop (closed-form single
// instance, C(k−1)+e starts) must agree exactly with the two-division
// kernel and the per-instance loop from S0 they replaced, kept here as the
// reference.
package analysis

import (
	"encoding/binary"
	"math"
	"testing"

	"rtsync/internal/model"
	"rtsync/internal/workload"
)

// refMulSat is Duration.MulSat with its original division-based overflow
// test.
func refMulSat(d model.Duration, k int64) model.Duration {
	if d.IsInfinite() {
		return model.Infinite
	}
	if k == 0 || d == 0 {
		return 0
	}
	if int64(d) > math.MaxInt64/k {
		return model.Infinite
	}
	return model.Duration(int64(d) * k)
}

// refDemand evaluates base + Σ ceil((t+J)/p)·e term by term in saturating
// Duration arithmetic: two divisions and three saturation branches a term.
func refDemand(base model.Duration, t model.Duration, terms []term) model.Duration {
	total := base
	for _, tm := range terms {
		if tm.Jitter.IsInfinite() {
			return model.Infinite
		}
		shifted := t.AddSat(tm.Jitter)
		if shifted.IsInfinite() {
			return model.Infinite
		}
		n := model.CeilDiv(shifted, tm.Period)
		total = total.AddSat(refMulSat(tm.Exec, n))
		if total.IsInfinite() {
			return model.Infinite
		}
	}
	return total
}

// refStartDemand is S0 with a division per term.
func refStartDemand(base model.Duration, terms []term) model.Duration {
	t := base
	for _, tm := range terms {
		n := model.CeilDiv(tm.Jitter, tm.Period)
		if n < 1 {
			n = 1
		}
		t = t.AddSat(refMulSat(tm.Exec, n))
	}
	return t
}

// refSolveFixpoint is the reference solveFixpoint.
func refSolveFixpoint(base model.Duration, terms []term, cap model.Duration, maxIter int, start model.Duration) (model.Duration, int) {
	t := refStartDemand(base, terms)
	if start > t {
		t = start
	}
	if t <= 0 {
		return model.Infinite, 0
	}
	for i := 0; i < maxIter; i++ {
		if t.IsInfinite() || t > cap {
			return model.Infinite, i
		}
		next := refDemand(base, t, terms)
		if next == t {
			return t, i + 1
		}
		if next < t {
			return model.Infinite, i + 1
		}
		t = next
	}
	return model.Infinite, maxIter
}

// refResponse is the reference per-instance loop: every busy-period and
// completion solve starts from S0 on the reference kernel, and every
// instance k = 1..M is solved.
func refResponse(a *Analyzer, i int, terms []term) (worst, d model.Duration, m int64) {
	if a.overUtil[i] {
		return model.Infinite, model.Infinite, 0
	}
	d, _ = refSolveFixpoint(a.block[i], terms, a.busyCap[i], a.opts.MaxFixpointIter, 0)
	if d.IsInfinite() {
		return model.Infinite, model.Infinite, 0
	}
	self := terms[0]
	m = model.CeilDiv(d.AddSat(self.Jitter), a.period[i])
	if m > a.opts.MaxInstances {
		return model.Infinite, d, m
	}
	for k := int64(1); k <= m; k++ {
		base := a.block[i].AddSat(refMulSat(self.Exec, k))
		c, _ := refSolveFixpoint(base, terms[1:], a.busyCap[i], a.opts.MaxFixpointIter, 0)
		if c.IsInfinite() {
			return model.Infinite, d, m
		}
		if rk := c.AddSat(self.Jitter) - refMulSat(a.period[i], k-1); rk > worst {
			worst = rk
		}
	}
	return worst, d, m
}

// fuzzField reads the next 9 bytes of raw (zero-padded) as a value below
// 2^62 shifted right by the ninth byte, so fields span every magnitude.
func fuzzField(raw []byte) (uint64, []byte) {
	var buf [9]byte
	n := copy(buf[:], raw)
	v := binary.LittleEndian.Uint64(buf[:8]) & (1<<62 - 1)
	return v >> (buf[8] % 63), raw[n:]
}

// FuzzDemandExact checks demand, startDemand and solveFixpoint against the
// reference kernel on arbitrary terms obeying demand's precondition —
// periods and jitters up to 2^62, any non-negative base, cap and start —
// for the same value and the same number of demand evaluations.
func FuzzDemandExact(f *testing.F) {
	f.Add(uint64(0), uint64(1<<40), uint64(0), uint8(40), []byte("\x04\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(uint64(7), uint64(math.MaxInt64), uint64(3), uint8(200), []byte("\xff\xff\xff\xff\xff\xff\xff\x3f\x00\x00\x00\x00\x00\x00\x00\xc0\x29\x00\xff\xff\xff\xff\xff\xff\xff\x3f\x01"))
	f.Add(uint64(math.MaxInt64), uint64(math.MaxInt64), uint64(math.MaxInt64-1), uint8(1), []byte{1, 2, 3})
	f.Add(uint64(3e18), uint64(math.MaxInt64), uint64(0), uint8(10), []byte("\x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00\x3c\xa6\x86\xa2\x29\x00\x00\x00\x3c\xa6\x86\xa2\x29\x00"))
	f.Fuzz(func(t *testing.T, base, cap, start uint64, maxIter uint8, raw []byte) {
		b := model.Duration(base & math.MaxInt64)
		c := model.Duration(cap & math.MaxInt64)
		s := model.Duration(start & math.MaxInt64)
		var terms []term
		for len(raw) > 0 && len(terms) < 8 {
			var p, e, j uint64
			p, raw = fuzzField(raw)
			e, raw = fuzzField(raw)
			j, raw = fuzzField(raw)
			terms = append(terms, term{Period: model.Duration(p + 1), Exec: model.Duration(e), Jitter: model.Duration(j)})
		}
		s0 := startDemand(b, terms)
		if want := refStartDemand(b, terms); s0 != want {
			t.Fatalf("startDemand = %v, reference %v (base %v, terms %+v)", s0, want, b, terms)
		}
		for _, x := range []model.Duration{1, s0, s, c, s0 / 2, s0 + s, c - s} {
			if x <= 0 || x.IsInfinite() {
				continue
			}
			if got, want := demand(b, x, terms), refDemand(b, x, terms); got != want {
				t.Fatalf("demand(%v) = %v, reference %v (base %v, terms %+v)", x, got, want, b, terms)
			}
		}
		iters := 1 + int(maxIter)
		v, n := solveFixpoint(b, terms, c, iters, s)
		rv, rn := refSolveFixpoint(b, terms, c, iters, s)
		if v != rv || n != rn {
			t.Fatalf("solveFixpoint = (%v, %d), reference (%v, %d) (base %v, cap %v, start %v, terms %+v)",
				v, n, rv, rn, b, c, s, terms)
		}
	})
}

// FuzzAnalyzeExact draws small systems — global resources, critical
// sections and a non-preemptive link included — and runs all five
// analyses in turn on one Analyzer. At each converged state every
// subtask's bound must equal its recomputation through the reference
// per-instance loop from S0, which keeps no seeds.
func FuzzAnalyzeExact(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(50), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(3), uint8(80), uint8(2), uint8(50), false)
	f.Add(int64(42), uint8(1), uint8(90), uint8(1), uint8(99), true)
	f.Add(int64(1009), uint8(4), uint8(70), uint8(3), uint8(20), true)
	f.Fuzz(func(t *testing.T, seed int64, n, u, gres, cs uint8, link bool) {
		cfg := workload.DefaultConfig(1+int(n%4), 0.3+float64(u%61)/100)
		cfg.Processors = 2 + int(n/4%2)
		cfg.Tasks = 2 + int(u/61%5)
		cfg.Seed = seed
		cfg.GlobalResources = int(gres % 4)
		cfg.GlobalShare = 0.5
		cfg.CSLenFrac = float64(1+cs%100) / 100
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		if link {
			sys.Procs[0].Preemptive = false
		}
		var a Analyzer
		if err := a.Reset(sys, DefaultOptions()); err != nil {
			t.Skip(err)
		}
		checkPM(t, &a)
		checkIterative(t, &a, a.AnalyzeDS(), func(i int, r []model.Duration) model.Duration {
			terms, ok := a.ieertTerms(i, r)
			if !ok {
				return model.Infinite
			}
			w, _, _ := refResponse(&a, i, terms)
			return w
		})
		checkIterative(t, &a, a.AnalyzeHolistic(), func(i int, l []model.Duration) model.Duration {
			terms, ok := a.holisticTerms(i, l)
			if !ok {
				return model.Infinite
			}
			w, _, _ := refResponse(&a, i, terms)
			if src := a.termSrc[a.termOff[i]]; src >= 0 {
				w = a.prefixExec[src].AddSat(w)
			}
			return w
		})
		checkLocking(t, &a, mpcpProto)
		checkLocking(t, &a, dpcpProto)
	})
}

// checkPM compares AnalyzePM's per-subtask records with the reference loop
// over zero-jitter terms.
func checkPM(t *testing.T, a *Analyzer) {
	t.Helper()
	res := a.AnalyzePM()
	for i := range res.Bounds {
		terms := a.termBuf[a.termOff[i]:a.termOff[i+1]]
		for k := range terms {
			terms[k].Jitter = 0
		}
		w, d, m := refResponse(a, i, terms)
		if want := (SubtaskBound{Response: w, BusyPeriod: d, Instances: m}); res.Bounds[i] != want {
			t.Errorf("SA/PM subtask %d: %+v, reference %+v", i, res.Bounds[i], want)
		}
	}
}

// checkIterative compares every converged bound of an iterative analysis
// with ref — the reference cell, its bound before the failure cap —
// evaluated at the converged bounds. A run stopped by MaxOuterIter is
// poisoned, not converged, and is skipped.
func checkIterative(t *testing.T, a *Analyzer, res *Result, ref func(int, []model.Duration) model.Duration) {
	t.Helper()
	if res.Iterations >= a.opts.MaxOuterIter {
		return
	}
	l := make([]model.Duration, len(res.Bounds))
	for i := range l {
		l[i] = res.Bounds[i].Response
	}
	for i := range l {
		want := ref(i, l)
		if want > a.failCap[i] {
			want = model.Infinite
		}
		if l[i] != want {
			t.Errorf("%s subtask %d: bound %v, reference %v", res.Protocol, i, l[i], want)
		}
	}
}

// checkLocking runs one locking analysis and checks it at convergence:
// the lock waits, re-solved from S0, are a fixed point, and each bound
// equals the reference loop over the lock-inflated terms.
func checkLocking(t *testing.T, a *Analyzer, proto lockProto) {
	t.Helper()
	var res *Result
	if proto == mpcpProto {
		res = a.AnalyzeMPCP()
	} else {
		res = a.AnalyzeDPCP()
	}
	// Convergence leaves both lock-wait buffers holding the final waits.
	// Without its pass-to-pass seeds lockWait solves each wait from S0.
	lw := a.lw[:len(res.Bounds)]
	clear(a.warmW)
	checkIterative(t, a, res, func(i int, l []model.Duration) model.Duration {
		w := a.lockWait(i, proto, l, lw)
		if w != lw[i] {
			t.Errorf("%s subtask %d: lock wait %v is not the converged %v", res.Protocol, i, w, lw[i])
		}
		terms, ok := a.lockTerms(i, l, lw, w)
		if !ok {
			return model.Infinite
		}
		r, _, _ := refResponse(a, i, terms)
		return r
	})
}
