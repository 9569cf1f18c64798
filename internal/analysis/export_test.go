package analysis

import "rtsync/internal/model"

// ResolveConverged re-evaluates, at the converged inputs, every subtask
// with a finite bound in res through the cell of the analysis algo ("sads",
// "holistic", "mpcp" or "dpcp") that produced res — the latest Analyze call
// on a — so its solves start from the seeds that analysis left behind. It
// returns the number of subtasks re-evaluated.
func ResolveConverged(a *Analyzer, algo string, res *Result) int {
	n := len(res.Bounds)
	l := make([]model.Duration, n)
	for i := range l {
		l[i] = res.Bounds[i].Response
	}
	// Convergence leaves both lock-wait buffers holding the final waits.
	lw := a.lw[:n]
	resolved := 0
	for i := range l {
		if l[i].IsInfinite() {
			continue
		}
		resolved++
		switch algo {
		case "sads":
			a.ieertSubtask(i, l)
		case "holistic":
			a.holisticSubtask(i, l)
		case "mpcp":
			a.lockSubtask(i, l, lw, a.lockWait(i, mpcpProto, l, lw))
		case "dpcp":
			a.lockSubtask(i, l, lw, a.lockWait(i, dpcpProto, l, lw))
		default:
			panic("ResolveConverged: unknown analysis " + algo)
		}
	}
	return resolved
}
