// Pass-to-pass seeds: every iterative analysis starts each inner solve of a
// subtask — D, C(1), each C(k), each lock wait W — from that subtask's
// converged value of its previous evaluation, and zeroes the seeds on every
// Analyze entry. The cold-captured golden digests pin that seeding moves no
// bound and no outer iteration count; this file pins that no seed is lost
// and that none leaks from one analysis into the next.
package analysis_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/obs"
)

// TestConvergedResolveCostsOneEvaluation runs SA/DS, holistic, MPCP and
// DPCP in turn on ONE Analyzer per golden system. Each result must match
// its committed golden digest, which fresh Analyzers reproduce (so seeds
// reset between analyses), and re-solving every
// finite subtask at the converged inputs must cost exactly one demand
// evaluation per solve: each seed the analysis kept is already its solve's
// least fixed point, so a dropped seed — D, C(1), any C(k) or any W —
// shows as a solve that iterates.
func TestConvergedResolveCostsOneEvaluation(t *testing.T) {
	opts := analysis.DefaultOptions()
	analyses := []struct {
		algo string
		run  func(*analysis.Analyzer) *analysis.Result
	}{
		{"sads", (*analysis.Analyzer).AnalyzeDS},
		{"holistic", (*analysis.Analyzer).AnalyzeHolistic},
		{"mpcp", (*analysis.Analyzer).AnalyzeMPCP},
		{"dpcp", (*analysis.Analyzer).AnalyzeDPCP},
	}
	raw, err := os.ReadFile(filepath.Join(goldenDir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var resolved, dsResolved, dsSolves int64
	st := obs.NewAnalysisStats()
	for _, gs := range goldenSystems(t) {
		var a analysis.Analyzer
		if err := a.Reset(gs.sys, opts); err != nil {
			t.Fatalf("%s: reset: %v", gs.name, err)
		}
		for _, an := range analyses {
			a.Stats = nil
			res := an.run(&a)
			sum := sha256.Sum256([]byte(digestResult(gs.sys, res)))
			if got, want := hex.EncodeToString(sum[:]), golden[gs.name+"/"+an.algo]; got != want {
				t.Errorf("%s/%s after earlier analyses on the same Analyzer: digest hash %.12s, golden %.12s",
					gs.name, an.algo, got, want)
			}
			if res.Iterations >= opts.MaxOuterIter {
				continue // poisoned, not converged
			}
			a.Stats = st
			solves, iters := st.FixpointSolves(), st.FixpointIterTotal()
			n := analysis.ResolveConverged(&a, an.algo, res)
			solves, iters = st.FixpointSolves()-solves, st.FixpointIterTotal()-iters
			if iters != solves {
				t.Errorf("%s/%s: re-solving %d converged subtasks took %d demand evaluations for %d solves, want one each",
					gs.name, an.algo, n, iters, solves)
			}
			resolved += int64(n)
			if an.algo == "sads" {
				dsResolved += int64(n)
				dsSolves += solves
			}
		}
	}
	// A single-instance subtask re-solves only D (C(1) = D); more solves
	// than subtasks prove the population reaches the per-instance seeds.
	if dsSolves <= dsResolved {
		t.Errorf("SA/DS re-solved %d subtasks with %d solves: no multi-instance busy period exercised", dsResolved, dsSolves)
	}
	t.Logf("%d subtasks re-solved, %d solves (%d seeded)", resolved, st.FixpointSolves(), st.Snapshot().WarmSolves)
}
