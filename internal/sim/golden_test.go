// Golden-fixture determinism tests: every case simulates a system under one
// protocol/scheduler pair and digests the complete outcome — metrics and the
// full trace — into a canonical text form. The SHA-256 of each digest is
// checked into testdata/golden.json; the digests of the small Example 1/2
// cases are additionally stored verbatim under testdata/golden/ so a
// mismatch is diffable.
//
// The fixtures were captured from the engine BEFORE the dense-state refactor
// (run with -update-golden), so this test proves the refactored engine
// reproduces the original schedules bit for bit.
package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/priority"
	"rtsync/internal/sim"
	"rtsync/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden fixtures from the current engine")

// goldenCase is one (system, protocol, scheduler, config) combination.
type goldenCase struct {
	name string
	sys  *model.System
	cfg  sim.Config
	// skip records why the case cannot run (e.g. infinite PM bounds);
	// the skip reason itself is part of the fixture.
	skip string
	// fullDump stores the complete digest text, not just its hash.
	fullDump bool
}

// digest renders the outcome of one run canonically. Everything in it comes
// from the public Metrics/Trace API so the same function works unchanged
// across engine rewrites.
func digest(sys *model.System, out *sim.Outcome) string {
	var b bytes.Buffer
	m := out.Metrics
	fmt.Fprintf(&b, "horizon=%d events=%d preemptions=%d violations=%d overruns=%d\n",
		int64(m.Horizon), m.Events, m.Preemptions, m.PrecedenceViolations, m.Overruns)
	for i := range m.Tasks {
		tm := &m.Tasks[i]
		fmt.Fprintf(&b, "task %d: rel=%d comp=%d sumEER=%d maxEER=%d jitter=%d misses=%d samples=%d\n",
			i, tm.Released, tm.Completed, tm.SumEER, int64(tm.MaxEER),
			int64(tm.MaxOutputJitter), tm.DeadlineMisses, tm.EERSampleCount())
	}
	for _, id := range sys.SubtaskIDs() {
		sm := m.Subtasks[id]
		if sm == nil {
			fmt.Fprintf(&b, "sub %v: <nil>\n", id)
			continue
		}
		fmt.Fprintf(&b, "sub %v: rel=%d comp=%d sumResp=%d maxResp=%d\n",
			id, sm.Released, sm.Completed, sm.SumResponse, int64(sm.MaxResponse))
	}
	if tr := out.Trace; tr != nil {
		fmt.Fprintf(&b, "trace scheduler=%v\n", tr.Scheduler)
		for _, rec := range tr.JobsInOrder() {
			fmt.Fprintf(&b, "job %v proc=%d rel=%d comp=%d dl=%d demand=%d\n",
				rec.Job, rec.Proc, int64(rec.Release), int64(rec.Completion),
				int64(rec.Deadline), int64(rec.Demand))
		}
		for p := range sys.Procs {
			fmt.Fprintf(&b, "segments %d:", p)
			for _, s := range tr.SegmentsOn(p) {
				fmt.Fprintf(&b, " [%d,%d]%v", int64(s.Start), int64(s.End), s.Job)
			}
			fmt.Fprintln(&b)
		}
		for p := range sys.Procs {
			fmt.Fprintf(&b, "idle %d:", p)
			for _, t := range tr.IdlePoints[p] {
				fmt.Fprintf(&b, " %d", int64(t))
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "violations:")
		for _, v := range tr.Violations {
			fmt.Fprintf(&b, " %v@%d", v.Job, int64(v.Time))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// pmBoundsOf derives SA/PM bounds, returning ok=false when any is infinite.
func pmBoundsOf(t *testing.T, sys *model.System) (sim.Bounds, bool) {
	t.Helper()
	res, err := analysis.AnalyzePM(sys, analysis.DefaultOptions())
	if err != nil {
		t.Fatalf("AnalyzePM: %v", err)
	}
	b := make(sim.Bounds, len(res.Bounds))
	for i, sb := range res.Bounds {
		id := res.Index.ID(i)
		if sb.Response.IsInfinite() {
			return nil, false
		}
		b[id] = sb.Response
	}
	return b, true
}

// withLocalDeadlines clones sys and assigns proportional local deadlines.
func withLocalDeadlines(t *testing.T, sys *model.System) *model.System {
	t.Helper()
	c := sys.Clone()
	if err := priority.AssignLocalDeadlines(c, priority.ProportionalSlice); err != nil {
		t.Fatalf("AssignLocalDeadlines: %v", err)
	}
	return c
}

// resourceSystem builds a two-processor system with a shared resource and a
// non-preemptive link, exercising ceiling emulation and non-preemptive
// dispatch in the goldens.
func resourceSystem() *model.System {
	b := model.NewBuilder()
	p1 := b.AddProcessor("P1")
	link := b.AddLink("L")
	r := b.AddResource("R")
	b.AddTask("T1", 12, 0).
		Subtask(p1, 2, 3).Locking(r).
		Subtask(link, 2, 2).
		Done()
	b.AddTask("T2", 16, 1).
		Subtask(p1, 3, 2).Locking(r).
		Subtask(link, 2, 1).
		Done()
	b.AddTask("T3", 24, 2).Subtask(p1, 4, 1).Done()
	return b.MustBuild()
}

// globalSystem builds a three-processor system whose subtasks contend for
// two global resources through critical-section segments, exercising the
// lock acquire/release events, remote suspension, priority boosting, and
// (under DPCP) section migration in the goldens.
func globalSystem() *model.System {
	b := model.NewBuilder()
	p1 := b.AddProcessor("P1")
	p2 := b.AddProcessor("P2")
	p3 := b.AddProcessor("P3")
	g1 := b.AddGlobalResource("g1", p3)
	g2 := b.AddGlobalResource("g2", p1)
	b.AddTask("hi", 30, 0).Subtask(p1, 6, 3).Critical(2, 3, g1).Subtask(p2, 3, 3).Done()
	b.AddTask("mid", 40, 0).Subtask(p2, 8, 2).Critical(1, 2, g1).Critical(5, 3, g2).Done()
	b.AddTask("lo", 60, 0).Subtask(p1, 9, 1).Critical(6, 3, g2).Subtask(p3, 4, 1).Done()
	return b.MustBuild()
}

// longPeriodSystem builds a two-processor system with periods of 40M and
// 60M ticks, four times the largest default workload period, so first
// releases and protocol timers sit tens of millions of ticks ahead of the
// clock.
func longPeriodSystem() *model.System {
	b := model.NewBuilder()
	pr := b.AddProcessor("P")
	q := b.AddProcessor("Q")
	b.AddTask("A", 40_000_000, 0).Subtask(pr, 1_000_000, 2).Subtask(q, 2_000_000, 1).Done()
	b.AddTask("B", 60_000_000, 0).Subtask(q, 3_000_000, 2).Subtask(pr, 1_500_000, 1).Done()
	return b.MustBuild()
}

// TestRunnerReuseLongPeriods recycles one Runner over the long-period
// system. The first run stops mid-schedule at 120.5M ticks, leaving a
// tentative completion armed and, under MPM, protocol timers queued past
// the horizon; the second runs to 200M ticks and must match a fresh
// engine's run, so Reset must drop everything the first run left queued.
func TestRunnerReuseLongPeriods(t *testing.T) {
	sys := longPeriodSystem()
	b, ok := pmBoundsOf(t, sys)
	if !ok {
		t.Fatal("SA/PM bounds are infinite")
	}
	for _, p := range []sim.Protocol{sim.NewRG(), sim.NewMPM(b)} {
		full := sim.Config{Protocol: p, Horizon: 200_000_000}
		fresh, err := sim.Run(sys, full)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Metrics.Events == 0 || fresh.Metrics.Tasks[0].Completed == 0 {
			t.Fatalf("%s: nothing happened (events=%d)", p.Name(), fresh.Metrics.Events)
		}
		var r sim.Runner
		if _, err := r.Run(sys, sim.Config{Protocol: p, Horizon: 120_500_000}); err != nil {
			t.Fatal(err)
		}
		reused, err := r.Run(sys, full)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Metrics, reused.Metrics) {
			t.Fatalf("%s: reused Runner diverged from a fresh engine\nfresh:  %+v\nreused: %+v",
				p.Name(), fresh.Metrics, reused.Metrics)
		}
	}
}

// sporadicDelay is a deterministic FirstReleaseDelay for the PM-violation
// golden case.
func sporadicDelay(task int, m int64) model.Duration {
	return model.Duration((int64(task+1)*3 + m*5) % 7)
}

// shortExec is a deterministic ExecTime for the execution-variation case.
func shortExec(id model.SubtaskID, m int64) model.Duration {
	return model.Duration(1 + (int64(id.Task)+int64(id.Sub)+m)%3)
}

// goldenCases enumerates every fixture. All runs record a full trace so the
// goldens pin the complete schedule, not just aggregates.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	add := func(name string, sys *model.System, cfg sim.Config, full bool) {
		cfg.Trace = true
		cases = append(cases, goldenCase{name: name, sys: sys, cfg: cfg, fullDump: full})
	}
	addSkip := func(name, why string) {
		cases = append(cases, goldenCase{name: name, skip: why})
	}

	// A protocol set over one system under one scheduler. PM and MPM need
	// finite SA/PM bounds; when the analysis fails the skip reason itself
	// becomes the fixture value.
	protoSet := func(prefix string, sys *model.System, sched sim.Scheduler, horizon model.Time, full bool) {
		base := sim.Config{Scheduler: sched, Horizon: horizon}
		mk := func(p sim.Protocol) sim.Config { c := base; c.Protocol = p; return c }
		add(prefix+"-ds", sys, mk(sim.NewDS()), full)
		add(prefix+"-rg", sys, mk(sim.NewRG()), full)
		add(prefix+"-rg1", sys, mk(sim.NewRGRule1Only()), full)
		if b, ok := pmBoundsOf(t, sys); ok {
			add(prefix+"-pm", sys, mk(sim.NewPM(b)), full)
			add(prefix+"-mpm", sys, mk(sim.NewMPM(b)), full)
		} else {
			addSkip(prefix+"-pm", "infinite SA/PM bounds")
			addSkip(prefix+"-mpm", "infinite SA/PM bounds")
		}
	}

	ex1, ex2 := model.Example1(), model.Example2()
	protoSet("example1-fp", ex1, sim.FixedPriority, 60, true)
	protoSet("example2-fp", ex2, sim.FixedPriority, 60, true)
	protoSet("example1-edf", withLocalDeadlines(t, ex1), sim.EDF, 60, true)
	protoSet("example2-edf", withLocalDeadlines(t, ex2), sim.EDF, 60, true)

	// Resource + non-preemptive link system (FP only: EDF rejects
	// resources).
	res := resourceSystem()
	add("resource-fp-ds", res, sim.Config{Protocol: sim.NewDS(), Horizon: 96}, true)
	add("resource-fp-rg", res, sim.Config{Protocol: sim.NewRG(), Horizon: 96}, true)

	// Global critical-section segments under both locking protocols (FP
	// only: global resources require a LockingKind). DS and RG cover both
	// release-guard and direct-synchronization release behavior atop the
	// same lock arbitration.
	glob := globalSystem()
	add("global-mpcp-ds", glob, sim.Config{Protocol: sim.NewDS(), Horizon: 120, Locking: sim.LockingMPCP}, true)
	add("global-dpcp-ds", glob, sim.Config{Protocol: sim.NewDS(), Horizon: 120, Locking: sim.LockingDPCP}, true)
	add("global-mpcp-rg", glob, sim.Config{Protocol: sim.NewRG(), Horizon: 120, Locking: sim.LockingMPCP}, true)
	add("global-dpcp-rg", glob, sim.Config{Protocol: sim.NewRG(), Horizon: 120, Locking: sim.LockingDPCP}, true)

	// Seeded random systems with global-resource contention.
	for i := 0; i < 5; i++ {
		cfg := workload.DefaultConfig(3+i%3, []float64{0.5, 0.7}[i%2])
		cfg.Processors = 3
		cfg.Tasks = 5
		cfg.TickScale = 100
		cfg.Seed = int64(2000 + i)
		cfg.GlobalResources = 2
		cfg.GlobalShare = 0.4
		cfg.CSLenFrac = 0.5
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("generate locked system %d: %v", i, err)
		}
		horizon := model.Time(int64(sys.MaxPeriod()) * 3)
		add(fmt.Sprintf("randlock%d-mpcp-ds", i), sys,
			sim.Config{Protocol: sim.NewDS(), Horizon: horizon, Locking: sim.LockingMPCP}, false)
		add(fmt.Sprintf("randlock%d-dpcp-ds", i), sys,
			sim.Config{Protocol: sim.NewDS(), Horizon: horizon, Locking: sim.LockingDPCP}, false)
	}

	// Clock offsets: PM drifts, MPM/RG do not (§3.3).
	offs := []model.Duration{0, 1, 2}
	if b, ok := pmBoundsOf(t, ex1); ok {
		add("offsets-pm", ex1, sim.Config{Protocol: sim.NewPM(b), Horizon: 60, ClockOffsets: offs}, true)
		add("offsets-mpm", ex1, sim.Config{Protocol: sim.NewMPM(b), Horizon: 60, ClockOffsets: offs}, true)
	}
	add("offsets-rg", ex1, sim.Config{Protocol: sim.NewRG(), Horizon: 60, ClockOffsets: offs}, true)

	// Long periods: events queued tens of millions of ticks ahead. The
	// case names predate the event heap; the digests are keyed by them.
	long := longPeriodSystem()
	add("overflow-rg", long, sim.Config{Protocol: sim.NewRG(), Horizon: 200_000_000}, false)
	add("overflow-ds", long, sim.Config{Protocol: sim.NewDS(), Horizon: 200_000_000}, false)

	// Sporadic first releases: PM violates precedence, the others do not.
	if b, ok := pmBoundsOf(t, ex2); ok {
		add("sporadic-pm", ex2, sim.Config{Protocol: sim.NewPM(b), Horizon: 90, FirstReleaseDelay: sporadicDelay}, true)
		add("sporadic-mpm", ex2, sim.Config{Protocol: sim.NewMPM(b), Horizon: 90, FirstReleaseDelay: sporadicDelay}, true)
	}
	add("sporadic-ds", ex2, sim.Config{Protocol: sim.NewDS(), Horizon: 90, FirstReleaseDelay: sporadicDelay}, true)
	add("sporadic-rg", ex2, sim.Config{Protocol: sim.NewRG(), Horizon: 90, FirstReleaseDelay: sporadicDelay}, true)

	// Execution-time variation + retained EER samples.
	add("execvar-ds", ex2, sim.Config{Protocol: sim.NewDS(), Horizon: 90, ExecTime: shortExec, CollectSamples: true}, true)
	add("execvar-rg", ex2, sim.Config{Protocol: sim.NewRG(), Horizon: 90, ExecTime: shortExec, CollectSamples: true}, true)

	// Seeded random systems across the paper's configuration range, under
	// all four protocols × both schedulers. Kept modest (3 processors, 6
	// tasks, 3 horizon periods) so the whole suite stays fast.
	for i := 0; i < 10; i++ {
		cfg := workload.DefaultConfig(2+i%4, []float64{0.5, 0.7, 0.9}[i%3])
		cfg.Processors = 3
		cfg.Tasks = 6
		cfg.TickScale = 100
		cfg.Seed = int64(1000 + i)
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("generate random system %d: %v", i, err)
		}
		horizon := model.Time(int64(sys.MaxPeriod()) * 3)
		protoSet(fmt.Sprintf("random%d-fp", i), sys, sim.FixedPriority, horizon, false)
		protoSet(fmt.Sprintf("random%d-edf", i), withLocalDeadlines(t, sys), sim.EDF, horizon, false)
	}
	return cases
}

const goldenIndex = "testdata/golden.json"

// TestGoldenFixtures replays every case and compares digests against the
// checked-in fixtures (hash for all cases, full text for the small ones).
func TestGoldenFixtures(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		if c.skip != "" {
			got[c.name] = "skip: " + c.skip
			continue
		}
		out, err := sim.Run(c.sys, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := digest(c.sys, out)
		sum := sha256.Sum256([]byte(d))
		got[c.name] = hex.EncodeToString(sum[:])
		if c.fullDump {
			path := filepath.Join("testdata", "golden", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(d), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s: missing fixture (run with -update-golden): %v", c.name, err)
				}
				if !bytes.Equal(want, []byte(d)) {
					t.Errorf("%s: trace/metrics digest differs from fixture %s:\n%s",
						c.name, path, diffHint(string(want), d))
				}
			}
		}
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenIndex, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(got), goldenIndex)
		return
	}

	blob, err := os.ReadFile(goldenIndex)
	if err != nil {
		t.Fatalf("missing %s (run with -update-golden): %v", goldenIndex, err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenIndex, err)
	}
	var names []string
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if g, ok := got[n]; !ok {
			t.Errorf("fixture %s: case no longer produced", n)
		} else if g != want[n] {
			t.Errorf("fixture %s: digest %s, want %s", n, g, want[n])
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("case %s has no fixture (run with -update-golden)", n)
		}
	}
}

// diffHint returns the first differing line of two digests, keeping failure
// output readable for the big ones.
func diffHint(want, got string) string {
	wl := bytes.Split([]byte(want), []byte("\n"))
	gl := bytes.Split([]byte(got), []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}
