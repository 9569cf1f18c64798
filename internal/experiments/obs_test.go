package experiments

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtsync/internal/obs"
)

// TestSweepObservabilityDeterminism pins the tentpole's no-perturbation
// guarantee: attaching live telemetry (Progress + Stats) to a parallel
// sweep leaves every figure bit-identical — the telemetry writes only
// worker-private shards and shared atomics, never the committed result
// state.
func TestSweepObservabilityDeterminism(t *testing.T) {
	base := benchSweepParams()
	base.SystemsPerConfig = 6
	base.Parallelism = 4

	plainAvg, err := AvgEERStudy(base)
	if err != nil {
		t.Fatalf("plain AvgEERStudy: %v", err)
	}
	plainF12, err := Fig12FailureRate(base)
	if err != nil {
		t.Fatalf("plain Fig12FailureRate: %v", err)
	}
	plainF13, err := Fig13BoundRatio(base)
	if err != nil {
		t.Fatalf("plain Fig13BoundRatio: %v", err)
	}

	obsP := base
	obsP.Progress = obs.NewSweepProgress()
	obsP.Stats = obs.NewSimStats()
	stop := obsP.Progress.StartReporter(io.Discard, time.Millisecond)
	defer stop()

	obsAvg, err := AvgEERStudy(obsP)
	if err != nil {
		t.Fatalf("observed AvgEERStudy: %v", err)
	}
	obsF12, err := Fig12FailureRate(obsP)
	if err != nil {
		t.Fatalf("observed Fig12FailureRate: %v", err)
	}
	obsF13, err := Fig13BoundRatio(obsP)
	if err != nil {
		t.Fatalf("observed Fig13BoundRatio: %v", err)
	}

	if !reflect.DeepEqual(plainAvg, obsAvg) {
		t.Error("AvgEERStudy output changed with telemetry attached")
	}
	if !reflect.DeepEqual(plainF12, obsF12) {
		t.Error("Fig12FailureRate output changed with telemetry attached")
	}
	if !reflect.DeepEqual(plainF13, obsF13) {
		t.Error("Fig13BoundRatio output changed with telemetry attached")
	}

	// The telemetry itself must have seen the whole sweep: three sweeps of
	// 2 configs x 6 systems each.
	snap := obsP.Progress.Snapshot()
	wantUnits := int64(3 * 2 * base.SystemsPerConfig)
	if snap.UnitsDone != wantUnits || snap.UnitsTotal != wantUnits {
		t.Errorf("progress saw %d/%d units, want %d/%d",
			snap.UnitsDone, snap.UnitsTotal, wantUnits, wantUnits)
	}
	// Fig12 and Fig13 tally every analyzed system; AvgEERStudy tallies
	// every system (schedulable or skipped).
	if got := snap.Schedulable + snap.Unschedulable; got < wantUnits {
		t.Errorf("schedulability tallies cover %d systems, want >= %d", got, wantUnits)
	}
	if len(snap.Cells) != len(base.Configs) {
		t.Errorf("per-cell stats cover %d cells, want %d", len(snap.Cells), len(base.Configs))
	}
	if obsP.Stats.Runs() == 0 {
		t.Error("sim stats attached but no engine runs counted")
	}
	if !strings.Contains(snap.Line(), "units") {
		t.Errorf("status line malformed: %q", snap.Line())
	}
}
