package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestManifestGolden pins the manifest JSON schema: a fully populated
// manifest with every volatile field (times, toolchain, VCS identity,
// output path) normalized must match testdata/manifest.golden.json byte
// for byte. Regenerate with go test ./internal/obs -run Golden -update-golden.
func TestManifestGolden(t *testing.T) {
	fs := flag.NewFlagSet("rtexperiments", flag.ContinueOnError)
	fs.Int("systems", 50, "")
	fs.Int64("seed", 1, "")
	fs.String("csv", "", "")
	if err := fs.Parse([]string{"-seed", "7", "-csv", "results/out", "extra.json"}); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("rtexperiments", fs)

	out := filepath.Join(t.TempDir(), "out-fig12.csv")
	if err := os.WriteFile(out, []byte("n,u,value\n3,0.5,1.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.AddOutput(out)
	m.AddOutput(filepath.Join(t.TempDir(), "missing.csv"))

	st := NewSimStats()
	st.CountEvent(0)
	st.CountEvent(2)
	st.NotePreemption()
	st.NoteContextSwitch()
	st.NoteRGStall(6)
	st.ObserveQueueDepth(12)
	st.AddIdle(0, 40)
	st.NoteLockAcquisition()
	st.NotePriorityBoost()
	st.NoteLockSuspension(9)
	st.NoteRun()
	sim := st.Snapshot()
	m.Sim = &sim

	m.Sweep = &SweepSnapshot{
		UnitsDone: 10, UnitsTotal: 10,
		Schedulable: 9, Unschedulable: 1,
		ElapsedSec: 2.5, SystemsPerSec: 4,
		Cells: []CellStat{{Cell: "(3,50)", Units: 10, WallSec: 2, SystemsPerSec: 5}},
	}

	// Normalize everything that varies per run or machine.
	m.GoVersion = "go1.0-test"
	m.VCSRevision = "deadbeef"
	m.VCSTime = "2026-01-02T03:04:05Z"
	m.VCSModified = false
	m.Start = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	m.End = m.Start.Add(90 * time.Second)
	m.DurationSec = 90
	m.Outputs[0].Path = "out-fig12.csv"
	m.Outputs[1].Path = "missing.csv"
	m.Outputs[1].SHA256 = "error: open missing.csv: no such file or directory"

	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "manifest.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("manifest JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestManifestWriteFile round-trips a manifest through disk and verifies the
// output checksum against an independent digest.
func TestManifestWriteFile(t *testing.T) {
	dir := t.TempDir()
	data := []byte("hello manifest\n")
	out := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := NewManifest("rtsim", nil)
	m.AddOutput(out)
	m.Finish()
	path := filepath.Join(dir, "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back Manifest
	if err := json.NewDecoder(f).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}

	if back.Tool != "rtsim" || back.GoVersion == "" {
		t.Errorf("round-trip lost identity: %+v", back)
	}
	if back.End.Before(back.Start) || back.DurationSec < 0 {
		t.Errorf("times inverted: start %v end %v", back.Start, back.End)
	}
	sum := sha256.Sum256(data)
	if len(back.Outputs) != 1 ||
		back.Outputs[0].SHA256 != hex.EncodeToString(sum[:]) ||
		back.Outputs[0].Bytes != int64(len(data)) {
		t.Errorf("output record %+v does not match independent digest", back.Outputs)
	}
}
