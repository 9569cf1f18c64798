package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenTracer builds a fully deterministic pipeline trace: spans and
// counter samples with literal nanosecond values, two worker arenas, a
// label table, and every argument combination the encoder emits (cell,
// unit, unlabeled).
func goldenTracer() *PipelineTracer {
	tr := NewPipelineTracer()
	base := tr.RegisterLabels([]string{"(3,50)", "(5,70)"})

	a0 := tr.Arena(0)
	a0.Record(SpanWorker, 0, 10_000_000, -1, -1)
	a0.Record(SpanUnit, 1_000_000, 3_500_000, base, 0)
	a0.Record(SpanGenerate, 1_000_000, 1_200_000, base, 0)
	a0.Record(SpanAnalyze, 1_200_000, 1_700_000, base, 0)
	a0.Record(SpanSimulate, 1_700_000, 3_000_000, base, 0)
	a0.Record(SpanRun, 1_750_000, 2_300_000, base, 0)
	a0.Record(SpanCommit, 3_100_000, 3_400_000, base, 0)
	a0.Record(SpanTurnstileWait, 3_000_000, 3_100_000, base, 0)

	a1 := tr.Arena(1)
	a1.Record(SpanWorker, 500, 9_000_000, -1, -1)

	tr.samples = append(tr.samples,
		counterSample{ts: 2_000_000, unitsDone: 1, rate: 125.5, schedFrac: 1},
		counterSample{ts: 4_000_000, unitsDone: 4, rate: 250, schedFrac: 0.75},
	)
	return tr
}

// TestPerfettoGolden pins the encoder byte for byte: event order, key
// order, microsecond rendering, argument emission, and counter formatting
// must all stay stable so committed traces diff cleanly across versions.
// Regenerate with -update-golden after an intentional format change.
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create the fixture)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Perfetto output differs from golden fixture:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestPerfettoParses loads the export back through encoding/json and checks
// the structural invariants Perfetto needs: a traceEvents array, metadata
// naming both worker tracks, and slices sorted so parents precede children
// on each track.
func TestPerfettoParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Name string          `json:"name"`
			TS   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var meta, slices, counters int
	lastStart := map[int]float64{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if e.TS < lastStart[e.Tid] {
				t.Errorf("tid %d slice %q at ts %v emitted after a later start %v",
					e.Tid, e.Name, e.TS, lastStart[e.Tid])
			}
			lastStart[e.Tid] = e.TS
		case "C":
			counters++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 3 { // process_name + two worker thread_names
		t.Errorf("%d metadata events, want 3", meta)
	}
	if slices != 9 {
		t.Errorf("%d slices, want 9", slices)
	}
	if counters != 6 { // 2 samples x 3 series
		t.Errorf("%d counter events, want 6", counters)
	}
}

// TestMicros pins the exact-microsecond rendering, including negatives and
// sub-microsecond remainders.
func TestMicros(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := micros(c.ns); got != c.want {
			t.Errorf("micros(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}
