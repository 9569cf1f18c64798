package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// binDir holds rtexperiments and rtsyncd, built once for every test.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "rtsync/cmd/rtexperiments", "rtsync/cmd/rtsyncd").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "build programs under test: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyBench(t *testing.T, workload string, seed int64) *bench {
	t.Helper()
	b := &bench{root: "..", bin: binDir, workload: workload, seed: seed, seconds: 0.5, sz: tinySizes}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(b.work) })
	return b
}

// declared reads BENCHMARK.json's metric list of the given kind as
// name → unit.
func declared(t *testing.T, kind string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[kind], &metrics); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range metrics {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSmokeEmitsDeclaredMetrics runs every workload at the tiny size, both
// end to end and traced, and checks the result line carries exactly the
// metrics BENCHMARK.json declares, each with its unit, and a passing
// output check.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	for _, kind := range []string{"end_to_end", "per_layer"} {
		want := declared(t, kind)
		for _, wl := range []string{wlAnalysis, wlSim, wlAdmission} {
			t.Run(wl+"/"+kind, func(t *testing.T) {
				b := tinyBench(t, wl, 7)
				var out bytes.Buffer
				if err := b.report(&out, kind == "per_layer"); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !strings.HasPrefix(lines[0], "fingerprint {") {
					t.Errorf("first line %q is not the fingerprint", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics = %v\nBENCHMARK.json declares %v", got, want)
				}
			})
		}
	}
}

// TestSeedDeterminism checks that one seed yields identical inputs and
// output digests twice, and another seed different ones.
func TestSeedDeterminism(t *testing.T) {
	a1, err := genAdmission(11, 60)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := genAdmission(11, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("admission inputs differ for the same seed")
	}
	a3, err := genAdmission(12, 60)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1.sys, a3.sys) {
		t.Error("admission topology identical for different seeds")
	}

	b := tinyBench(t, wlAnalysis, 11)
	s := b.sweepStudies()[0]
	r1, err := b.sweepCLI(s, subSeed(11, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.sweepCLI(s, subSeed(11, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	if r1.problem != "" || r1.digests != r2.digests {
		t.Errorf("sweep digests differ for the same seed: %+v vs %+v (%s)", r1.digests, r2.digests, r1.problem)
	}
	r3, err := b.sweepCLI(s, subSeed(12, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	if r3.digests == r1.digests {
		t.Error("sweep digests identical for different seeds")
	}
}
