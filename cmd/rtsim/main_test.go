package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rtsync/internal/model"
	"rtsync/internal/sim"
)

func TestRunAllProtocolsOnExample2(t *testing.T) {
	for _, proto := range []string{"ds", "pm", "mpm", "rg", "rg1"} {
		var buf bytes.Buffer
		err := run([]string{"-protocol", proto, "-example", "2", "-horizon", "60"}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		out := buf.String()
		if !strings.Contains(out, "trace validation passed") {
			t.Errorf("%s: validation missing:\n%s", proto, out)
		}
		if !strings.Contains(out, "per-task end-to-end response times") {
			t.Errorf("%s: metrics table missing", proto)
		}
	}
}

func TestRunGantt(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-protocol", "rg", "-example", "2", "-horizon", "30",
		"-gantt", "-gantt-to", "12"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "P2: ") {
		t.Errorf("gantt missing:\n%s", out)
	}
}

func TestRunDefaultHorizon(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "ds", "-example", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	// Default horizon = 20x max period (10) = 200.
	if !strings.Contains(buf.String(), "horizon 200") {
		t.Errorf("default horizon wrong:\n%s", buf.String())
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sys.json")
	if err := model.Example1().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "rg", path}, &buf); err != nil {
		t.Fatal(err)
	}
}

// globalFile writes a two-task global-resource system to a temp file.
func globalFile(t *testing.T) string {
	t.Helper()
	b := model.NewBuilder()
	p1 := b.AddProcessor("P1")
	p2 := b.AddProcessor("P2")
	g := b.AddGlobalResource("g", p2)
	b.AddTask("T1", 100, 0).Subtask(p1, 10, 1).Critical(2, 4, g).Done()
	b.AddTask("T2", 100, 0).Subtask(p2, 10, 1).Critical(1, 4, g).Done()
	path := filepath.Join(t.TempDir(), "global.json")
	if err := b.MustBuild().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunLockingProtocols(t *testing.T) {
	path := globalFile(t)
	for _, kind := range []string{"mpcp", "dpcp"} {
		var buf bytes.Buffer
		err := run([]string{"-protocol", "ds", "-locking", kind, "-horizon", "200", path}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.Contains(buf.String(), "trace validation passed") {
			t.Errorf("%s: validation missing:\n%s", kind, buf.String())
		}
	}
	// Default HL rejects global resources.
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "ds", "-horizon", "200", path}, &buf); err == nil {
		t.Error("global resources under default -locking hl should fail")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                    // no input
		{"-example", "7"},                     // bad example
		{"-protocol", "edf", "-example", "2"}, // unknown protocol
		{"/missing.json"},                     // missing file
		{"-locking", "pip", "-example", "2"},  // unknown locking kind
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestBuildProtocolPMRequiresFiniteBounds(t *testing.T) {
	// Over-utilized system: SA/PM bounds are infinite, so PM/MPM must be
	// refused.
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	q := b.AddProcessor("Q")
	b.AddTask("A", 10, 0).Subtask(p, 6, 2).Subtask(q, 1, 1).Done()
	b.AddTask("B", 10, 0).Subtask(p, 6, 1).Subtask(q, 1, 2).Done()
	sys := b.MustBuild()
	if _, err := buildProtocol("pm", sys); err == nil {
		t.Error("pm on over-utilized system should fail")
	}
	if _, err := buildProtocol("mpm", sys); err == nil {
		t.Error("mpm on over-utilized system should fail")
	}
	if _, err := buildProtocol("rg", sys); err != nil {
		t.Errorf("rg needs no bounds: %v", err)
	}
}

func TestRunComparisonMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "all", "-example", "2", "-horizon", "120"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"protocol comparison", "DS", "RG", "RG1", "PM", "MPM", "p95 EER"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestRunComparisonSkipsUnrunnable(t *testing.T) {
	// Over-utilized system: PM/MPM are skipped, DS/RG still run.
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	q := b.AddProcessor("Q")
	b.AddTask("A", 10, 0).Subtask(p, 6, 2).Subtask(q, 1, 1).Done()
	b.AddTask("B", 10, 0).Subtask(p, 6, 1).Subtask(q, 1, 2).Done()
	path := filepath.Join(t.TempDir(), "sys.json")
	if err := b.MustBuild().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "all", "-horizon", "100", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "skipping pm") {
		t.Errorf("expected pm to be skipped:\n%s", out)
	}
	if !strings.Contains(out, "DS") {
		t.Errorf("DS should still run:\n%s", out)
	}
}

func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "rg", "-example", "2", "-horizon", "30", "-trace-out", path}, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := sim.LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Segments) == 0 {
		t.Error("saved trace has no segments")
	}
}
