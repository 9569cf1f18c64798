package main

import (
	"reflect"
	"strings"
	"testing"
)

// countOutput is go test -benchmem -count output: three runs of a plain
// benchmark, four of one reporting ns/event, two of one reporting ns/term,
// with a -P suffix on some lines and noise lines between them. No
// benchmark's largest B/op or allocs/op comes last.
const countOutput = `goos: linux
BenchmarkAnalyzeDS-2   	      10	   4400000 ns/op	  147232 B/op	      87 allocs/op
BenchmarkEngineEvents  	      10	   1000000 ns/op	     150.0 ns/event	   13448 B/op	      36 allocs/op
BenchmarkAnalyzeDS-2   	      10	   4600000 ns/op	  147240 B/op	      88 allocs/op
BenchmarkEngineEvents  	      10	   1200000 ns/op	     210.0 ns/event	   13448 B/op	      37 allocs/op
BenchmarkDemand-2      	      10	     40000 ns/op	       4.8 ns/term	       0 B/op	       0 allocs/op
PASS
BenchmarkAnalyzeDS-2   	      10	   4300000 ns/op	  147232 B/op	      87 allocs/op
BenchmarkEngineEvents  	      10	   1100000 ns/op	     190.0 ns/event	   13500 B/op	      36 allocs/op
BenchmarkEngineEvents  	      10	    900000 ns/op	     160.0 ns/event	   13448 B/op	      36 allocs/op
BenchmarkDemand-2      	      10	     42000 ns/op	       5.2 ns/term	       0 B/op	       0 allocs/op
ok  	rtsync/internal/analysis	1.2s
`

func TestFoldCount(t *testing.T) {
	runs := map[string][]measurement{}
	parse(countOutput, runs)
	if n := len(runs["BenchmarkEngineEvents"]); n != 4 {
		t.Fatalf("parsed %d BenchmarkEngineEvents lines, want 4", n)
	}
	got := fold(runs)
	want := map[string]measurement{
		// Odd count: the middle value; the largest allocs/op.
		"BenchmarkAnalyzeDS": {NsOp: 4400000, BOp: 147240, AllocsOp: 88},
		// Even count: the mean of the middle two, for ns/op and ns/event.
		"BenchmarkEngineEvents": {NsOp: 1050000, NsEvent: 175, BOp: 13500, AllocsOp: 37},
		"BenchmarkDemand":       {NsOp: 41000, NsTerm: 5, BOp: 0, AllocsOp: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold:\n got %+v\nwant %+v", got, want)
	}
}

func TestFoldSingleRun(t *testing.T) {
	runs := map[string][]measurement{}
	parse("BenchmarkSweep-8   10   52000000 ns/op   168000 B/op   497 allocs/op\n", runs)
	want := map[string]measurement{"BenchmarkSweep": {NsOp: 52000000, BOp: 168000, AllocsOp: 497}}
	if got := fold(runs); !reflect.DeepEqual(got, want) {
		t.Errorf("fold of one run = %+v, want %+v", got, want)
	}
}

// TestMissingBaselines keeps the loud failure for a baseline whose
// benchmark the run no longer produces, whatever -count folded.
func TestMissingBaselines(t *testing.T) {
	runs := map[string][]measurement{}
	parse(countOutput, runs)
	traj := &trajectory{
		Before: map[string]measurement{"BenchmarkAnalyzeRemoved": {}, "BenchmarkSweep": {}},
		After:  map[string]measurement{"BenchmarkAnalyzeDS": {}, "BenchmarkEngineEvents/sub": {}},
	}
	got := missingBaselines(traj, fold(runs), "BenchmarkAnalyze|BenchmarkEngine|BenchmarkDemand")
	want := []string{"BenchmarkAnalyzeRemoved", "BenchmarkEngineEvents/sub"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("missingBaselines = %v, want %v (BenchmarkSweep is outside the -bench pattern)", got, want)
	}
}
