package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rtsync/internal/record"
	"rtsync/internal/workload"
)

// lineSink keeps every record it is handed as its canonical JSONL line.
type lineSink struct{ lines [][]byte }

func (s *lineSink) Write(r *record.CellRecord) error {
	s.lines = append(s.lines, r.AppendLine(nil))
	return nil
}

// fillWindowUnit refills rec as unit g of a synthetic fig13 stream. The
// observation count varies with g, and every other unit carries a timing
// section backed by *timing, so a slot that aliased the depositor's record
// instead of copying it would show up in the sink's bytes.
func fillWindowUnit(rec *record.CellRecord, timing *record.Timing, g int64) {
	cfg := workload.DefaultConfig(2+int(g%3), 0.5+0.1*float64(g%5))
	cfg.Seed = g
	rec.Reset("fig13", cfg)
	rec.Unit = g
	rec.AddVerdict("ds", g%4 != 0)
	rec.AddTally("total", 1)
	for i := int64(0); i <= g%4; i++ {
		rec.AddObs("ratio", 1+float64(g*7+i)/13)
	}
	if g%2 == 0 {
		*timing = record.Timing{GenNS: g, AnaNS: 2 * g, SimNS: 3 * g}
		rec.Timing = timing
	}
}

// completionOrder returns a seeded shuffle of units 0..n-1 in which every
// unit completes less than a whole window of the given size ahead of the
// oldest unit not yet completed, so no deposit in that order blocks.
func completionOrder(rng *rand.Rand, n, window int) []int64 {
	done := make([]bool, n)
	order := make([]int64, 0, n)
	oldest := 0
	var ready []int
	for len(order) < n {
		ready = ready[:0]
		for g := oldest; g < n && g < oldest+window; g++ {
			if !done[g] {
				ready = append(ready, g)
			}
		}
		g := ready[rng.Intn(len(ready))]
		done[g] = true
		order = append(order, int64(g))
		for oldest < n && done[oldest] {
			oldest++
		}
	}
	return order
}

// TestCommitWindowOrder drives a 3-slot commit window directly. Four
// goroutines deposit 200 units, some of them failed, in a seeded shuffled
// completion order; each goroutine refills one retained record per unit,
// as sweep workers do, and starts refilling it as soon as a deposit
// returns. The sink must receive every record in unit order, the view must
// equal a sequential Apply, and the window's error must be the
// lowest-numbered failed unit's. A subtest checks that a depositor a whole
// window ahead stays blocked until the frontier reaches it.
func TestCommitWindowOrder(t *testing.T) {
	const (
		units    = 200
		slots    = 3
		writers  = 4
		failRate = 10
	)
	rng := rand.New(rand.NewSource(20260417))
	failed := make([]bool, units)
	for g := range failed {
		failed[g] = rng.Intn(failRate) == 0
	}
	unitErr := func(g int64) error { return fmt.Errorf("unit %d failed", g) }

	want := NewBoundRatioResult()
	var wantLines [][]byte
	var wantErr error
	var rec record.CellRecord
	var timing record.Timing
	for g := int64(0); g < units; g++ {
		if failed[g] {
			if wantErr == nil {
				wantErr = unitErr(g)
			}
			continue
		}
		fillWindowUnit(&rec, &timing, g)
		if err := want.Apply(&rec); err != nil {
			t.Fatal(err)
		}
		wantLines = append(wantLines, rec.AppendLine(nil))
	}
	if wantErr == nil {
		t.Fatal("seed drew no failed unit")
	}

	got := NewBoundRatioResult()
	sink := &lineSink{}
	win := newCommitWindow(slots, got, sink)
	// Deposit i of the completion order belongs to goroutine i%writers and
	// starts once deposit i-1 has returned, so the seeded order is exactly
	// the order the window sees while deposits hop between goroutines.
	order := completionOrder(rng, units, slots)
	var (
		turnMu sync.Mutex
		turnCV = sync.NewCond(&turnMu)
		turn   int
		wg     sync.WaitGroup
	)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var rec record.CellRecord
			var timing record.Timing
			for i := wi; i < units; i += writers {
				turnMu.Lock()
				for turn != i {
					turnCV.Wait()
				}
				turnMu.Unlock()
				g := order[i]
				if failed[g] {
					win.deposit(g, &rec, unitErr(g), nil)
				} else {
					fillWindowUnit(&rec, &timing, g)
					win.deposit(g, &rec, nil, nil)
				}
				// Start the next unit at once, as a sweep worker does: a
				// window that kept pointers into rec would commit this.
				fillWindowUnit(&rec, &timing, g+units)
				turnMu.Lock()
				turn++
				turnCV.Broadcast()
				turnMu.Unlock()
			}
		}(wi)
	}
	wg.Wait()

	if win.next != units {
		t.Fatalf("window committed %d of %d units", win.next, units)
	}
	if len(sink.lines) != len(wantLines) {
		t.Fatalf("sink received %d records, want %d", len(sink.lines), len(wantLines))
	}
	for i := range wantLines {
		if !bytes.Equal(sink.lines[i], wantLines[i]) {
			t.Fatalf("sink record %d:\n got %s\nwant %s", i, sink.lines[i], wantLines[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("view differs from a sequential Apply in unit order")
	}
	if win.err == nil || win.err.Error() != wantErr.Error() {
		t.Errorf("window error = %v, want %v", win.err, wantErr)
	}

	t.Run("full-window-blocks", func(t *testing.T) {
		sink := &lineSink{}
		win := newCommitWindow(slots, NewBoundRatioResult(), sink)
		var recs [slots + 1]record.CellRecord
		var timings [slots + 1]record.Timing
		for g := range recs {
			fillWindowUnit(&recs[g], &timings[g], int64(g))
		}
		win.deposit(2, &recs[2], nil, nil)
		win.deposit(1, &recs[1], nil, nil)
		done := make(chan struct{})
		go func() {
			defer close(done)
			win.deposit(slots, &recs[slots], nil, nil)
		}()
		// Wait until unit 3, a whole window ahead of unit 0, is parked.
		for {
			win.mu.Lock()
			parked := win.waiting
			win.mu.Unlock()
			if parked == 1 {
				break
			}
			select {
			case <-done:
				t.Fatal("a unit a whole window ahead of the frontier was deposited")
			default:
			}
			runtime.Gosched()
		}
		if len(sink.lines) != 0 {
			t.Fatalf("%d records committed before the frontier unit arrived", len(sink.lines))
		}
		win.deposit(0, &recs[0], nil, nil)
		<-done
		if len(sink.lines) != slots+1 {
			t.Fatalf("sink received %d records, want %d", len(sink.lines), slots+1)
		}
		for g := range recs {
			if want := recs[g].AppendLine(nil); !bytes.Equal(sink.lines[g], want) {
				t.Errorf("sink record %d:\n got %s\nwant %s", g, sink.lines[g], want)
			}
		}
	})
}
