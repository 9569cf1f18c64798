package sim

import (
	"math/rand"
	"testing"

	"rtsync/internal/model"
)

// benchDeltas pre-generates the push offsets for the event-queue benchmark:
// three in four are short dispatch-scale gaps, the rest period-scale jumps.
// Pre-generated so the RNG stays out of the measured loop.
func benchDeltas(n int) []model.Duration {
	rng := rand.New(rand.NewSource(42))
	out := make([]model.Duration, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = model.Duration(1000 + rng.Intn(100000)) // period scale
		} else {
			out[i] = model.Duration(rng.Intn(200)) // dispatch scale
		}
	}
	return out
}

// BenchmarkEventQueuePushPop measures the classic hold model — pop the
// minimum, push a successor — on the event heap at a steady occupancy of 32
// events. It prices the queue structure, not the engine's traffic: the heap
// holds only timers and releases, and tentative completions live in
// per-processor slots (BenchmarkEngineEvents measures the whole loop).
func BenchmarkEventQueuePushPop(b *testing.B) {
	const hold = 32
	deltas := benchDeltas(1024)
	b.Run("heap", func(b *testing.B) {
		var q eventHeap
		var seq int64
		for i := 0; i < hold; i++ {
			seq++
			q.push(event{at: model.Time(i), kind: int8(i % (kindRelease + 1)), seq: seq})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := q.pop()
			seq++
			ev.at = ev.at.Add(deltas[i&1023])
			ev.seq = seq
			q.push(ev)
		}
	})
}

// dispatchBacklog fills a steady backlog of 24 jobs over 8 priority levels
// for BenchmarkReadyQueueDispatch.
func dispatchBacklog(push func(*Job)) {
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{
			ID:       model.SubtaskID{Task: i % 6, Sub: i / 6},
			base:     model.Priority(1 + i%8),
			eff:      model.Priority(1 + i%8),
			deadline: model.TimeInfinity,
		}
		push(&jobs[i])
	}
}

// BenchmarkReadyQueueDispatch measures the dispatch cycle — pop the most
// urgent job, requeue it as its next instance — at a steady backlog of 24
// jobs over 8 priority levels: the bitmap lanes against the heap.
func BenchmarkReadyQueueDispatch(b *testing.B) {
	b.Run("heap", func(b *testing.B) {
		var q readyHeap
		q.reset(false)
		dispatchBacklog(q.push)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := q.pop()
			j.Instance++
			q.push(j)
		}
	})
	b.Run("bitmap", func(b *testing.B) {
		var q priorityLanes
		q.reset(8)
		dispatchBacklog(q.push)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := q.pop()
			j.Instance++
			q.push(j)
		}
	})
}
