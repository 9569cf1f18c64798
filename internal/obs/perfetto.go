package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// PerfettoWriter emits Chrome trace-event JSON ("JSON Array Format" with a
// traceEvents wrapper), the format ui.perfetto.dev and chrome://tracing
// load directly. It is hand-rolled — no encoding/json — so the output is
// deterministic byte for byte: events appear exactly in emission order,
// keys in fixed order, timestamps as exact microsecond decimals.
//
// The format in brief: each event has a phase ("X" complete slice with
// ts+dur, "i" instant, "C" counter, "M" metadata), a pid/tid placing it on
// a track, and timestamps in floating-point microseconds. Slices on one
// tid must nest like a call stack; separate tracks use separate tids.
type PerfettoWriter struct {
	w     *bufio.Writer
	err   error
	first bool
}

// NewPerfettoWriter starts the traceEvents array on w.
func NewPerfettoWriter(w io.Writer) *PerfettoWriter {
	pw := &PerfettoWriter{w: bufio.NewWriter(w), first: true}
	pw.raw(`{"traceEvents":[`)
	return pw
}

// Close terminates the JSON document and flushes. Returns the first error
// encountered by any emission.
func (p *PerfettoWriter) Close() error {
	p.raw("\n]}\n")
	if p.err == nil {
		p.err = p.w.Flush()
	}
	return p.err
}

func (p *PerfettoWriter) raw(s string) {
	if p.err != nil {
		return
	}
	_, p.err = p.w.WriteString(s)
}

// begin opens one event object, handling the comma/newline separator.
func (p *PerfettoWriter) begin() {
	if p.first {
		p.raw("\n")
		p.first = false
	} else {
		p.raw(",\n")
	}
}

// micros renders ns as exact microseconds with millinanosecond precision
// ("1234.567"), avoiding float formatting entirely.
func micros(ns int64) string {
	neg := ""
	if ns < 0 {
		neg = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// quote writes a JSON string literal. Labels here are controlled
// identifiers (cell keys, phase names), but escape defensively anyway.
func quote(s string) string { return strconv.Quote(s) }

// ProcessName emits metadata naming a pid's track group.
func (p *PerfettoWriter) ProcessName(pid int, name string) {
	p.begin()
	p.raw(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`, pid, quote(name)))
}

// ThreadName emits metadata naming one (pid, tid) track.
func (p *PerfettoWriter) ThreadName(pid, tid int, name string) {
	p.begin()
	p.raw(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, pid, tid, quote(name)))
}

// Slice emits one complete ("X") slice of durNS on (pid, tid) starting at
// tsNS. args is emitted in the given order; pass nil for none.
func (p *PerfettoWriter) Slice(pid, tid int, name string, tsNS, durNS int64, args []PerfettoArg) {
	p.begin()
	p.raw(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"ts":%s,"dur":%s`,
		pid, tid, quote(name), micros(tsNS), micros(durNS)))
	p.args(args)
	p.raw("}")
}

// Instant emits a thread-scoped instant ("i") event at tsNS.
func (p *PerfettoWriter) Instant(pid, tid int, name string, tsNS int64, args []PerfettoArg) {
	p.begin()
	p.raw(fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"name":%s,"ts":%s,"s":"t"`,
		pid, tid, quote(name), micros(tsNS)))
	p.args(args)
	p.raw("}")
}

// Counter emits a counter ("C") sample: Perfetto renders one filled track
// per series name. Values format via strconv.FormatFloat 'g' -1, which is
// deterministic and round-trips exactly.
func (p *PerfettoWriter) Counter(pid int, name string, tsNS int64, series string, value float64) {
	p.begin()
	p.raw(fmt.Sprintf(`{"ph":"C","pid":%d,"name":%s,"ts":%s,"args":{%s:%s}}`,
		pid, quote(name), micros(tsNS), quote(series), strconv.FormatFloat(value, 'g', -1, 64)))
}

// PerfettoArg is one slice argument (shown in Perfetto's detail pane).
type PerfettoArg struct {
	Key string
	Str string // used when IsNum is false
	Num int64
	// IsNum selects numeric rendering.
	IsNum bool
}

func (p *PerfettoWriter) args(args []PerfettoArg) {
	if len(args) == 0 {
		return
	}
	p.raw(`,"args":{`)
	for i, a := range args {
		if i > 0 {
			p.raw(",")
		}
		p.raw(quote(a.Key))
		p.raw(":")
		if a.IsNum {
			p.raw(strconv.FormatInt(a.Num, 10))
		} else {
			p.raw(quote(a.Str))
		}
	}
	p.raw("}")
}

// Pipeline trace layout: a single "rtsync pipeline" process (pid 1) with
// one thread track per worker arena (tid = worker+1), plus counter tracks
// sampled from SweepProgress.
const pipelinePID = 1

// WritePerfetto exports every recorded span and counter sample as Chrome
// trace-event JSON. Spans within one arena are emitted in start order
// (stable-sorted; ties keep record order with longer spans first so
// parents precede children), which both Perfetto and the nesting validator
// require. Call after the sweep drains.
func (t *PipelineTracer) WritePerfetto(w io.Writer) error {
	t.mu.Lock()
	arenas := t.arenas
	labels := t.labels
	samples := t.samples
	t.mu.Unlock()

	pw := NewPerfettoWriter(w)
	pw.ProcessName(pipelinePID, "rtsync pipeline")
	for wi := range arenas {
		pw.ThreadName(pipelinePID, wi+1, fmt.Sprintf("worker %d", wi))
	}
	for wi, a := range arenas {
		spans := make([]spanRec, len(a.spans))
		copy(spans, a.spans)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].dur > spans[j].dur
		})
		for i := range spans {
			r := &spans[i]
			var args []PerfettoArg
			if r.label >= 0 && int(r.label) < len(labels) {
				args = append(args, PerfettoArg{Key: "cell", Str: labels[r.label]})
			}
			if r.unit >= 0 {
				args = append(args, PerfettoArg{Key: "unit", Num: r.unit, IsNum: true})
			}
			pw.Slice(pipelinePID, wi+1, r.phase.String(), r.start, r.dur, args)
		}
	}
	for _, c := range samples {
		pw.Counter(pipelinePID, "units/sec", c.ts, "rate", c.rate)
		pw.Counter(pipelinePID, "schedulable fraction", c.ts, "frac", c.schedFrac)
		pw.Counter(pipelinePID, "units done", c.ts, "done", float64(c.unitsDone))
	}
	return pw.Close()
}
