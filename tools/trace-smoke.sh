#!/bin/sh
# trace-smoke.sh — prove the observability layer works end to end and is
# invisible in the results:
#
#   1. zero-perturbation: a miniature sweep with -trace-pipeline produces
#      byte-identical stdout and JSONL store vs the untraced run, at
#      GOMAXPROCS 1, 4 and the host default
#   2. trace validity: the emitted file is Chrome trace-event JSON whose
#      slices nest per (pid, tid) track (tracecheck -trace)
#   3. manifest: a traced -manifest run embeds a span summary
#   4. schedule export: rttrace -perfetto renders a saved schedule trace
#   5. /metrics: a sweep with -debug-addr serves Prometheus text exposition
#      that passes syntax validation (tracecheck -metrics)
#
# Run from anywhere: `sh tools/trace-smoke.sh` (or `make trace-smoke`).
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rtx" ./cmd/rtexperiments
go build -o "$tmp/rts" ./cmd/rtsim
go build -o "$tmp/rtt" ./cmd/rttrace
go build -o "$tmp/tracecheck" ./tools/tracecheck

mini="-figure 14 -systems 2 -nmin 2 -nmax 3 -horizon-periods 5"

# --- 1+2: tracing must not perturb results, and the trace must validate.

$tmp/rtx $mini -jsonl "$tmp/ref.jsonl" >"$tmp/ref.txt"

run_traced() {
	name=$1
	shift
	"$@" $mini -jsonl "$tmp/$name.jsonl" -trace-pipeline "$tmp/$name.trace.json" >"$tmp/$name.txt"
	cmp "$tmp/ref.txt" "$tmp/$name.txt"
	cmp "$tmp/ref.jsonl" "$tmp/$name.jsonl"
	"$tmp/tracecheck" -trace "$tmp/$name.trace.json" >/dev/null
	echo "ok  traced  $name"
}

run_traced seq "$tmp/rtx"
run_traced seq1 env GOMAXPROCS=1 "$tmp/rtx"
run_traced par env GOMAXPROCS=4 "$tmp/rtx"

# --- 3: the manifest of a traced run carries the span summary.

$tmp/rtx $mini -trace-pipeline "$tmp/man.trace.json" \
	-manifest "$tmp/man.json" >/dev/null
grep -q '"spans"' "$tmp/man.json"
echo "ok  manifest span summary"

# --- 4: rtsim pipeline trace and rttrace schedule export both validate.

$tmp/rts -protocol all -example 2 -trace-pipeline "$tmp/rtsim.trace.json" >/dev/null
"$tmp/tracecheck" -trace "$tmp/rtsim.trace.json" >/dev/null
echo "ok  rtsim   -trace-pipeline"

$tmp/rts -protocol rg -example 2 -horizon 200 -trace-out "$tmp/sched.json" >/dev/null
$tmp/rtt -perfetto "$tmp/sched.perfetto.json" "$tmp/sched.json" >/dev/null
"$tmp/tracecheck" -trace "$tmp/sched.perfetto.json" >/dev/null
echo "ok  rttrace -perfetto"

# --- 5: /metrics on the debug endpoint speaks valid exposition format.
# The endpoint announces its (ephemeral) address on stderr; poll until the
# sweep has served it, then validate the scrape.

$tmp/rtx -figure 14 -systems 30 -debug-addr 127.0.0.1:0 \
	-jsonl "$tmp/met.jsonl" >/dev/null 2>"$tmp/met.stderr" &
sweep=$!
addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's,.*debug endpoint on http://\(.*\)/debug/.*,\1,p' "$tmp/met.stderr")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "debug endpoint never announced" >&2; exit 1; }
ok=0
for _ in $(seq 1 100); do
	if curl -fsS "http://$addr/metrics" >"$tmp/metrics.txt" 2>/dev/null &&
		grep -q rtsync_sweep_units_done "$tmp/metrics.txt"; then
		ok=1
		break
	fi
	sleep 0.1
done
kill "$sweep" 2>/dev/null || true
wait "$sweep" 2>/dev/null || true
[ "$ok" = 1 ] || { echo "never scraped /metrics from $addr" >&2; exit 1; }
"$tmp/tracecheck" -metrics "$tmp/metrics.txt" >/dev/null
echo "ok  /metrics exposition"

echo "trace smoke passed"
