#!/bin/sh
# verify-results.sh — prove the result-store round trip for every committed
# figure in results/:
#
#   1. live:   rerun the figure's sweep at its committed replication with
#              -jsonl, and cmp the live stdout against the committed .txt
#   2. replay: regenerate the figure FROM the JSONL store with rtreport
#              (content hashes verified), and cmp against the committed .txt
#   3. det:    run miniature sweeps, plus one locking sweep long enough to
#              wrap the commit window, at GOMAXPROCS=1 and at the host's
#              default, and cmp the two JSONL stores byte for byte
#   4. warm:   rerun committed figures with -warm-start (crossed with
#              GOMAXPROCS 1 and default for the minis) and cmp stdout
#              against the committed .txt and the store against the cold
#              run's — warm-seeded fixed points must change no output byte
#
# Figures 14/15/16/rg-rule2/jitter all render from one avgeer-study store,
# so the store written while regenerating figure 14 replays the other four —
# the figures-as-views contract doing real work.
#
# Run from anywhere: `sh tools/verify-results.sh` (or `make verify-results`).
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rtx" ./cmd/rtexperiments
go build -o "$tmp/rtr" ./cmd/rtreport

# live <figure> <name> <sweep flags...>: sweep with a JSONL store attached,
# stdout must match the committed results/<name>.txt.
live() {
	fig=$1
	name=$2
	shift 2
	"$tmp/rtx" -figure "$fig" "$@" -jsonl "$tmp/$name.jsonl" >"$tmp/$name.txt"
	cmp "results/$name.txt" "$tmp/$name.txt"
	echo "ok  live    $name"
}

# replay <figure> <name> <store-name>: regenerate from the store alone.
replay() {
	fig=$1
	name=$2
	store=$3
	"$tmp/rtr" -in "$tmp/$store.jsonl" -verify -figure "$fig" >"$tmp/$name.replay.txt"
	cmp "results/$name.txt" "$tmp/$name.replay.txt"
	echo "ok  replay  $name"
}

# det <figure> <sweep flags...>: miniature sweep twice — GOMAXPROCS=1 vs the
# host default — stores must be byte-identical (the ordered commit window
# at work). Then hash-verify the store: short horizons leave some tasks
# jobless, so obs layouts VARY across records — the decode path must not
# leak omitempty fields between a reused record's lines.
det() {
	fig=$1
	shift
	GOMAXPROCS=1 "$tmp/rtx" -figure "$fig" "$@" -jsonl "$tmp/det1.jsonl" >/dev/null
	"$tmp/rtx" -figure "$fig" "$@" -jsonl "$tmp/detN.jsonl" >/dev/null
	cmp "$tmp/det1.jsonl" "$tmp/detN.jsonl"
	"$tmp/rtr" -in "$tmp/det1.jsonl" -verify -list >/dev/null
	echo "ok  det     $fig"
}

# --- 1+2: committed-replication round trips (flags mirror `make experiments`)

live 12 fig12 -systems 200
replay 12 fig12 fig12

live 13 fig13 -systems 200
replay 13 fig13 fig13

live 14 fig14 -systems 50
replay 14 fig14 fig14
replay 15 fig15 fig14
replay 16 fig16 fig14
replay rg-rule2 rg-rule2 fig14
replay jitter jitter fig14

live release-jitter release-jitter -systems 20
replay release-jitter release-jitter release-jitter

live tightness tightness -systems 40
replay tightness tightness tightness

live edf edf -systems 30 -horizon-periods 10
replay edf edf edf

live exec-variation exec-variation -systems 10 -horizon-periods 10
replay exec-variation exec-variation exec-variation

live sensitivity sensitivity -systems 15 -horizon-periods 10
replay sensitivity sensitivity sensitivity

# overhead is analytical — no sweep, no store; both CLIs must print the
# committed table.
"$tmp/rtx" -figure overhead >"$tmp/overhead.txt"
cmp results/overhead.txt "$tmp/overhead.txt"
echo "ok  live    overhead"
"$tmp/rtr" -figure overhead >"$tmp/overhead.replay.txt"
cmp results/overhead.txt "$tmp/overhead.replay.txt"
echo "ok  replay  overhead"

# --- 3: parallelism determinism of the store itself (miniature sweeps)

mini="-systems 2 -nmin 2 -nmax 3 -horizon-periods 5"
det 12 $mini
det 13 $mini
det 14 $mini
det release-jitter $mini
det edf $mini
det exec-variation $mini
det tightness -systems 4
det sensitivity -systems 2 -horizon-periods 5
det locking $mini
# The minis sweep 20 units, too few to fill a commit window (128 slots per
# worker). 1,000 locking units, whose analysis costs are heavy-tailed, wrap
# the window several times at any small worker count.
det locking -systems 100 -nmin 2 -nmax 3

# --- 4: warm-start invisibility — every committed figure rerun with
# warm-seeded fixed points, against the committed .txt and the cold store
# step 1 left in $tmp (the five replay-only figures render from fig14's
# store, so its cmp covers them); then a warm mini at GOMAXPROCS 1 and
# default against the cold sequential reference.

# warm <figure> <name> <sweep flags...>: the live() flags plus -warm-start.
warm() {
	fig=$1
	name=$2
	shift 2
	"$tmp/rtx" -figure "$fig" "$@" -warm-start \
		-jsonl "$tmp/$name.warm.jsonl" >"$tmp/$name.warm.txt"
	cmp "results/$name.txt" "$tmp/$name.warm.txt"
	cmp "$tmp/$name.jsonl" "$tmp/$name.warm.jsonl"
	echo "ok  warm    $name"
}

warm 12 fig12 -systems 200
warm 13 fig13 -systems 200
warm 14 fig14 -systems 50
warm release-jitter release-jitter -systems 20
warm tightness tightness -systems 40
warm edf edf -systems 30 -horizon-periods 10
warm exec-variation exec-variation -systems 10 -horizon-periods 10
warm sensitivity sensitivity -systems 15 -horizon-periods 10
"$tmp/rtx" -figure overhead -warm-start >"$tmp/overhead.warm.txt"
cmp results/overhead.txt "$tmp/overhead.warm.txt"
echo "ok  warm    overhead"

"$tmp/rtx" -figure 14 $mini -jsonl "$tmp/warmref.jsonl" >/dev/null
GOMAXPROCS=1 "$tmp/rtx" -figure 14 $mini -warm-start -jsonl "$tmp/warm1.jsonl" >/dev/null
cmp "$tmp/warmref.jsonl" "$tmp/warm1.jsonl"
"$tmp/rtx" -figure 14 $mini -warm-start -jsonl "$tmp/warmN.jsonl" >/dev/null
cmp "$tmp/warmref.jsonl" "$tmp/warmN.jsonl"
echo "ok  warm    fig14 mini (GOMAXPROCS 1 and default)"

echo "all results round-trip byte-identical"
