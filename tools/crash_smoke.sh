#!/usr/bin/env sh
# Crash-recovery smoke test for noisyevald's durable run journal, shared by
# `make crash-smoke` and CI's crash-smoke job:
#
#   1. boot the daemon with -journal-dir and fire a batch of concurrent
#      submissions through tools/loadgen (recording every acknowledged run);
#   2. kill -9 the daemon mid-flight — some runs done, some running, some
#      queued — and append garbage to the WAL to simulate a torn final
#      record from the crash;
#   3. restart the daemon on the same journal and assert recovery: the
#      journal replayed (/metrics journal_replayed_total > 0), the torn
#      tail was truncated and counted (journal_torn_tail_total = 1),
#      interrupted runs were re-admitted (runs_recovered_total > 0), and
#      loadgen verify finds ZERO lost
#      runs — every acknowledged run reaches done, resubmissions dedup onto
#      the recorded IDs (no duplicate execution), and every result matches
#      an uninterrupted reference daemon byte for byte.
#
# Usage: tools/crash_smoke.sh [addr] [ref-addr] [cache-dir]
set -eu

ADDR="${1:-127.0.0.1:8725}"
REF_ADDR="${2:-127.0.0.1:8726}"
CACHE="${3:-$HOME/.cache/noisyeval-banks}"

WORK="$(mktemp -d)"
JOURNAL="$WORK/journal"
STATE="$WORK/runs.json"
DPID=""
RPID=""
cleanup() {
    [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null || true
    [ -n "$RPID" ] && kill -9 "$RPID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/noisyevald" ./cmd/noisyevald
go build -o "$WORK/loadgen" ./tools/loadgen

wait_health() {
    i=0
    until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 120 ] && { echo "daemon on $1 never became healthy"; exit 1; }
        sleep 0.5
    done
}

metric() { # metric <addr> <name> — one sample of the Prometheus text exposition
    curl -fsS "http://$1/metrics" | sed -n "s/^$2 \([0-9][0-9]*\)\$/\1/p" | head -n 1
}

# Phase 1: boot with a journal and load it up. Oracle-backed runs finish in
# microseconds, so -exec-delay pads each execution: 24 runs x 400ms on two
# workers is ~5s of backlog, and the kill below lands on a mix of done,
# running, and queued runs every time.
"$WORK/noisyevald" -addr "$ADDR" -cache-dir "$CACHE" -journal-dir "$JOURNAL" -workers 2 -exec-delay 400ms &
DPID=$!
wait_health "$ADDR"
"$WORK/loadgen" -base "http://$ADDR" -mode submit -n 24 -conc 12 -state "$STATE" -max-p99 30s

# Give the workers a moment to finish a few runs (but not all 24), then
# crash hard: no drain, no fsync beyond what the journal already did.
sleep 2
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=""

# Torn tail: the crash "tore" the final WAL record.
printf '\125\000\000\000\336\255\276\357' >> "$JOURNAL/wal"

# Phase 2: restart on the same journal (same -exec-delay: config survives a
# restart), plus an uninterrupted reference daemon (journal-less, same bank
# cache, no delay) for byte-identical comparison.
"$WORK/noisyevald" -addr "$ADDR" -cache-dir "$CACHE" -journal-dir "$JOURNAL" -workers 2 -exec-delay 400ms &
DPID=$!
"$WORK/noisyevald" -addr "$REF_ADDR" -cache-dir "$CACHE" -workers 2 &
RPID=$!
wait_health "$ADDR"
wait_health "$REF_ADDR"

replayed="$(metric "$ADDR" journal_replayed_total)"
torn="$(metric "$ADDR" journal_torn_tail_total)"
recovered="$(metric "$ADDR" runs_recovered_total)"
echo "after restart: journal_replayed_total=$replayed journal_torn_tail_total=$torn runs_recovered_total=$recovered"
[ "${replayed:-0}" -gt 0 ] || { echo "FAIL: journal_replayed_total = $replayed, want > 0"; exit 1; }
[ "${torn:-0}" -eq 1 ] || { echo "FAIL: journal_torn_tail_total = $torn, want 1"; exit 1; }
[ "${recovered:-0}" -gt 0 ] || { echo "FAIL: runs_recovered_total = $recovered, want > 0 (crash left nothing in flight?)"; exit 1; }

"$WORK/loadgen" -base "http://$ADDR" -mode verify -state "$STATE" -ref-base "http://$REF_ADDR" -conc 12

# Graceful exit still works after a recovery boot.
kill -TERM "$DPID"
wait "$DPID" || { echo "recovered daemon exited non-zero on SIGTERM"; exit 1; }
DPID=""
echo "crash smoke passed"
