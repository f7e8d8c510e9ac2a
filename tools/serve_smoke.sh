#!/usr/bin/env sh
# End-to-end smoke test for the noisyevald tuning daemon, shared by
# `make serve-smoke` and CI's serve job: boot the daemon, then run the
# tools/servesmoke exerciser against it over pkg/client — health wait, one
# quick run streamed to completion with a dedup check, the /v1/methods
# catalogue, and an ask/tell session driven over the wire whose best must
# match the server-driven run exactly — then drain gracefully via SIGTERM.
# The daemon runs at -log-level debug on a fresh run journal with stderr
# captured, and the drained log must hold the run's "run admitted" and "run
# done" events from the serve component and the start-up "run journal" line
# with its replay count: the -log-level flag and the slog handler, wired end
# to end, carry every line the daemon writes. No bank temp file
# (.banktmp-*) written since the boot may be left in the cache dir: every
# bank the daemon built was published whole. The daemon then boots a second
# time over the same cache and journal, and `servesmoke -restarted` checks
# that a quick run there opens its bank from the store (no bank.build span,
# a bank cache hit on /metrics) — the restart the first boot's in-process
# builds never exercise. The binaries, journal and logs live in a temporary
# directory removed on exit, so two smokes can run at once.
#
# Usage: tools/serve_smoke.sh [addr] [cache-dir]
set -eu

ADDR="${1:-127.0.0.1:8723}"
CACHE="${2:-$HOME/.cache/noisyeval-banks}"

WORK="$(mktemp -d)"
LOG="$WORK/noisyevald.log"
PID=""
cleanup() {
	[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
	[ -f "$LOG" ] && cat "$LOG" >&2 || true
	rm -rf "$WORK"
}
boot() {
	"$WORK/noisyevald" -addr "$ADDR" -cache-dir "$CACHE" -journal-dir "$WORK/journal" \
		-session-ttl 5m -log-level debug 2>"$LOG" &
	PID=$!
}
drain() {
	kill -TERM $PID
	wait $PID || { echo "daemon exited non-zero on SIGTERM"; exit 1; }
	PID=""
}
trap cleanup EXIT

go build -o "$WORK/noisyevald" ./cmd/noisyevald
go build -o "$WORK/servesmoke" ./tools/servesmoke
boot
"$WORK/servesmoke" -base "http://$ADDR"
drain
for msg in "run admitted" "run done"; do
	grep -F "msg=\"$msg\"" "$LOG" | grep -q 'component=serve' ||
		{ echo "daemon log has no msg=\"$msg\" line from component=serve"; exit 1; }
done
grep -F 'msg="run journal"' "$LOG" | grep -q ' replayed=0 ' ||
	{ echo "daemon log has no msg=\"run journal\" line with replayed=0"; exit 1; }
TEMPS="$(find "$CACHE" -maxdepth 1 -name '.banktmp-*' -newer "$WORK/noisyevald" 2>/dev/null || true)"
[ -z "$TEMPS" ] || { echo "cache dir holds unpublished bank temp files after a graceful shutdown: $TEMPS"; exit 1; }

LOG="$WORK/noisyevald-restarted.log"
boot
"$WORK/servesmoke" -base "http://$ADDR" -restarted
drain
rm -f "$WORK"/*.log
echo "serve smoke passed"
