#!/usr/bin/env sh
# End-to-end smoke test for the noisyevald tuning daemon, shared by
# `make serve-smoke` and CI's serve job: boot the daemon, then run the
# tools/servesmoke exerciser against it over pkg/client — health wait, one
# quick run streamed to completion with a dedup check, the /v1/methods
# catalogue, and an ask/tell session driven over the wire whose best must
# match the server-driven run exactly — then drain gracefully via SIGTERM.
# The daemon runs at -log-level debug with stderr captured, and the drained
# log must hold the run's "run admitted" and "run done" events from the serve
# component: the -log-level flag and the slog handler, wired end to end.
#
# Usage: tools/serve_smoke.sh [addr] [cache-dir]
set -eu

ADDR="${1:-127.0.0.1:8723}"
CACHE="${2:-$HOME/.cache/noisyeval-banks}"
LOG="$(mktemp)"

go build -o /tmp/noisyevald-smoke ./cmd/noisyevald
go build -o /tmp/servesmoke ./tools/servesmoke
/tmp/noisyevald-smoke -addr "$ADDR" -cache-dir "$CACHE" -session-ttl 5m -log-level debug 2>"$LOG" &
PID=$!
trap 'kill -9 $PID 2>/dev/null || true; cat "$LOG" >&2; rm -f "$LOG"' EXIT

/tmp/servesmoke -base "http://$ADDR"

kill -TERM $PID
wait $PID || { echo "daemon exited non-zero on SIGTERM"; exit 1; }
for msg in "run admitted" "run done"; do
	grep -F "msg=\"$msg\"" "$LOG" | grep -q 'component=serve' ||
		{ echo "daemon log has no msg=\"$msg\" line from component=serve"; exit 1; }
done
trap - EXIT
rm -f "$LOG"
echo "serve smoke passed"
