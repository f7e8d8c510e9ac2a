#!/usr/bin/env sh
# End-to-end cluster smoke test, shared by `make cluster-smoke` and CI's
# cluster job: boot a coordinator daemon (noisyevald -cluster, no self-build)
# plus two noisyworker processes, build the quick-scale banks cold through
# sharded fleet leases — asserting via each worker's /metrics that BOTH
# workers trained shards, and via the daemon's that populations were
# fetched, no build failed and no shard was rejected — then restart the
# daemon against the same cache and re-run warm, asserting zero banks
# trained. The binaries (and the
# default cache) live in a temporary directory removed on exit.
#
# Usage: tools/cluster_smoke.sh [addr] [cache-dir]
set -eu

WORK="$(mktemp -d)"
ADDR="${1:-127.0.0.1:8733}"
CACHE="${2:-$WORK/cache}"
W1_ADDR=127.0.0.1:8734
W2_ADDR=127.0.0.1:8735

DPID= W1PID= W2PID= # pre-set: the EXIT trap must expand cleanly under set -u
trap 'kill -9 ${DPID:-} ${W1PID:-} ${W2PID:-} 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/noisyevald" ./cmd/noisyevald
go build -o "$WORK/noisyworker" ./cmd/noisyworker

wait_health() { # url label
  i=0
  until curl -sf --max-time 5 "$1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ $i -gt 100 ] && { echo "$2 never became healthy"; exit 1; }
    sleep 0.2
  done
}

metric() { # addr name — one sample of the Prometheus text exposition
  curl -sf --max-time 30 "http://$1/metrics" | sed -n "s/^$2 \([0-9][0-9]*\)\$/\1/p" | head -n 1
}

submit_and_wait() { # body
  ID=$(curl -sf --max-time 30 -X POST "http://$ADDR/v1/runs" -d "$1" |
    sed -n 's/.*"id": *"\(run-[0-9]*\)".*/\1/p')
  [ -n "$ID" ] || { echo "submit returned no run id"; exit 1; }
  curl -sfN --max-time 600 "http://$ADDR/v1/runs/$ID/events" | tail -n 1 | grep -q '"state":"done"' ||
    { echo "run $ID did not reach done"; exit 1; }
}

# --- Cold pass: coordinator + two workers, no self-build ----------------
# Every shard must be trained by the external fleet (-self-build 0), so the
# per-worker assertion below is meaningful. One config per shard
# spreads the work across both workers.
"$WORK/noisyevald" -addr "$ADDR" -cache-dir "$CACHE" -cluster \
  -self-build 0 -shard-configs 1 &
DPID=$!
wait_health "http://$ADDR" daemon

"$WORK/noisyworker" -coordinator "http://$ADDR" -addr "$W1_ADDR" -name w1 -poll 25ms &
W1PID=$!
"$WORK/noisyworker" -coordinator "http://$ADDR" -addr "$W2_ADDR" -name w2 -poll 25ms &
W2PID=$!
wait_health "http://$W1_ADDR" worker1
wait_health "http://$W2_ADDR" worker2
echo "cluster up: daemon $ADDR, workers $W1_ADDR $W2_ADDR"

# Two datasets' quick banks cold — dozens of single-config shards.
submit_and_wait '{"dataset":"cifar10","method":"rs","trials":3,"seed":11,"noise":{"sample_count":2}}'
echo "cifar10 run done"
submit_and_wait '{"dataset":"femnist","method":"rs","trials":3,"seed":11,"noise":{"sample_count":2}}'
echo "femnist run done"

# Cold run trained banks, and every shard came through the fleet.
[ "$(metric "$ADDR" dist_builds_completed_total)" = 2 ] ||
  { echo "expected 2 sharded builds"; curl -s "http://$ADDR/metrics" | grep '^dist_'; exit 1; }
# The coordinator counters beyond the builds: both workers fetched a
# population (two datasets), no build failed and no upload was rejected.
[ "$(metric "$ADDR" dist_population_fetches_total)" -ge 1 ] 2>/dev/null ||
  { echo "expected population fetches"; curl -s "http://$ADDR/metrics" | grep '^dist_'; exit 1; }
[ "$(metric "$ADDR" dist_builds_failed_total)" = 0 ] ||
  { echo "sharded builds failed"; curl -s "http://$ADDR/metrics" | grep '^dist_'; exit 1; }
[ "$(metric "$ADDR" dist_shards_rejected_total)" = 0 ] ||
  { echo "shard uploads rejected"; curl -s "http://$ADDR/metrics" | grep '^dist_'; exit 1; }

S1=$(metric "$W1_ADDR" worker_shards_built_total); S2=$(metric "$W2_ADDR" worker_shards_built_total)
echo "worker shards: w1=$S1 w2=$S2"
[ "${S1:-0}" -ge 1 ] || { echo "worker 1 built no shards"; exit 1; }
[ "${S2:-0}" -ge 1 ] || { echo "worker 2 built no shards"; exit 1; }

# Workers drain cleanly.
kill -TERM $W1PID $W2PID
wait $W1PID || { echo "worker 1 exited non-zero"; exit 1; }
wait $W2PID || { echo "worker 2 exited non-zero"; exit 1; }
kill -TERM $DPID
wait $DPID || { echo "daemon exited non-zero on SIGTERM"; exit 1; }
echo "cold cluster pass done"

# --- Warm pass: same cache, fresh daemon, zero training -----------------
"$WORK/noisyevald" -addr "$ADDR" -cache-dir "$CACHE" -cluster -self-build 0 -shard-configs 1 &
DPID=$!
wait_health "http://$ADDR" daemon

# No workers this time: if the cache missed, these submissions would hang —
# the 120s ceiling doubles as the "no retraining" assertion's teeth.
submit_and_wait '{"dataset":"cifar10","method":"rs","trials":3,"seed":11,"noise":{"sample_count":2}}'
submit_and_wait '{"dataset":"femnist","method":"rs","trials":3,"seed":11,"noise":{"sample_count":2}}'

[ "$(metric "$ADDR" bank_builds_trained_total)" = 0 ] ||
  { echo "warm rerun trained banks"; curl -s "http://$ADDR/metrics" | grep '^bank_'; exit 1; }
[ "$(metric "$ADDR" dist_builds_started_total)" = 0 ] ||
  { echo "warm rerun scheduled sharded builds"; exit 1; }
echo "warm pass: 0 banks trained, 0 sharded builds"

kill -TERM $DPID
wait $DPID || { echo "daemon exited non-zero on SIGTERM"; exit 1; }
DPID= W1PID= W2PID=
echo "cluster smoke passed"
