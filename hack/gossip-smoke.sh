#!/usr/bin/env bash
# gossip-smoke.sh — live gossip cluster smoke test.
#
# Three phases:
#
#   1. Remote fleet: six gossipd node processes on loopback, one
#      coordinator attaching via -peers, a live push-pull trial on a
#      cycle at 10% message loss; then the even nodes (started
#      -exit-on-shutdown) are restarted on the same ports and a second
#      coordinator runs another trial. Every neighbor of a surviving
#      odd node was restarted, so all its idle links are stale. Both
#      trials must reach full coverage,
#      the processes must have reused connections (fewer dials than
#      messages across the fleet), the survivors must have redialled,
#      and nobody may have lost a message to the transport.
#   2. Self-hosted E16 overlay (sync): live cluster vs simulator on the
#      identical cell, 10% loss; the spreading-time ratio must print
#      and fall inside the -max-ratio bound. Then a coordinator is sent
#      SIGINT in the middle of an async trial: it must exit non-zero
#      within 2 s, with every node's SHUTDOWN in its -metrics-out.
#   3. Self-hosted E16 overlay (async): the per-node exponential-clock
#      path, same bound; the coordinator's metrics snapshot must record
#      the live runs.
#
# Environment:
#   GOSSIP_SMOKE_PORT base port for the fleet (default 9200; uses
#                     base..base+5)
#   GOSSIPD_BIN       prebuilt gossipd binary (default: go build)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${GOSSIP_SMOKE_PORT:-9200}"
workdir="$(mktemp -d)"
pids=()
cleanup() {
    kill "${pids[@]}" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

BIN="${GOSSIPD_BIN:-$workdir/gossipd}"
if [ ! -x "$BIN" ]; then
    echo "==> building gossipd"
    go build -o "$BIN" ./cmd/gossipd
fi

echo "==> phase 1: remote fleet, 6 nodes on a cycle, push-pull sync, 10% loss"
# start_node I GENERATION: even nodes exit on SHUTDOWN, odd ones stay up.
start_node() {
    local i=$1 gen=$2 flags=()
    if [ $((i % 2)) -eq 0 ]; then flags=(-exit-on-shutdown); fi
    "$BIN" -addr "127.0.0.1:$((BASE_PORT + i))" "${flags[@]}" \
        -metrics-out "$workdir/node$i.$gen.metrics" >"$workdir/node$i.$gen.log" 2>&1 &
    pids[i]=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" "$workdir/node$i.$gen.log" 2>/dev/null && return
        sleep 0.1
    done
    echo "FAIL: node $i never started" >&2
    cat "$workdir/node$i.$gen.log" >&2
    exit 1
}
# metric_sum FAMILY FILE...: the family's series, summed over the files.
metric_sum() {
    local family=$1
    shift
    awk -v f="$family" '$1 == f || index($1, f "{") == 1 {s += $2} END {printf "%d\n", s}' "$@"
}
ADDRS=()
for i in $(seq 0 5); do
    start_node "$i" a
    ADDRS+=("127.0.0.1:$((BASE_PORT + i))")
done
peers="$(IFS=,; echo "${ADDRS[*]}")"
fleet_trial() {
    "$BIN" -coordinator -overlay=false -peers "$peers" \
        -family cycle -n 6 -protocol push-pull -timing sync \
        -loss 0.1 -trials 1 -seed "$1" -metrics-out "$workdir/coord.$1.metrics" | tee "$workdir/fleet.$1.out"
    grep -q "informed=6/6" "$workdir/fleet.$1.out" || {
        echo "FAIL: fleet trial (seed $1) fell short of full coverage" >&2
        exit 1
    }
}
fleet_trial 42
echo "==> restarting nodes 0, 2, 4 on their ports; nodes 1, 3, 5 keep their now stale links"
for i in 0 2 4; do
    wait "${pids[i]}" || {
        echo "FAIL: node $i did not exit cleanly on SHUTDOWN" >&2
        exit 1
    }
    start_node "$i" b
done
fleet_trial 43
for i in 0 2 4; do wait "${pids[i]}"; done
for i in 1 3 5; do
    kill -TERM "${pids[i]}"
    wait "${pids[i]}" || true
done
pids=()
reuses=$(metric_sum rumor_gossip_conn_reuses_total "$workdir"/coord.42.metrics)
dials=$(metric_sum rumor_gossip_dials_total "$workdir"/*.metrics)
msgs=$(metric_sum rumor_gossip_messages_sent_total "$workdir"/*.metrics)
errs=$(metric_sum rumor_gossip_dial_errors_total "$workdir"/*.metrics)
# A survivor's call on a stale link counts one reuse and one dial.
redials=$(($(metric_sum rumor_gossip_dials_total "$workdir"/node[135].a.metrics) \
    + $(metric_sum rumor_gossip_conn_reuses_total "$workdir"/node[135].a.metrics) \
    - $(metric_sum rumor_gossip_messages_sent_total "$workdir"/node[135].a.metrics)))
echo "==> fleet: $msgs messages on $dials dials, $errs transport failures; coordinator reuses $reuses; stale-link redials $redials"
if [ "$reuses" -le 0 ] || [ "$dials" -ge "$msgs" ] || [ "$errs" -ne 0 ] || [ "$redials" -le 0 ]; then
    echo "FAIL: connection reuse across processes is not working as expected" >&2
    exit 1
fi
echo "==> fleet reached full coverage in both trials, across a restart of half of it"

echo "==> phase 2: self-hosted E16 overlay, sync, 16 nodes, 10% loss"
"$BIN" -coordinator -family complete -n 16 -protocol push-pull -timing sync \
    -loss 0.1 -trials 3 -sim-trials 5 -seed 7 -max-ratio 10 \
    | tee "$workdir/overlay-sync.out"
grep -q "spreading-time ratio (live/sim): [0-9]" "$workdir/overlay-sync.out" || {
    echo "FAIL: sync overlay printed no numeric ratio" >&2
    exit 1
}

echo "==> phase 2b: SIGINT a coordinator in the middle of an async trial"
# Clocks that tick once a minute: the trial cannot end by itself inside
# -max-wait. The coordinator must give up between two polls, sweep
# SHUTDOWN over its nodes, write its snapshot, and exit non-zero.
"$BIN" -coordinator -overlay=false -family cycle -n 8 -protocol push-pull -timing async \
    -time-unit 1m -trials 1 -seed 5 -metrics-out "$workdir/sigint.metrics" >"$workdir/sigint.out" 2>&1 &
sigint_pid=$!
sleep 1
kill -INT "$sigint_pid" || true # already gone: the checks below say why
sigint_at=$(date +%s%N)
sigint_rc=0
wait "$sigint_pid" || sigint_rc=$?
sigint_ms=$(( ($(date +%s%N) - sigint_at) / 1000000 ))
shutdowns=$(awk '$1 == "rumor_gossip_messages_received_total{method=\"shutdown\"}" {printf "%d", $2}' "$workdir/sigint.metrics")
echo "==> coordinator exited $sigint_rc after ${sigint_ms} ms; nodes counted ${shutdowns:-0} SHUTDOWNs"
if [ "$sigint_rc" -eq 0 ] || [ "$sigint_ms" -gt 2000 ] || [ "${shutdowns:-0}" -ne 8 ] ||
    ! grep -q "context canceled" "$workdir/sigint.out"; then
    echo "FAIL: an interrupted coordinator must exit non-zero within 2 s with all 8 nodes shut down" >&2
    cat "$workdir/sigint.out" >&2
    exit 1
fi

echo "==> phase 3: self-hosted E16 overlay, async, 8 nodes, 10% loss"
"$BIN" -coordinator -family complete -n 8 -protocol push-pull -timing async \
    -time-unit 20ms -loss 0.1 -trials 2 -sim-trials 5 -seed 11 -max-ratio 25 \
    -metrics-out "$workdir/metrics.txt" | tee "$workdir/overlay-async.out"
grep -q "spreading-time ratio (live/sim): [0-9]" "$workdir/overlay-async.out" || {
    echo "FAIL: async overlay printed no numeric ratio" >&2
    exit 1
}
runs="$(awk '$1 == "rumor_gossip_live_runs_total" {print $2}' "$workdir/metrics.txt")"
if [ -z "$runs" ] || [ "${runs%%.*}" -lt 2 ]; then
    echo "FAIL: rumor_gossip_live_runs_total = '${runs:-absent}', want >= 2" >&2
    exit 1
fi
echo "==> metrics recorded $runs live runs"
echo "PASS"
