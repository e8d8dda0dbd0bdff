#!/bin/sh
# cluster_smoke.sh — end-to-end test of odcfpd cluster mode against real
# processes (the in-process equivalent lives in internal/serve/cluster_test.go):
#
#   1. optionally (MIN_SCALE > 0) measure a single-node baseline first: one
#      daemon, same designs and preseed, loadgen writes the top-level report
#   2. start REPLICAS daemons on loopback as one cluster (-cluster/-node/-rf)
#   3. drive a mixed issue/trace load across every replica; each issued copy
#      is traced back inline, so every acknowledgement is verified
#   4. with KILL=1, `kill -9` one replica mid-run, once the replicas have
#      served a quarter of the load's request count (their /metrics
#      serve.requests, summed); a load that finishes first fails the smoke.
#      The victim is the replica that has served the most requests by then,
#      so the kill always lands on one carrying traffic. The load must
#      finish with zero failures — acknowledged issuances keep tracing from
#      survivors
#   5. poll /cluster/status?sync=1 on every survivor until their per-design
#      totals agree and sum to exactly the records issued (convergence, and
#      no acknowledged record lost)
#   6. SIGTERM the survivors and require a clean (exit 0) drain
#
# Usage: scripts/cluster_smoke.sh [requests] [clients] [out.json]
# Env knobs:
#   REPLICAS  cluster size                              (default 3)
#   RF        replication factor / write quorum         (default 2)
#   DESIGNS   design variants, spread over the leaders  (default 3)
#   PRESEED   per-design seed copies minted before the  (default 0)
#             timed run — matures the registries so the
#             baseline pays its per-issue snapshot rewrite
#   KILL      1 = kill -9 one replica mid-run           (default 1)
#   MIN_SCALE fail below this cluster-vs-baseline RPS   (default 0 = off)
#             scale; > 0 also enables the baseline phase
#   BASE_PORT first replica port                        (default 18520)
#
# CI runs the defaults (fast, kill enabled). The BENCH_serve.json `cluster`
# section in the repo was produced with
# `KILL=0 REPLICAS=4 DESIGNS=4 PRESEED=20000 MIN_SCALE=3 scripts/cluster_smoke.sh 2000 16 BENCH_serve.json`.
set -eu

N=${1:-400}
C=${2:-8}
OUT=${3:-cluster_smoke.json}
REPLICAS=${REPLICAS:-3}
RF=${RF:-2}
DESIGNS=${DESIGNS:-3}
PRESEED=${PRESEED:-0}
KILL=${KILL:-1}
MIN_SCALE=${MIN_SCALE:-0}
BASE_PORT=${BASE_PORT:-18520}

GO=${GO:-go}
WORK=$(mktemp -d)
PIDS=""

cleanup() {
    for pid in $PIDS; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building binaries"
$GO build -o "$WORK/odcfpd" ./cmd/odcfpd
$GO build -o "$WORK/loadgen" ./cmd/loadgen

# start_node PORT STORE [extra flags...] — boots one daemon and waits for it
# to bind; appends its pid to PIDS. Each daemon logs to its own file, so a
# startup death fails fast with the dead node's log tail instead of a
# haystack of interleaved replica output.
start_node() {
    port=$1; store=$2; shift 2
    addrfile="$WORK/addr.$port"
    log="$WORK/daemon.$port.log"
    rm -f "$addrfile"
    "$WORK/odcfpd" -addr "127.0.0.1:$port" -store "$store" -addr-file "$addrfile" \
        -max-batch 8192 -batch-chunk 8192 "$@" >>"$log" 2>&1 &
    pid=$!
    PIDS="$PIDS $pid"
    for _ in $(seq 1 100); do
        [ -s "$addrfile" ] && return 0
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "cluster-smoke: daemon on :$port died at startup; log tail:"
            tail -n 40 "$log"
            exit 1
        fi
        sleep 0.1
    done
    echo "cluster-smoke: daemon on :$port never bound; log tail:"
    tail -n 40 "$log"
    exit 1
}

BASELINE_RPS=0
if [ "$MIN_SCALE" != "0" ]; then
    echo "cluster-smoke: baseline — single node, $DESIGNS designs, preseed $PRESEED, $N requests"
    start_node "$BASE_PORT" "$WORK/base-store"
    "$WORK/loadgen" -addr "127.0.0.1:$BASE_PORT" -designs "$DESIGNS" -preseed "$PRESEED" \
        -n "$N" -c "$C" -out "$WORK/base.json"
    BASELINE_RPS=$(sed -n 's/^  "rps": \([0-9.]*\),*$/\1/p' "$WORK/base.json" | head -1)
    [ -n "$BASELINE_RPS" ] || { echo "cluster-smoke: no rps in baseline report"; exit 1; }
    base_pid=${PIDS# }
    kill -TERM "$base_pid"
    wait "$base_pid" || { echo "cluster-smoke: baseline daemon exited non-zero; log tail:"; tail -n 40 "$WORK/daemon.$BASE_PORT.log"; exit 1; }
    PIDS=""
    echo "cluster-smoke: baseline $BASELINE_RPS req/s"
fi

NODES=""
i=0
while [ "$i" -lt "$REPLICAS" ]; do
    port=$((BASE_PORT + 1 + i))
    NODES="$NODES${NODES:+,}http://127.0.0.1:$port"
    i=$((i + 1))
done

echo "cluster-smoke: starting $REPLICAS replicas (rf=$RF): $NODES"
i=0
for node in $(echo "$NODES" | tr ',' ' '); do
    port=$((BASE_PORT + 1 + i))
    start_node "$port" "$WORK/store-$i" -cluster "$NODES" -node "$node" -rf "$RF"
    i=$((i + 1))
done
# REPLICA_PIDS lists "port:pid" per replica, in node order; SURVIVORS the
# replicas' ports still expected alive (all, until the kill).
REPLICA_PIDS=""
i=0
for pid in $PIDS; do
    REPLICA_PIDS="$REPLICA_PIDS $((BASE_PORT + 1 + i)):$pid"
    i=$((i + 1))
done
SURVIVORS=""
for pp in $REPLICA_PIDS; do SURVIVORS="$SURVIVORS ${pp%%:*}"; done

# requests_of PORT — prints that replica's /metrics serve.requests (peer
# traffic and these polls included; a dead replica counts 0).
requests_of() {
    v=$(curl -sf "http://127.0.0.1:$1/metrics" | tr -d ' \n' \
        | grep -o '"name":"serve.requests"[^}]*' | grep -o '"value":[0-9]*' \
        | tr -dc '0-9' || true)
    echo "${v:-0}"
}

# served — prints serve.requests summed over every replica.
served() {
    sum=0
    for pp in $REPLICA_PIDS; do
        sum=$((sum + $(requests_of "${pp%%:*}")))
    done
    echo "$sum"
}

ADDRS=$(echo "$NODES" | sed 's|http://||g')
echo "cluster-smoke: load — $N requests, $C clients, $DESIGNS designs, preseed $PRESEED"
if [ "$KILL" = "1" ]; then
    BEFORE=$(served)
    "$WORK/loadgen" -addr "$ADDRS" -designs "$DESIGNS" -preseed "$PRESEED" \
        -n "$N" -c "$C" -min-scale "$MIN_SCALE" -baseline-rps "$BASELINE_RPS" -out "$OUT" &
    LPID=$!
    # Kill once the cluster has served a quarter of the load, so the kill
    # lands mid-run however fast the load goes.
    SERVED=0
    while kill -0 "$LPID" 2>/dev/null && [ "$SERVED" -lt $((N / 4)) ]; do
        sleep 0.02
        SERVED=$(($(served) - BEFORE))
    done
    if ! kill -0 "$LPID" 2>/dev/null; then
        echo "cluster-smoke: load finished before the kill ($SERVED requests served, kill due at $((N / 4)))"
        exit 1
    fi
    # The victim is the replica that has served the most so far.
    VICTIM="" MOST=-1 COUNTS=""
    for pp in $REPLICA_PIDS; do
        n=$(requests_of "${pp%%:*}")
        COUNTS="$COUNTS ${pp%%:*}=$n"
        if [ "$n" -gt "$MOST" ]; then VICTIM=$pp MOST=$n; fi
    done
    VICTIM_PORT=${VICTIM%%:*}
    kill -9 "${VICTIM##*:}"
    SURVIVORS=""
    for pp in $REPLICA_PIDS; do
        [ "$pp" = "$VICTIM" ] || SURVIVORS="$SURVIVORS ${pp%%:*}"
    done
    echo "cluster-smoke: killed replica :$VICTIM_PORT (pid ${VICTIM##*:}, busiest of per-replica requests$COUNTS) mid-run, after $SERVED requests served"
    wait "$LPID" || { echo "cluster-smoke: load failed after node kill"; exit 1; }
else
    "$WORK/loadgen" -addr "$ADDRS" -designs "$DESIGNS" -preseed "$PRESEED" \
        -n "$N" -c "$C" -min-scale "$MIN_SCALE" -baseline-rps "$BASELINE_RPS" -out "$OUT"
fi

# Convergence: every survivor must report identical per-design totals whose
# sum is exactly the distinct records issued (seeds + one per buyer) —
# acknowledged issuances converged to every live replica, none lost, none
# duplicated. ?sync=1 makes each poll an anti-entropy pull, so a straggler
# that lost its fan-out source to the kill still converges.
EXPECT=$((DESIGNS * PRESEED + N / 2))
echo "cluster-smoke: awaiting convergence on survivors$(echo "$SURVIVORS" | sed 's/ / :/g') ($EXPECT records)"
tries=0
while :; do
    agreed=""
    ok=1
    for port in $SURVIVORS; do
        totals=$(curl -sf "http://127.0.0.1:$port/cluster/status?sync=1" \
            | tr -d ' \n\t' | grep -o '"totals":{[^}]*}' || true)
        sum=$(echo "$totals" | grep -o ':[0-9]*' | tr -d ':' | awk '{s+=$1} END{print s+0}')
        if [ -z "$totals" ] || [ "$sum" != "$EXPECT" ]; then ok=0; fi
        if [ -z "$agreed" ]; then agreed=$totals
        elif [ "$totals" != "$agreed" ]; then ok=0; fi
    done
    [ "$ok" = "1" ] && break
    tries=$((tries + 1))
    if [ "$tries" -gt 60 ]; then
        echo "cluster-smoke: survivors never converged (want sum $EXPECT)"
        for port in $SURVIVORS; do
            curl -s "http://127.0.0.1:$port/cluster/status" || true; echo
        done
        exit 1
    fi
    sleep 0.25
done
echo "cluster-smoke: registries converged: $agreed"

echo "cluster-smoke: draining survivors with SIGTERM"
for pp in $REPLICA_PIDS; do
    port=${pp%%:*} pid=${pp##*:}
    case " $SURVIVORS " in *" $port "*) ;; *) continue ;; esac
    kill -TERM "$pid"
    wait "$pid" || { echo "cluster-smoke: replica :$port exited non-zero; log tail:"; tail -n 40 "$WORK/daemon.$port.log"; exit 1; }
done
PIDS=""

echo "cluster-smoke: OK (report: $OUT)"
