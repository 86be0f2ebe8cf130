#!/usr/bin/env bash
# Crash-restart smoke test for the durable job journal: build factord
# with -tags faultinject, kill it mid-job — by SIGKILL at each
# lifecycle stage and by every durable.* disk fault (torn and short
# writes self-crash the process after persisting the damage) — then
# restart on the same data directory and assert that no accepted job
# was lost and that every recovered result is byte-identical to what a
# direct cmd/factor run produces.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -tags faultinject -o "$tmp/factord" ./cmd/factord
go build -o "$tmp/factorctl" ./cmd/factorctl
go build -o "$tmp/factor" ./cmd/factor

addr=127.0.0.1:8573
export FACTORD_ADDR="http://$addr"
circuit=examples/circuits/paper.eqn

echo "== direct run (reference result)"
"$tmp/factor" -in "$circuit" -format eqn -baseline=false -o "$tmp/direct.eqn"

# start_daemon DATA_DIR [FAULT_PLAN] [SNAPSHOT_INTERVAL]
start_daemon() {
    FAULT_PLAN="${2:-}" "$tmp/factord" -addr "$addr" -workers 2 \
        -data-dir "$1" -snapshot-interval "${3:-30s}" 2>>"$tmp/factord.log" &
    pid=$!
    local ready=0
    for _ in $(seq 1 50); do
        if "$tmp/factorctl" -retries 0 stats >/dev/null 2>&1; then ready=1; break; fi
        sleep 0.2
    done
    [ "$ready" = 1 ] || { echo "factord never became ready" >&2; tail "$tmp/factord.log" >&2; exit 1; }
}

stop_hard() {
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    pid=""
}

stop_soft() {
    kill -TERM "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
}

# wait_dead: block until the daemon kills itself (torn/short writes
# exit 3 after persisting the corrupted frame).
wait_dead() {
    for _ in $(seq 1 100); do
        if ! kill -0 "$pid" 2>/dev/null; then
            wait "$pid" 2>/dev/null || true
            pid=""
            return 0
        fi
        sleep 0.1
    done
    echo "daemon did not self-crash under the injected disk fault" >&2
    exit 1
}

submit_async() {
    "$tmp/factorctl" submit -algo seq -format eqn "$circuit" \
        | sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p'
}

# assert_recovered JOB_ID NAME: the job must still exist after the
# restart, reach DONE, and match the direct run byte for byte.
assert_recovered() {
    "$tmp/factorctl" -retries 0 status "$1" >/dev/null \
        || { echo "$2: accepted job $1 lost across restart" >&2; exit 1; }
    "$tmp/factorctl" wait -timeout 60s "$1" > "$tmp/recovered.json" \
        || { echo "$2: job $1 did not reach DONE after restart" >&2; cat "$tmp/recovered.json" >&2; exit 1; }
    grep -q '"state": "DONE"' "$tmp/recovered.json"
    "$tmp/factorctl" result -format eqn -o "$tmp/recovered.eqn" "$1"
    diff -u "$tmp/direct.eqn" "$tmp/recovered.eqn" \
        || { echo "$2: recovered result differs from direct run" >&2; exit 1; }
}

echo "== SIGKILL at each lifecycle stage"
for stage in accepted running done; do
    echo "--  stage: $stage"
    data="$tmp/data-kill-$stage"
    start_daemon "$data"
    id=$(submit_async)
    [ -n "$id" ] || { echo "$stage: submission failed" >&2; exit 1; }
    case "$stage" in
        accepted) ;; # kill as early as possible
        running)
            # Poll until the job has at least left QUEUED (fast jobs may
            # already be DONE; both are valid kill points).
            for _ in $(seq 1 50); do
                st=$("$tmp/factorctl" -retries 0 status "$id" | sed -n 's/.*"state": "\([A-Z]*\)".*/\1/p')
                [ "$st" != "QUEUED" ] && break
                sleep 0.05
            done
            ;;
        done)
            "$tmp/factorctl" wait -timeout 60s "$id" >/dev/null
            ;;
    esac
    stop_hard
    start_daemon "$data"
    assert_recovered "$id" "kill-$stage"
    stop_soft
done

echo "== torn and short journal writes (self-crash, CRC-truncating restart)"
# Append ordinals: 1 = admission record, 2 = RUNNING, 3 = DONE. A torn
# DONE record and a short RUNNING record both leave a crash image whose
# tail fails CRC; replay must truncate it and requeue the job.
for plan in "durable.append=torn:3" "durable.append=short:2"; do
    echo "--  plan: $plan"
    data="$tmp/data-$(echo "$plan" | tr '=:' '--')"
    start_daemon "$data" "$plan"
    # The daemon may die before the 202 body reaches factorctl; on a
    # fresh data dir the accepted job is deterministically job-1.
    id=$(submit_async || true)
    [ -n "$id" ] || id="job-1"
    wait_dead
    start_daemon "$data"
    assert_recovered "$id" "$plan"
    stop_soft
done

echo "== fsync fault at admission (client retries, then normal crash-restart)"
data="$tmp/data-fsync"
start_daemon "$data" "durable.fsync=error:1:1"
# The first admission append fails its fsync and is refused with 503;
# factorctl's retry lands after the point is spent and succeeds.
id=$("$tmp/factorctl" submit -algo seq -format eqn "$circuit" 2>/dev/null \
    | sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p')
[ -n "$id" ] || { echo "fsync: submission failed even with retries" >&2; exit 1; }
"$tmp/factorctl" wait -timeout 60s "$id" >/dev/null
stop_hard
start_daemon "$data"
assert_recovered "$id" "fsync"
stop_soft

echo "== snapshot fault (journal-only recovery)"
data="$tmp/data-snapshot"
start_daemon "$data" "durable.snapshot=error:1:1000000" "200ms"
id=$(submit_async)
"$tmp/factorctl" wait -timeout 60s "$id" >/dev/null
sleep 0.5 # let a few snapshot attempts fail; the journal must carry everything
stop_hard
start_daemon "$data"
assert_recovered "$id" "snapshot"
stop_soft

echo "== replay fault on restart (boot from prefix)"
data="$tmp/data-replay"
start_daemon "$data"
id=$(submit_async)
"$tmp/factorctl" wait -timeout 60s "$id" >/dev/null
stop_hard
# Replay dies after consuming the admission record; the boot must
# succeed with that prefix and recompute the job.
start_daemon "$data" "durable.replay=error:2:1"
assert_recovered "$id" "replay"
stop_soft

echo "restart smoke test passed"
