#!/usr/bin/env bash
# End-to-end smoke test for the resident scan service: build the daemon and
# client, regenerate the seed-42 tiny fixture, serve it through patcheckod,
# and require the served normalized Report to be byte-identical to the
# committed golden report — the same bytes the CLI scan and the golden test
# suite pin. The firmware is then submitted a second time: that job is
# served from the dedup tables the first job left in the daemon's shared
# cache, and its report must be the same bytes too. Finally the daemon is
# stopped with SIGTERM and restarted on the same journal: it must answer for
# the two finished jobs exactly as the live one did. Run from the repo root;
# CI runs this as the service-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
addr="127.0.0.1:${SMOKE_PORT:-8941}"
daemon_pid=""
cleanup() {
    status=$?
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
        # Grace period, then force: a wedged daemon must not hang the trap.
        for _ in $(seq 1 50); do
            kill -0 "$daemon_pid" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "$daemon_pid" 2>/dev/null || true
    fi
    [ -n "$daemon_pid" ] && wait "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
    exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

echo "==> building"
go build -o "$work/patchecko" ./cmd/patchecko
go build -o "$work/patcheckod" ./cmd/patcheckod
go build -o "$work/patcheckoctl" ./cmd/patcheckoctl
go build -o "$work/corpusgen" ./cmd/corpusgen

echo "==> generating the seed-42 tiny fixture"
"$work/corpusgen" -out "$work/corpus" -scale tiny -seed 42
"$work/patchecko" train -scale tiny -seed 42 -out "$work/model.json"

start_daemon() {
    echo "==> starting patcheckod on $addr"
    "$work/patcheckod" -addr "$addr" \
        -model "$work/model.json" -db "$work/corpus/vulndb.json" \
        -journal "$work/journal.jsonl" -store "$work/store" \
        -metrics "$work/daemon_metrics.json" &
    daemon_pid=$!

    # Wait for readiness (the daemon loads the model before listening).
    for i in $(seq 1 50); do
        if "$work/patcheckoctl" health -addr "http://$addr" >/dev/null 2>&1; then
            break
        fi
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "FAIL: patcheckod exited before becoming healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
    "$work/patcheckoctl" health -addr "http://$addr" >/dev/null
}

# require_metrics LABEL WANT... fails unless /metrics contains every WANT.
require_metrics() {
    local label=$1
    shift
    local metrics
    metrics="$("$work/patcheckoctl" metrics -addr "http://$addr")"
    for want in "$@"; do
        case "$metrics" in
        *"$want"*) ;;
        *)
            echo "FAIL: $label /metrics missing $want:" >&2
            echo "$metrics" >&2
            exit 1
            ;;
        esac
    done
}

start_daemon

echo "==> submitting thingos-1.0 and fetching the normalized report"
"$work/patcheckoctl" submit -addr "http://$addr" \
    -dir "$work/corpus/thingos-1.0" -device thingos-1.0 -arch xarm32 \
    -normalize -out "$work/report.json"

echo "==> comparing against the committed golden report"
if ! cmp "$work/report.json" patchecko/testdata/golden_report_seed42.json; then
    echo "FAIL: served report diverges from patchecko/testdata/golden_report_seed42.json" >&2
    exit 1
fi

echo "==> resubmitting thingos-1.0 (served from the shared dedup tables)"
"$work/patcheckoctl" submit -addr "http://$addr" \
    -dir "$work/corpus/thingos-1.0" -device thingos-1.0 -arch xarm32 \
    -normalize -out "$work/report2.json"
if ! cmp "$work/report2.json" patchecko/testdata/golden_report_seed42.json; then
    echo "FAIL: rescan report diverges from patchecko/testdata/golden_report_seed42.json" >&2
    exit 1
fi

echo "==> checking /metrics"
require_metrics live '"jobs_admitted":2' '"jobs_completed":2' '"jobs":{"done":2}'

echo "==> restarting patcheckod on the same journal"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "FAIL: patcheckod did not exit cleanly on SIGTERM" >&2
    exit 1
fi
daemon_pid=""
start_daemon
require_metrics restarted '"jobs":{"done":2}'

echo "PASS: served scan and rescan are byte-identical to the committed golden report, and a restarted daemon answers for both finished jobs"
