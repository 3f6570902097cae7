#!/usr/bin/env bash
# Serve soak: a fault-injected daemon serving rounds of concurrent clients,
# then a SIGTERM drain / restart / resume cycle. Passes only if
#   - every response body is byte-identical to the clean CLI reference,
#   - the daemon never dies uncleanly (every exit is 30, graceful drain),
#   - a journaled request interrupted by the drain resumes on the restarted
#     daemon to byte-identical merged output,
#   - the daemon's own {"op":"status"} accounting agrees with the soak: every
#     request completed, none shed or cancelled, not draining mid-soak.
# Also reports sustained service throughput (campaigns/sec) over the soak
# rounds — the wall-clock companion to BM_ServeThroughput.
#
#   tools/serve_soak.sh <byterobust binary> <scratch dir> [rounds]

set -u

CLI=$1
WORK=$2
ROUNDS=${3:-3}

rm -rf "$WORK"
mkdir -p "$WORK"

FAULTS="crash:0.2,throw:0.15,hang:0.5"
SOCK="$WORK/soak.sock"

fail() {
  echo "serve_soak: FAIL: $*" >&2
  [ -f "$WORK/serve.log" ] && sed 's/^/serve_soak: daemon: /' "$WORK/serve.log" >&2
  exit 1
}

start_daemon() { # $1: exit-code file
  local exit_file=$1
  (BYTEROBUST_HARNESS_FAULTS="$FAULTS" BYTEROBUST_SEED_TIMEOUT_S=0.5 \
   "$CLI" serve --socket "$SOCK" --workers 4 --jobs 4 \
       --pid-file "$WORK/serve.pid" >"$WORK/serve.log" 2>&1
   echo -n $? > "$exit_file") &
}

await_exit() { # $1: exit-code file
  local exit_file=$1
  for _ in $(seq 150); do
    [ -f "$exit_file" ] && break
    sleep 0.1
  done
  [ -f "$exit_file" ] || fail "daemon did not exit (no $exit_file)"
  local code
  code=$(cat "$exit_file")
  [ "$code" = "30" ] || fail "daemon exited $code, expected 30 (graceful drain)"
}

# Clean CLI references the fault-injected daemon must still reproduce.
"$CLI" campaign --scenario dense --seeds 6 --days 0.3 --stream \
    --out "$WORK/ref_campaign.json" >/dev/null || fail "reference campaign"
"$CLI" fleet --scenario fleet-mixed --seeds 4 --stream \
    --out "$WORK/ref_fleet.json" >/dev/null || fail "reference fleet"
"$CLI" campaign --scenario dense-month --seeds 24 --jobs 1 --stream \
    --out "$WORK/ref_resume.json" >/dev/null || fail "reference resume campaign"

start_daemon "$WORK/serve_1.exit"

CAMPAIGN_REQ='{"op":"campaign","scenario":"dense","seeds":6,"days":0.3,"jobs":4,"retries":8}'
FLEET_REQ='{"op":"fleet","scenario":"fleet-mixed","seeds":4,"jobs":4,"retries":8}'

soak_start=$(date +%s.%N)
for round in $(seq "$ROUNDS"); do
  pids=""
  for i in 1 2 3; do
    "$CLI" request --socket "$SOCK" --body "$CAMPAIGN_REQ" --wait-s 15 \
        --timeout-s 300 --out "$WORK/r${round}_c${i}.json" >/dev/null 2>&1 &
    pids="$pids $!"
  done
  "$CLI" request --socket "$SOCK" --body "$FLEET_REQ" --wait-s 15 \
      --timeout-s 300 --out "$WORK/r${round}_fleet.json" >/dev/null 2>&1 &
  pids="$pids $!"
  for p in $pids; do
    wait "$p" || fail "round $round: a concurrent client failed"
  done
  for i in 1 2 3; do
    cmp -s "$WORK/ref_campaign.json" "$WORK/r${round}_c${i}.json" ||
        fail "round $round client $i: campaign body not byte-identical"
  done
  cmp -s "$WORK/ref_fleet.json" "$WORK/r${round}_fleet.json" ||
      fail "round $round: fleet body not byte-identical"
  echo "serve_soak: round $round/$ROUNDS byte-stable"
done
soak_end=$(date +%s.%N)

# Throughput over the soak rounds: 4 campaign/fleet requests per round.
total_reqs=$((ROUNDS * 4))
awk -v n="$total_reqs" -v t0="$soak_start" -v t1="$soak_end" 'BEGIN {
  dt = t1 - t0
  if (dt <= 0) dt = 0.001
  printf "serve_soak: throughput %d requests in %.2fs (%.2f campaigns/sec)\n", n, dt, n / dt
}'

# The daemon's own accounting must agree with what the soak just did: every
# request admitted and completed, nothing shed or cancelled, latency histogram
# populated, and not draining.
status=$("$CLI" request --socket "$SOCK" --body '{"op":"status"}' --raw \
    --wait-s 5 --timeout-s 30 2>/dev/null) || fail "status request failed"
echo "$status" > "$WORK/status_soak.json"
case "$status" in
  *'"draining":false'*) ;;
  *) fail "status reports draining mid-soak: $status" ;;
esac
case "$status" in
  *"\"completed\":$total_reqs,"*) ;;
  *) fail "status completed != $total_reqs: $status" ;;
esac
case "$status" in
  *'"shed":0,'*) ;;
  *) fail "status reports sheds during the soak: $status" ;;
esac
case "$status" in
  *'"cancelled":0,'*) ;;
  *) fail "status reports cancels during the soak: $status" ;;
esac
case "$status" in
  *"\"latency_count\":$total_reqs,"*) ;;
  *) fail "status latency_count != $total_reqs: $status" ;;
esac
echo "serve_soak: status accounting consistent ($total_reqs completed, 0 shed, 0 cancelled)"

# SIGTERM drain mid-request: the journaled request is cancelled cooperatively
# (a partial response or, if the race finished first, a complete one) and the
# daemon exits 30.
"$CLI" request --socket "$SOCK" \
    --body "{\"op\":\"campaign\",\"scenario\":\"dense-month\",\"seeds\":24,\"jobs\":1,\"retries\":8,\"journal\":\"$WORK/soak.journal\"}" \
    --raw --timeout-s 300 >"$WORK/journaled.json" 2>/dev/null &
cpid=$!
sleep 0.5
kill -TERM "$(cat "$WORK/serve.pid")" || fail "could not signal daemon"
# The daemon keeps serving status while draining, so the drain must become
# visible as draining:true. Poll: the signal lands asynchronously (an early
# probe can still see draining:false), and the daemon may finish the drain
# and exit before any probe connects — both races resolve within the loop.
for _ in $(seq 50); do
  if drain_status=$("$CLI" request --socket "$SOCK" --body '{"op":"status"}' \
      --raw --wait-s 0 --timeout-s 10 2>/dev/null); then
    case "$drain_status" in
      *'"draining":true'*) echo "serve_soak: drain visible in status"; break ;;
    esac
    sleep 0.1
  else
    break  # daemon already drained and exited; await_exit checks the code
  fi
done
wait "$cpid"
client_rc=$?
[ "$client_rc" = "30" ] || [ "$client_rc" = "0" ] ||
    fail "journaled client exited $client_rc across the drain, expected 30 or 0"
await_exit "$WORK/serve_1.exit"
echo "serve_soak: SIGTERM drain clean (journaled client exit $client_rc)"

# Restart; the resumed request must merge to the straight-CLI bytes even with
# fault injection still active.
start_daemon "$WORK/serve_2.exit"
"$CLI" request --socket "$SOCK" \
    --body "{\"op\":\"campaign\",\"scenario\":\"dense-month\",\"seeds\":24,\"jobs\":1,\"retries\":8,\"resume\":\"$WORK/soak.journal\"}" \
    --wait-s 15 --timeout-s 300 --out "$WORK/resumed.json" >/dev/null 2>&1 ||
    fail "resume request failed"
cmp -s "$WORK/ref_resume.json" "$WORK/resumed.json" ||
    fail "resumed body not byte-identical to the straight CLI run"
"$CLI" request --socket "$SOCK" --body '{"op":"shutdown"}' --raw \
    --wait-s 5 --timeout-s 30 >/dev/null || fail "shutdown request failed"
await_exit "$WORK/serve_2.exit"

echo "serve_soak: PASS ($ROUNDS rounds, drain/restart/resume byte-identical)"
