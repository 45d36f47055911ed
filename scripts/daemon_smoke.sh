#!/usr/bin/env bash
# Daemon smoke test, sharded: start `rtt daemon --shards 2`, throw 8
# concurrent single submissions at it (6 unique instances + 2
# duplicates), then a pipelined batch (`submit --many`) that re-submits
# all of them plus 2 fresh instances, wait for everything, and assert
# the union of the shard journals shows exactly 8 jobs, all done —
# duplicates coalesced fleet-wide even when the accepting shard is not
# the owner. After a clean drain it restarts the daemon on the same
# spool: the replayed job state must answer `status` for all 8 ids and
# coalesce a resubmission without journaling anything.  The whole run
# is wrapped in a hard timeout by the caller (CI) or the default
# `timeout` below, so a wedged daemon is a failure, not a hang.
set -euo pipefail

RTT=${RTT:-_build/default/bin/rtt.exe}
WORK=$(mktemp -d)
SPOOL="$WORK/spool"
SOCKET="$WORK/d.sock"
mkdir -p "$SPOOL"

cleanup() {
  if [[ -n "${DAEMON_PID:-}" ]]; then
    kill -KILL "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_socket() {
  for _ in $(seq 1 100); do
    [[ -S "$SOCKET" ]] && return 0
    sleep 0.1
  done
  echo "FAIL: daemon never created its socket"
  exit 1
}
journal_lines() {
  for shard in shard-0 shard-1; do
    wc -l < "$SPOOL/$shard/journal.log"
  done
}

# six unique instances; submissions 7 and 8 duplicate the first two
for i in 1 2 3 4 5 6; do
  # n = 8*i gives each instance a distinct hub count — the hub
  # generator has few shapes per hub count, so nearby seeds collide
  "$RTT" gen -k hub -n "$((8 * i))" --seed "$((100 + i))" > "$WORK/in_$i.txt"
done
cp "$WORK/in_1.txt" "$WORK/in_7.txt"
cp "$WORK/in_2.txt" "$WORK/in_8.txt"
# two fresh instances the batch alone submits
"$RTT" gen -k hub -n 56 --seed 107 > "$WORK/in_9.txt"
"$RTT" gen -k hub -n 64 --seed 108 > "$WORK/in_10.txt"

"$RTT" daemon --spool "$SPOOL" --socket "$SOCKET" --shards 2 -b 3 --workers 2 &
DAEMON_PID=$!

# wait for the socket to appear (daemon binds before accepting)
wait_for_socket

# 8 concurrent waiters; every one must come back with a rendered result
# (half of these land on a shard that does not own the job and are
# relayed — the waiter cannot tell, which is the point)
PIDS=()
for i in 1 2 3 4 5 6 7 8; do
  "$RTT" submit "$WORK/in_$i.txt" --socket "$SOCKET" --wait --timeout 120 \
    > "$WORK/out_$i.txt" &
  PIDS+=("$!")
done
for pid in "${PIDS[@]}"; do
  wait "$pid" || { echo "FAIL: a waiter exited non-zero"; exit 1; }
done
for i in 1 2 3 4 5 6 7 8; do
  grep -q makespan "$WORK/out_$i.txt" \
    || { echo "FAIL: waiter $i got no rendering"; exit 1; }
done

# one pipelined batch: all ten instances in a single round trip, every
# already-solved one must coalesce (same id back), the two fresh ones
# must solve
printf '%s\n' "$WORK"/in_*.txt > "$WORK/manifest.txt"
"$RTT" submit --many "$WORK/manifest.txt" --socket "$SOCKET" --wait --timeout 120 \
  > "$WORK/batch.txt" \
  || { echo "FAIL: batch submit exited non-zero"; cat "$WORK/batch.txt"; exit 1; }
ACKS=$(grep -c '^/' "$WORK/batch.txt" || true)
mapfile -t IDS < <(awk '/^\// {print $2}' "$WORK/batch.txt" | sort -u)
IN1_ID=$(awk -v p="$WORK/in_1.txt" '$1 == p {print $2}' "$WORK/batch.txt")
DONES=$(grep -c ' done$' "$WORK/batch.txt" || true)
if [[ "$ACKS" -ne 10 || "$DONES" -ne 8 ]]; then
  echo "FAIL: batch expected 10 acks and 8 distinct done lines, got acks=$ACKS done=$DONES"
  cat "$WORK/batch.txt"
  exit 1
fi

# duplicates must have coalesced fleet-wide: exactly 8 unique jobs, all
# done, across the union of the shard journals — and both shards must
# actually own some of them (the fingerprint partition is not degenerate
# for this instance set)
JOBS=$("$RTT" jobs "$SPOOL" --json)
TOTAL=$(printf '%s\n' "$JOBS" | grep -c '"id"' || true)
DONE=$(printf '%s\n' "$JOBS" | grep -c '"state":"done"' || true)
if [[ "$TOTAL" -ne 8 || "$DONE" -ne 8 ]]; then
  echo "FAIL: expected 8 unique done jobs, got total=$TOTAL done=$DONE"
  printf '%s\n' "$JOBS"
  exit 1
fi
for shard in shard-0 shard-1; do
  [[ -s "$SPOOL/$shard/journal.log" ]] \
    || { echo "FAIL: $shard owns no jobs — partition degenerate"; exit 1; }
done

# session round trip over the sharded fleet: the sid-hashed owner may
# not be the shard that accepted the connection — the internal relay
# makes that invisible to the client. The second solve runs warm off
# the first answer and must render byte-identically to it
"$RTT" session open smoke1 --socket "$SOCKET" > /dev/null
"$RTT" session mutate smoke1 add-job 0:6 1:3 --socket "$SOCKET" > /dev/null
"$RTT" session mutate smoke1 add-job 0:4 2:1 --socket "$SOCKET" > /dev/null
"$RTT" session mutate smoke1 add-edge 0 1 --socket "$SOCKET" > /dev/null
REV=$("$RTT" session mutate smoke1 set-budget 3 --socket "$SOCKET")
[[ "$REV" == "smoke1 revision 4" ]] \
  || { echo "FAIL: expected 'smoke1 revision 4' after 4 mutations, got '$REV'"; exit 1; }
"$RTT" session solve smoke1 --socket "$SOCKET" > "$WORK/sess_cold.txt" 2>/dev/null
"$RTT" session solve smoke1 --socket "$SOCKET" > "$WORK/sess_warm.txt" 2> "$WORK/sess_warm.err"
cmp -s "$WORK/sess_cold.txt" "$WORK/sess_warm.txt" \
  || { echo "FAIL: warm session re-solve diverged from the cold solve"; exit 1; }
grep -q makespan "$WORK/sess_cold.txt" \
  || { echo "FAIL: session solve produced no rendering"; exit 1; }
grep -q '(warm)' "$WORK/sess_warm.err" \
  || { echo "FAIL: second session solve did not report a warm start"; exit 1; }
"$RTT" session close smoke1 --socket "$SOCKET" > /dev/null

# graceful shutdown: SIGTERM drains both shards and exits 0, removing
# the public socket and the internal shard sockets
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: drained daemon exited non-zero"; exit 1; }
DAEMON_PID=""
[[ -e "$SOCKET" ]] && { echo "FAIL: socket file left behind"; exit 1; }
if compgen -G "$SOCKET.shard*" >/dev/null; then
  echo "FAIL: internal shard socket left behind"
  exit 1
fi

# restart on the same spool: the shards rebuild their job state from
# their journals, and every lookup below is answered from that replay
LINES_BEFORE=$(journal_lines)
"$RTT" daemon --spool "$SPOOL" --socket "$SOCKET" --shards 2 -b 3 --workers 2 &
DAEMON_PID=$!
wait_for_socket
[[ "${#IDS[@]}" -eq 8 ]] \
  || { echo "FAIL: expected 8 distinct ids in the batch acks, got ${#IDS[@]}"; exit 1; }
for id in "${IDS[@]}"; do
  STATE=$("$RTT" status "$id" --socket "$SOCKET") \
    || { echo "FAIL: after restart, status $id exited non-zero"; exit 1; }
  [[ "$STATE" == *'"state":"done"'* ]] \
    || { echo "FAIL: after restart, $id is not done: $STATE"; exit 1; }
done
# a known instance coalesces onto its existing id and journals nothing
AGAIN=$("$RTT" submit "$WORK/in_1.txt" --socket "$SOCKET") \
  || { echo "FAIL: resubmit after restart exited non-zero"; exit 1; }
[[ -n "$IN1_ID" && "$AGAIN" == "$IN1_ID" ]] \
  || { echo "FAIL: resubmit after restart answered '$AGAIN', expected '$IN1_ID'"; exit 1; }
[[ "$(journal_lines)" == "$LINES_BEFORE" ]] \
  || { echo "FAIL: restart or resubmit appended journal records"; exit 1; }
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: restarted daemon exited non-zero on drain"; exit 1; }
DAEMON_PID=""

echo "PASS: 8 waiters + 10-entry pipelined batch over 2 shards, 8 unique jobs done, duplicates coalesced fleet-wide, session round trip warm==cold, clean drain, restart answers all 8 from replay and coalesces a resubmit without a record"
