#!/usr/bin/env bash
# Serving-mode soak smoke, two phases:
#
#  1. clean soak — drive vmtserve through bursty synthetic traffic,
#     SIGINT it mid-run, resume from the drained checkpoint, and
#     assert that the stitched telemetry stream is exactly the stream
#     an uninterrupted run produces — contiguous intervals, no gaps,
#     no duplicates, bitwise identical lines;
#
#  2. chaos soak — same fleet under an active fault plan (a 40-server
#     outage wave plus a cooling derate), SIGKILL the serving process
#     mid-run (no drain, no final checkpoint), corrupt the newest
#     retained snapshot, and restart: recovery must fall back to the
#     .prev generation and the post-recovery stream must still stitch
#     bitwise against an uninterrupted faulted reference.
#
# The interrupted legs run open-ended, so how far they get before the
# signal lands depends on the host's speed; each phase therefore sets
# its run length from where its first leg stopped, and the
# uninterrupted reference runs to that same length.
#
# Usage: scripts/serve_soak.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
VMTSERVE="$BUILD_DIR/tools/vmtserve"
[[ -x "$VMTSERVE" ]] || {
    echo "serve_soak: $VMTSERVE not built" >&2
    exit 1
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/vmt-serve-soak.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# A small fleet under heavy bursty load: bursts every 10 minutes,
# 3x for 3 minutes, so both the admission queue and the burst path
# are exercised inside the hour.
COMMON=(--servers 100 --pod-size 32 --policy wa
        --feed synthetic --users 120000 --req-rate 1.0
        --diurnal-trough 1.0
        --burst-period-hours 0.1666666666666667
        --burst-factor 3 --burst-minutes 3
        --seed 99 --threads 2)

echo "serve_soak: leg 1 (open-ended, SIGINT mid-run)"
"$VMTSERVE" "${COMMON[@]}" --minutes 0 \
    --checkpoint-every 5 --checkpoint-path "$WORK/soak.ckpt" \
    --telemetry-out "$WORK/leg1.jsonl" >/dev/null &
PID=$!

# Wait until the run is well underway, then ask it to stop. The
# driver drains to a final checkpoint at the interval boundary, so
# telemetry and snapshot stay in sync.
for _ in $(seq 1 300); do
    [[ -f "$WORK/leg1.jsonl" ]] &&
        (($(wc -l <"$WORK/leg1.jsonl") >= 20)) && break
    kill -0 "$PID" 2>/dev/null || {
        echo "serve_soak: leg 1 exited before the kill" >&2
        exit 1
    }
    sleep 0.1
done
kill -INT "$PID"
wait "$PID" || {
    echo "serve_soak: leg 1 did not exit cleanly after SIGINT" >&2
    exit 1
}
[[ -f "$WORK/soak.ckpt" ]] || {
    echo "serve_soak: leg 1 left no checkpoint" >&2
    exit 1
}
LEG1=$(wc -l <"$WORK/leg1.jsonl")
echo "serve_soak: leg 1 stopped after $LEG1 intervals"
((LEG1 >= 20)) || {
    echo "serve_soak: leg 1 interval count $LEG1 out of range" >&2
    exit 1
}
# Leg 2 runs 40 sim-minutes past the stop.
MINUTES=$((LEG1 + 40))

echo "serve_soak: reference run ($MINUTES uninterrupted sim-minutes)"
"$VMTSERVE" "${COMMON[@]}" --minutes "$MINUTES" \
    --telemetry-out "$WORK/reference.jsonl" >/dev/null

echo "serve_soak: leg 2 (resume to $MINUTES sim-minutes)"
"$VMTSERVE" "${COMMON[@]}" --minutes "$MINUTES" \
    --checkpoint-every 5 --checkpoint-path "$WORK/soak.ckpt" \
    --resume-from "$WORK/soak.ckpt" \
    --telemetry-out "$WORK/leg2.jsonl" >/dev/null

# Continuity: the stitched stream covers exactly intervals
# 0..MINUTES-1, strictly increasing, and matches the uninterrupted
# run bitwise.
cat "$WORK/leg1.jsonl" "$WORK/leg2.jsonl" >"$WORK/stitched.jsonl"
TOTAL=$(wc -l <"$WORK/stitched.jsonl")
((TOTAL == MINUTES)) || {
    echo "serve_soak: stitched stream has $TOTAL lines, want" \
        "$MINUTES" >&2
    exit 1
}
SEQ=$(sed -n 's/.*"interval":\([0-9]*\).*/\1/p' \
    "$WORK/stitched.jsonl" | tr '\n' ' ')
WANT=$(seq 0 $((MINUTES - 1)) | tr '\n' ' ')
[[ "$SEQ" == "$WANT" ]] || {
    echo "serve_soak: interval sequence has gaps or duplicates" >&2
    echo "  got: $SEQ" >&2
    exit 1
}
if ! cmp -s "$WORK/stitched.jsonl" "$WORK/reference.jsonl"; then
    echo "serve_soak: stitched telemetry differs from the" \
        "uninterrupted reference" >&2
    diff "$WORK/reference.jsonl" "$WORK/stitched.jsonl" | head >&2
    exit 1
fi

echo "serve_soak: OK ($MINUTES intervals, kill/resume bitwise" \
    "continuous)"

# ----------------------------------------------------------------
# Phase 2: chaos soak. An outage wave takes out 40 of the 100
# servers at t=15min (their jobs evacuate cross-shard), a cooling
# derate lands at t=20min, and repairs trickle back from t=35min.
cat >"$WORK/chaos.plan" <<'PLAN'
# hours  event          arg
0.25     server-down    0
0.25     server-down    1
0.25     server-down    2
0.25     server-down    3
0.25     server-down    4
0.25     server-down    5
0.25     server-down    6
0.25     server-down    7
0.25     server-down    8
0.25     server-down    9
0.25     server-down    10
0.25     server-down    11
0.25     server-down    12
0.25     server-down    13
0.25     server-down    14
0.25     server-down    15
0.25     server-down    16
0.25     server-down    17
0.25     server-down    18
0.25     server-down    19
0.25     server-down    20
0.25     server-down    21
0.25     server-down    22
0.25     server-down    23
0.25     server-down    24
0.25     server-down    25
0.25     server-down    26
0.25     server-down    27
0.25     server-down    28
0.25     server-down    29
0.25     server-down    30
0.25     server-down    31
0.25     server-down    32
0.25     server-down    33
0.25     server-down    34
0.25     server-down    35
0.25     server-down    36
0.25     server-down    37
0.25     server-down    38
0.25     server-down    39
0.3333   cooling-derate 3
0.5      cooling-restore
0.5833   server-up      0
0.5833   server-up      1
0.5833   server-up      2
0.5833   server-up      3
PLAN
CHAOS=("${COMMON[@]}" --fault-plan "$WORK/chaos.plan"
       --critical-temp 60 --max-queue-age 600)

echo "serve_soak: chaos leg 1 (SIGKILL mid-run, no drain)"
"$VMTSERVE" "${CHAOS[@]}" --minutes 0 \
    --checkpoint-every 5 --checkpoint-path "$WORK/chaos.ckpt" \
    --telemetry-out "$WORK/chaos1.jsonl" >/dev/null &
PID=$!
# Let it get past the outage (interval 15) and at least two
# checkpoint generations (so .prev exists), then hard-kill it.
for _ in $(seq 1 300); do
    [[ -f "$WORK/chaos.ckpt.prev" && -f "$WORK/chaos1.jsonl" ]] &&
        (($(wc -l <"$WORK/chaos1.jsonl") >= 22)) && break
    kill -0 "$PID" 2>/dev/null || {
        echo "serve_soak: chaos leg 1 exited before the kill" >&2
        exit 1
    }
    sleep 0.1
done
kill -KILL "$PID"
wait "$PID" 2>/dev/null && {
    echo "serve_soak: chaos leg 1 survived SIGKILL?" >&2
    exit 1
}
# The kill can land inside the save's rotation window, leaving only
# the .prev generation — that is exactly the crash recovery must
# absorb, so only the retained generation is required here.
[[ -f "$WORK/chaos.ckpt.prev" ]] || {
    echo "serve_soak: chaos leg 1 left no retained generation" >&2
    exit 1
}

# The faulted run goes to the plan's last repair (35 min) and at
# least 20 sim-minutes past the kill.
KILLED=$(wc -l <"$WORK/chaos1.jsonl")
CHAOS_MINUTES=$((KILLED + 20 > 60 ? KILLED + 20 : 60))

echo "serve_soak: chaos reference run ($CHAOS_MINUTES faulted" \
    "sim-minutes)"
"$VMTSERVE" "${CHAOS[@]}" --minutes "$CHAOS_MINUTES" \
    --telemetry-out "$WORK/chaos_ref.jsonl" >"$WORK/chaos_ref.out"
grep -q '"evacuated":[1-9]' "$WORK/chaos_ref.jsonl" || {
    echo "serve_soak: chaos reference shows no evacuations — the" \
        "plan never engaged" >&2
    exit 1
}

# Simulate the crash also eating the newest snapshot: recovery must
# fall back to the .prev generation instead of dying.
printf 'VMTSNAP\ntruncated' >"$WORK/chaos.ckpt"

echo "serve_soak: chaos leg 2 (recovery restart to $CHAOS_MINUTES" \
    "sim-minutes)"
"$VMTSERVE" "${CHAOS[@]}" --minutes "$CHAOS_MINUTES" \
    --checkpoint-every 5 --checkpoint-path "$WORK/chaos.ckpt" \
    --resume-from "$WORK/chaos.ckpt" \
    --telemetry-out "$WORK/chaos2.jsonl" >"$WORK/chaos2.out"

# The resumed stream starts where the recovered snapshot left off;
# everything leg 1 emitted after that snapshot is the replayed
# suffix, so trim leg 1 at the resume point before stitching.
RESUME=$(sed -n '1s/.*"interval":\([0-9]*\).*/\1/p' \
    "$WORK/chaos2.jsonl")
[[ -n "$RESUME" ]] || {
    echo "serve_soak: chaos leg 2 produced no telemetry" >&2
    exit 1
}
echo "serve_soak: recovered at interval $RESUME (from .prev)"
head -n "$RESUME" "$WORK/chaos1.jsonl" >"$WORK/chaos_stitch.jsonl"
cat "$WORK/chaos2.jsonl" >>"$WORK/chaos_stitch.jsonl"
TOTAL=$(wc -l <"$WORK/chaos_stitch.jsonl")
((TOTAL == CHAOS_MINUTES)) || {
    echo "serve_soak: chaos stitched stream has $TOTAL lines," \
        "want $CHAOS_MINUTES" >&2
    exit 1
}
if ! cmp -s "$WORK/chaos_stitch.jsonl" "$WORK/chaos_ref.jsonl"; then
    echo "serve_soak: post-recovery telemetry differs from the" \
        "uninterrupted faulted reference" >&2
    diff "$WORK/chaos_ref.jsonl" "$WORK/chaos_stitch.jsonl" |
        head >&2
    exit 1
fi

# Zero accounting leaks end to end: the faulted run's summary must
# balance its own books (the driver's conservation identities are
# asserted in-process; here we just require the evacuation actually
# moved jobs and the run finished every interval).
grep -q 'evacuated' "$WORK/chaos2.out" || {
    echo "serve_soak: chaos summary reports no evacuations" >&2
    exit 1
}

echo "serve_soak: OK (chaos: SIGKILL + corrupt snapshot recovered," \
    "stream bitwise continuous)"
