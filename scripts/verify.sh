#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the two sanitizer
# configurations over the concurrency-heavy suites and the multi-process
# cluster harness. ALPS_SOAK=1 adds the chaos and shard soaks to both (ctest
# inherits the variable).
#
#   scripts/verify.sh            # tier-1 + TSan + ASan/UBSan
#   scripts/verify.sh --tier1    # tier-1 only (what CI gates on)
#
# Both modes also build a clean `git archive HEAD` in a temp dir, so a file
# the build needs but git does not track fails here.
#
# Sanitizer builds go to build-thread/ and build-address/ so they never disturb
# the primary build/ tree. The sanitizer pass runs the suites that exercise
# kernel concurrency, the executor, supervision, multiactive scheduling and
# the codec fuzzers; the full matrix × every suite would triple the wall
# time for no additional coverage (the remaining suites are single-threaded
# protocol tests).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
TIER1_ONLY=0
[[ "${1:-}" == "--tier1" ]] && TIER1_ONLY=1

echo "== tier-1: default build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# A required file that git does not track (an over-broad .gitignore rule,
# a forgotten `git add`) builds fine in this working tree; a clean archive
# of the last commit exposes it.
echo "== clean archive: configure + build git archive HEAD =="
ARCHIVE_DIR=$(mktemp -d)
trap 'rm -rf "$ARCHIVE_DIR"' EXIT
git archive HEAD | tar -x -C "$ARCHIVE_DIR"
cmake -S "$ARCHIVE_DIR" -B "$ARCHIVE_DIR/build" >/dev/null
cmake --build "$ARCHIVE_DIR/build" -j "$JOBS"

if [[ "$TIER1_ONLY" == 1 ]]; then
  echo "verify: tier-1 OK"
  exit 0
fi

# Suites worth the sanitizer tax: everything that races threads on purpose.
SAN_SUITES=(
  core_buffer_test
  core_object_test core_select_test core_channel_test core_property_test
  core_supervision_test core_multiactive_test core_trace_test
  sched_executor_test sched_executor_stress_test
  net_test net_failure_test net_fault_test net_routing_test net_order_test
  net_socket_test net_transport_test
  codec_fuzz_test integration_test
)

for san in thread address; do
  echo "== ALPS_SANITIZE=$san build + concurrency suites =="
  cmake -B "build-$san" -S . -DALPS_SANITIZE="$san" >/dev/null
  cmake --build "build-$san" -j "$JOBS" --target "${SAN_SUITES[@]}" \
    cluster_harness
  for t in "${SAN_SUITES[@]}"; do
    echo "-- [$san] $t"
    "build-$san/tests/$t" --gtest_brief=1 || {
      echo "verify: $san/$t FAILED"; exit 1; }
  done
  # The multi-process scenarios; chaos and shard exit 77 (skipped) unless
  # ALPS_SOAK=1.
  for scenario in smoke chaos shard; do
    echo "-- [$san] cluster_harness $scenario"
    rc=0
    "build-$san/tests/cluster_harness" "$scenario" || rc=$?
    [[ $rc == 0 || $rc == 77 ]] || {
      echo "verify: $san/$scenario FAILED"; exit 1; }
  done
done

echo "verify: tier-1 + thread + address all OK"
