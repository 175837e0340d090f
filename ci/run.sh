#!/usr/bin/env bash
# The one definition of CI: `ci/run.sh <job>` runs one job, `ci/run.sh all`
# runs every job in order. .github/workflows/ci.yml is a matrix over the
# same job names that only calls this script. Each job runs under a
# wall-clock budget and reports PASS/FAIL with its wall time; the script
# exits non-zero if any failed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

JOBS=(test stress lint reclaim thp durability serving benchmark probes benches)
# Seconds: twice each job's time from an empty target directory on a
# 2-core box, and at least a minute.
declare -A BUDGET_S=(
  [test]=240 [stress]=180 [lint]=60 [reclaim]=60 [thp]=60
  [durability]=80 [serving]=80 [benchmark]=130 [probes]=80 [benches]=160
)

# Bench-sized fixtures and sweeps stay small enough for CI runners.
export ODF_BENCH_FAST=1

# `cargo test -q "$@"`, failing unless the harness ran at least `want`
# tests: a filter that matches nothing (a renamed or deleted test) would
# otherwise pass with "running 0 tests".
ctest() {
  local want=1 out ran
  if [[ ${1-} == --want=* ]]; then want=${1#--want=}; shift; fi
  out=$(cargo test -q "$@" 2>&1 | tee >(cat >&2))
  ran=$(sed -nE 's/^test result: .*[^0-9]([0-9]+) passed;.*/\1/p' <<<"$out" | awk '{n += $1} END {print n + 0}')
  if ((ran < want)); then
    echo "ran $ran tests, expected $want: cargo test $*" >&2
    return 1
  fi
}

repeat() { # count command...
  local n=$1 i
  shift
  for ((i = 1; i <= n; i++)); do
    echo "=== $* ($i/$n) ==="
    "$@"
  done
}

# Races are probabilistic, so these run alone, in release, 20x each: each
# test gets the whole machine's schedule, and a regression can't hide
# behind one lucky one. A row is: package, test target, exact test names.
ALONE=(
  # Capture and the THP/reclaim walkers hold page tables across chunks
  # under the shared mm lock, and fork holds each 1 GiB span's PMD tables
  # across its chunks while other processes' faults and forks run.
  "odf-tests --test=concurrency capture_of_a_live_process_survives_concurrent_table_cow_and_release"
  "odf-tests --test=thp collapse_vs_reclaim_eviction_round_trips_cleanly"
  "odf-tests --test=concurrency faults_race_forks_on_the_same_address_space"
  "odf-tests --test=resources concurrent_fork_trees_conserve_resources"
  # Every connection of a 4-shard server sends BGSAVE at once: the workers
  # take turns leading the fork barrier.
  "odf-tests --test=percore concurrent_bgsaves_take_turns_leading_the_barrier"
  # A `read_with` view borrows its frame while the closure runs.
  "odf-tests --test=concurrency views_pin_frames_against_concurrent_cow_and_release"
  # Table slots are type-stable, so a lockless walk can read a table freed
  # and reused under it: the staged reuse (before the walk reads the
  # table, and after it validated), then the reuse stress.
  "odf-vm --lib walk::tests::a_walk_whose_table_is_reused_under_it_reports_a_race walk::tests::a_table_reused_after_the_walk_validated_takes_no_bit"
  "odf-tests --test=concurrency reads_survive_table_frames_freed_and_reused_as_tables"
)

alone() { # package target name...
  local pkg=$1 target=$2
  shift 2
  ctest --want=$# -p "$pkg" --release "$target" -- --exact "$@"
}

stress_suites() {
  ctest -p odf-tests --release --test concurrency
  ctest -p odf-tests --release --test concurrent_differential
}

# Every iteration exhausts every write/fsync boundary for the test's fixed
# seed, then sweeps one more seed through the same enumeration: a fresh
# random one, or ODF_CRASH_SEED when it is set, printed so any
# counterexample reruns exactly.
crash_sweep() {
  local seed=${ODF_CRASH_SEED:-$(((RANDOM << 15) | RANDOM))}
  echo "replay: ODF_CRASH_SEED=$seed ci/run.sh durability"
  ODF_CRASH_SEED=$seed ctest -p odf-tests --release --test durability
}

# Worker/coordinator races: barrier vs traffic, DBSIZE fan-out vs
# shard-local writes, shutdown vs queued BGSAVEs. Every test ends in
# assert_pool_balanced.
percore_suites() {
  ctest -p odf-tests --release --test percore
  ctest -p odf-kvstore --release percore
}

run_job() {
  case $1 in
    test)
      cargo build --release
      ctest
      ;;
    stress)
      repeat 5 stress_suites
      # The suites that define the behaviour the range walks must keep;
      # tier-1 runs them in debug only.
      ctest -p odf-vm --release
      ctest -p odf-tests --release --test differential --test mremap
      local row
      for row in "${ALONE[@]}"; do
        # shellcheck disable=SC2086 # a row splits into its fields
        repeat 20 alone $row
      done
      ;;
    lint)
      cargo fmt --all --check
      cargo clippy --all-targets -- -D warnings
      ;;
    # Eviction races the fault path and fork under real memory pressure.
    reclaim) repeat 5 ctest -p odf-tests --release --test reclaim ;;
    # Collapse races faults, forks, and the reclaim scanner's
    # demote-before-evict handshake.
    thp) repeat 5 ctest -p odf-tests --release --test thp ;;
    durability) repeat 5 crash_sweep ;;
    serving)
      repeat 5 percore_suites
      # The request path's store reads against a HashMap model: every read
      # path, long and colliding keys, forked children, no faults.
      ctest -p odf-kvstore --release --test prop_store
      ;;
    benchmark)
      # benchmark/ is its own workspace, so the root build never compiles
      # it: a crate API change that breaks benchmark/src/api_surface.rs
      # shows up here.
      ctest --offline --manifest-path benchmark/Cargo.toml
      # Every workload, untraced and traced; exits non-zero when any run
      # reports failed > 0.
      cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
      ;;
    probes)
      ctest -p odf-core --release --test probes
      ctest -p odf-kvstore --release --test observability
      ctest -p odf-tests --release --test observability
      ;;
    benches)
      # With the ring buffers live, as a user debugging latency would.
      ODF_TRACE=1 cargo run --release -p odf-core --example quickstart
      # Each bench prints its tables, writes one BENCH_<name>.json per
      # table through odf_bench::Report, and asserts the claims its rows
      # must show; criterion's micro_ops is not one of them. observability
      # traces its whole run; probe_overhead must not: its detached
      # baseline takes the true fast path (one relaxed load), as
      # production would. Every bench runs even after one fails; the job
      # then fails, listing each failing bench and its time.
      local f b start failed=()
      for f in crates/bench/benches/*.rs; do
        b=$(basename "$f" .rs)
        echo "=== bench $b ==="
        start=$SECONDS
        case $b in
          micro_ops) continue ;;
          observability) ODF_TRACE=1 cargo bench -p odf-bench --bench "$b" ;;
          *) cargo bench -p odf-bench --bench "$b" ;;
        esac || failed+=("$b ($((SECONDS - start))s)")
      done
      if ((${#failed[@]})); then
        printf 'FAILED bench %s\n' "${failed[@]}" >&2
        return 1
      fi
      ;;
  esac
}

# The budget below runs each job in a fresh shell that sources this file
# for its definitions; stop here in that case.
[[ ${BASH_SOURCE[0]} == "$0" ]] || return 0

if [[ $# -eq 1 && $1 == all ]]; then
  jobs=("${JOBS[@]}")
elif [[ $# -eq 1 && " ${JOBS[*]} " == *" $1 "* ]]; then
  jobs=("$1")
else
  echo "usage: ci/run.sh <job>|all; jobs: ${JOBS[*]}" >&2
  exit 2
fi

summary=() failed=0
for job in "${jobs[@]}"; do
  start=$SECONDS status=PASS
  # Errexit holds inside the job's own shell, so its first failing
  # command ends it; the budget kills the job's whole process group.
  timeout -k 30 "${BUDGET_S[$job]}" bash -c 'source ci/run.sh; run_job "$1"' ci-job "$job" ||
    status=FAIL failed=1
  summary+=("$(printf '%s %-10s %5ds (budget %ds)' "$status" "$job" $((SECONDS - start)) "${BUDGET_S[$job]}")")
  echo "${summary[-1]}"
done
printf '%s\n' "=== ci/run.sh ${1} ===" "${summary[@]}"
exit "$failed"
