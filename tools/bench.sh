#!/usr/bin/env bash
# Regenerate / compare the committed perf trajectory (BENCH_micro.json).
#
#   tools/bench.sh record <label>   build release, run the hotloop recorder,
#                                   append a snapshot
#   tools/bench.sh compare [--max-regress <pct>] [--markdown]
#                                   print first-vs-last snapshot speedups;
#                                   with --max-regress, exit 3 if the last
#                                   snapshot regressed more than <pct>% on
#                                   any entry vs the previous one; with
#                                   --markdown, emit the table as GitHub
#                                   markdown (PR descriptions / CI job
#                                   summaries)
#   tools/bench.sh smoke [pct]      quick CI gate: run the quick workloads,
#                                   append them to a scratch copy of the
#                                   committed quick baseline
#                                   (BENCH_smoke.json) and fail if anything
#                                   regressed more than pct% (default 75 —
#                                   generous because CI hardware differs
#                                   from the recording machine; the gate
#                                   exists to catch catastrophic hot-loop
#                                   regressions, not percent-level drift)
#
# The artifacts live at the repo root; snapshots are labeled and append-only,
# so the perf trajectory across PRs stays reviewable in git history.
#
# hotloop exits 2 on a malformed command line (nothing runs), 1 on a
# snapshot file it cannot read, parse or write, and 3 on a regression.
#
# Rows (see crates/bench/src/bin/hotloop.rs): eight substrate loops, none
# of which builds a world: the event queue (micro/event_queue_push_pop,
# micro/event_queue_backoff_storm), channel sampling on both tiers
# (micro/channel_class_sequential, micro/ou_sample_repeat_dt[_approx],
# micro/ziggurat_normal), mobility (micro/mobility_position) and the
# broadcast fan-out (micro/broadcast_fanout). `smoke` runs them all in
# quick mode in CI. Whole trials are timed by perfbench/ (BENCHMARK.json),
# and the golden trials in tests/golden_metrics.rs pin their work counts.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  record)
    label="${2:?usage: tools/bench.sh record <label>}"
    cargo build --release -q
    cargo run --release -q -p rica-bench --bin hotloop -- --label "$label"
    ;;
  compare)
    shift
    cargo run --release -q -p rica-bench --bin hotloop -- --compare "$@"
    ;;
  smoke)
    pct="${2:-75}"
    scratch="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
    trap 'rm -f "$scratch"' EXIT
    cp BENCH_smoke.json "$scratch"
    cargo run --release -q -p rica-bench --bin hotloop -- \
      --quick --label ci-smoke --json "$scratch"
    cargo run --release -q -p rica-bench --bin hotloop -- \
      --compare --json "$scratch" --max-regress "$pct"
    # Surface the per-entry speedup table in the CI job summary, when the
    # runner provides one (the gate above already failed on a regression).
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
      {
        echo "### Bench smoke: quick hot-loop vs committed baseline"
        cargo run --release -q -p rica-bench --bin hotloop -- \
          --compare --json "$scratch" --markdown
      } >> "$GITHUB_STEP_SUMMARY"
    fi
    ;;
  *)
    echo "usage: tools/bench.sh {record <label>|compare [--max-regress <pct>]|smoke [pct]}" >&2
    exit 2
    ;;
esac
