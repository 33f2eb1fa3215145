#!/usr/bin/env bash
# Regenerate / compare the committed perf trajectory (BENCH_micro.json).
#
#   tools/bench.sh record <label>   build release, run the hotloop recorder,
#                                   append a snapshot
#   tools/bench.sh compare [--max-regress <pct>] [--markdown]
#                                   print first-vs-last snapshot speedups;
#                                   with --max-regress, exit 2 if the last
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
# Workloads covered (see crates/bench/src/bin/hotloop.rs): the paper-grid
# trials per protocol, the 200-node scale trial on both channel tiers
# (trial/scale200/RICA, trial/scale200_approx/RICA), the bursty 200-node
# overload trial through rica-traffic (trial/workload_burst/RICA), and the
# substrate micro-loops including the approx-tier sampling pair
# (micro/ou_sample_repeat_dt[_approx], micro/ziggurat_normal). `smoke`
# runs them all in quick mode in CI.
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
