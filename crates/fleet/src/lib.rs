//! # rica-fleet — sharded, streaming, resumable sweep orchestration
//!
//! `rica-exec` runs one sweep in one process and holds every trial in
//! memory until the end. This crate scales that model out without
//! giving up its hard determinism guarantee:
//!
//! * **Shard manifests** ([`FleetManifest`]) — a serialisable split of a
//!   [`SweepPlan`](rica_exec::SweepPlan) into contiguous job-index
//!   sub-ranges. Seeds are a pure function of the plan, so any shard
//!   assignment reproduces the exact single-shot trial stream.
//! * **Streaming artifacts** ([`shard`]) — each shard streams one JSONL
//!   [`TrialRecord`](rica_metrics::TrialRecord) per finished trial, in
//!   plan order. A pass runs all its shards through one dispatcher that
//!   favours the protocol with the longest measured trials and holds at
//!   most `64 + workers` results back for ordering, whatever the sweep's
//!   size. The codec round-trips every float bit-exactly, which is
//!   what lets [`merge_fleet`] reassemble a
//!   [`SweepResult`](rica_exec::SweepResult) whose legacy
//!   `sweep_results.json` is **byte-identical** to a single-shot run.
//! * **Resumable checkpoints** ([`run_fleet`]) — on startup the
//!   coordinator validates every shard stream against the manifest
//!   (plan hash, job range, record count) and re-runs only the missing
//!   or truncated ones. Killing a fleet mid-sweep loses only the shards
//!   without a footer.
//! * **Adaptive stopping** ([`run_adaptive`]) — optional per-cell CI
//!   half-width targets on delivery and delay; cells run trial batches
//!   in rounds and stop individually once precise enough, recording
//!   realised trial counts in the report artifact.
//!
//! Like `rica-exec`, the library is generic over the protocol label and
//! takes the single-trial runner as a closure; the `fleet` binary binds
//! it to the real simulator via `rica-harness`.

#![warn(missing_docs)]

pub mod adaptive;
pub mod coordinator;
pub mod manifest;
pub mod shard;

pub use adaptive::{
    adaptive_json, run_adaptive, AdaptiveCell, AdaptiveConfig, AdaptiveReport, CI_Z,
};
pub use coordinator::{
    ensure_manifest, load_manifest, merge_fleet, merge_manifest, run_fleet, FleetReport,
    MANIFEST_FILE,
};
pub use manifest::{hash_hex, parse_hash_hex, FleetManifest, ShardSpec, MANIFEST_SCHEMA};
pub use shard::{read_shard, SHARD_SCHEMA};
