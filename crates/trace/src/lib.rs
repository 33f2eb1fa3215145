//! # rica-trace — observability for the RICA simulator
//!
//! A zero-overhead-when-disabled layer with three faces:
//!
//! 1. **Structured event tracing** ([`TraceEvent`], [`TraceSink`]): the
//!    harness, MAC and all five protocols emit packet-lifecycle and
//!    route-lifecycle events into a pluggable sink — a no-op, a JSONL
//!    writer ([`JsonlSink`]) or a bounded in-memory ring
//!    ([`RingSink`]).
//! 2. **Time-series sampling** ([`TimeseriesRecorder`]): a fixed-interval
//!    sampler records queue depths, event-queue volume, the per-class
//!    link census and per-flow offered/delivered counts, and renders
//!    them as a single JSON artifact for "metric vs time" figures.
//! 3. **Per-event-kind profiling** ([`EventProfiler`]): count + wall-ns
//!    histograms per simulator event kind, frozen into
//!    [`rica_metrics::EventProfile`].
//!
//! ## The determinism contract
//!
//! Tracing *reads* simulator state and never writes it: no sink, sampler
//! or profiler may draw from an RNG, advance a channel process, or
//! reorder events. `tests/trace_identity.rs` (workspace root) pins
//! trace-on ⇔ trace-off bit-identity of the full `TrialSummary` for all
//! five protocols.

#![warn(missing_docs)]

mod event;
mod profile;
mod sink;
mod timeseries;

pub use event::TraceEvent;
pub use profile::EventProfiler;
pub use sink::{JsonlSink, RingSink, TraceSink};
pub use timeseries::{SampleRow, TimeseriesRecorder};
