//! Per-event-kind wall-clock profiling of the dispatch loop.

#[expect(
    clippy::disallowed_types,
    reason = "this module IS the profiling boundary: wall-clock readings stay behind the profiling opt-in and never reach golden output"
)]
use std::time::Instant;

use rica_metrics::{EventKindStats, EventProfile};

/// Accumulates dispatch counts and wall-ns histograms per event kind.
///
/// The harness wraps its event handler in
/// [`EventProfiler::start`]/[`EventProfiler::stop`] when profiling is
/// enabled. Wall-clock readings are inherently nondeterministic, so the
/// frozen [`EventProfile`] only ever appears in `TrialSummary`
/// diagnostics behind the profiling opt-in — never in golden output.
#[derive(Debug, Clone)]
pub struct EventProfiler {
    kinds: Vec<EventKindStats>,
}

impl EventProfiler {
    /// A profiler with one row per kind, labelled by `names` (indexed by
    /// the caller's kind discriminant).
    pub fn new(names: &[&'static str]) -> EventProfiler {
        EventProfiler { kinds: names.iter().map(|n| EventKindStats::new(n)).collect() }
    }

    /// Stamps the start of one dispatch.
    #[inline]
    #[expect(
        clippy::disallowed_types,
        reason = "diagnostics-only: dispatch timing behind the profiling opt-in"
    )]
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Records the dispatch of kind `kind` started at `t0`.
    #[inline]
    #[expect(
        clippy::disallowed_types,
        reason = "diagnostics-only: dispatch timing behind the profiling opt-in"
    )]
    pub fn stop(&mut self, kind: usize, t0: Instant) {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.kinds[kind].record(ns);
    }

    /// Freezes the accumulated rows (kinds that never fired keep their
    /// all-zero row, so the layout is stable across runs).
    pub fn finish(&self) -> EventProfile {
        EventProfile { kinds: self.kinds.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_against_the_right_kind() {
        let mut p = EventProfiler::new(&["a", "b"]);
        let t0 = p.start();
        p.stop(1, t0);
        let frozen = p.finish();
        assert_eq!(frozen.kinds.len(), 2);
        assert_eq!(frozen.kinds[0].count, 0);
        assert_eq!(frozen.kinds[1].count, 1);
        assert_eq!(frozen.kinds[1].kind, "b");
        assert_eq!(frozen.total_count(), 1);
    }
}
