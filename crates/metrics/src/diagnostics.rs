//! Internal-health diagnostics of one trial, unified into a single
//! struct instead of the ad-hoc per-subsystem getters earlier PRs grew.
//!
//! [`WorldDiagnostics`] is *not* a paper metric: nothing in it describes
//! protocol behaviour, only how the simulator itself ran (event-queue
//! volume, channel-table occupancy, cache effectiveness, wall-clock cost
//! per event kind). It is attached to
//! [`TrialSummary::diagnostics`](crate::TrialSummary) only when the run
//! opted into profiling, so golden `Debug` renderings of ordinary trials
//! stay byte-identical.

/// How the simulator itself ran during one trial: event-queue volume and
/// shape, channel-table and cache occupancy, MAC medium activity, and —
/// when profiling was enabled — per-event-kind wall-clock cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorldDiagnostics {
    /// Events still scheduled when the trial ended (includes cancelled
    /// events that never surfaced).
    pub pending_events: usize,
    /// Events popped from the queue over the whole trial.
    pub popped_events: u64,
    /// Always 0: the event queue is a plain binary heap with nothing to
    /// re-tune. Kept so readers of this struct keep compiling.
    pub calendar_retunes: u64,
    /// Channel pair processes instantiated (distinct node pairs that ever
    /// exchanged energy).
    pub channel_active_pairs: usize,
    /// Times the channel pair table grew past its initial sizing.
    pub channel_table_growths: u32,
    /// `(hits, misses)` of the shared OU decay caches. Always `Some`: the
    /// caches are always on; the `Option` stays for existing readers.
    pub decay_cache: Option<(u64, u64)>,
    /// Transmissions ever begun on the CSMA/CA common medium.
    pub medium_txs: u64,
    /// Per-event-kind dispatch cost; `None` unless the run enabled
    /// profiling (wall-clock numbers are inherently nondeterministic, so
    /// they never ride along by default).
    pub event_profile: Option<EventProfile>,
}

/// Count and wall-clock cost of every simulator event kind dispatched
/// during a trial (the PR 4/5 ad-hoc profiling methodology, promoted).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventProfile {
    /// One row per event kind, in the harness's dispatch order.
    pub kinds: Vec<EventKindStats>,
}

impl EventProfile {
    /// Total events across kinds.
    pub fn total_count(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    /// Total wall nanoseconds across kinds.
    pub fn total_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.total_ns).sum()
    }
}

/// Aggregated dispatch cost of one event kind.
#[derive(Debug, Clone, PartialEq)]
pub struct EventKindStats {
    /// Event-kind label (stable; used in reports).
    pub kind: &'static str,
    /// Times an event of this kind was dispatched.
    pub count: u64,
    /// Total wall nanoseconds spent in the handler.
    pub total_ns: u64,
    /// Worst single dispatch (wall ns).
    pub max_ns: u64,
    /// log2 histogram of per-dispatch wall ns: bucket `i` counts
    /// dispatches with `ns.ilog2() == i` (0 ns lands in bucket 0; ≥ 2³¹ ns
    /// saturates into the last bucket).
    pub hist_log2_ns: [u64; 32],
}

impl EventKindStats {
    /// Fresh all-zero row for `kind`.
    pub fn new(kind: &'static str) -> Self {
        EventKindStats { kind, count: 0, total_ns: 0, max_ns: 0, hist_log2_ns: [0; 32] }
    }

    /// Records one dispatch that took `ns` wall nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = if ns == 0 { 0 } else { (63 - ns.leading_zeros()).min(31) as usize };
        self.hist_log2_ns[bucket] += 1;
    }

    /// Mean dispatch cost (wall ns); 0 when nothing was recorded.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = EventKindStats::new("x");
        s.record(0);
        s.record(1);
        s.record(2);
        s.record(3);
        s.record(1024);
        s.record(u64::MAX);
        assert_eq!(s.count, 6);
        assert_eq!(s.max_ns, u64::MAX);
        assert_eq!(s.hist_log2_ns[0], 2); // 0 and 1
        assert_eq!(s.hist_log2_ns[1], 2); // 2 and 3
        assert_eq!(s.hist_log2_ns[10], 1); // 1024
        assert_eq!(s.hist_log2_ns[31], 1); // saturated
        assert!((s.mean_ns() - (s.total_ns as f64 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn profile_totals_sum_over_kinds() {
        let mut a = EventKindStats::new("a");
        a.record(5);
        let mut b = EventKindStats::new("b");
        b.record(7);
        b.record(1);
        let p = EventProfile { kinds: vec![a, b] };
        assert_eq!(p.total_count(), 3);
        assert_eq!(p.total_ns(), 13);
    }
}
