//! Averaging across repeated trials (the paper runs 25 per data point).

use std::collections::BTreeMap;

use rica_net::DropReason;

use crate::{TrialSummary, Welford};

/// Cross-trial aggregate of [`TrialSummary`] values.
///
/// Scalar metrics are averaged with mean ± sample std; the throughput time
/// series is averaged element-wise (Fig. 6 plots the mean curve).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean/std of the end-to-end delay (ms).
    pub delay_ms: Welford,
    /// Mean/std of the delivery percentage.
    pub delivery_pct: Welford,
    /// Mean/std of the routing overhead (kbps).
    pub overhead_kbps: Welford,
    /// Mean/std of the average traversed-link throughput (kbps).
    pub link_throughput_kbps: Welford,
    /// Mean/std of the average hop count.
    pub hops: Welford,
    /// Element-wise mean of the per-4s throughput series (kbps).
    pub throughput_kbps: Vec<f64>,
    /// Mean drops per reason.
    pub drops: BTreeMap<DropReason, f64>,
    /// Mean collisions per trial.
    pub collisions: f64,
    /// Mean link breaks per trial.
    pub link_breaks: f64,
}

impl Aggregate {
    /// Aggregates a non-empty set of trial summaries.
    ///
    /// # Panics
    ///
    /// Panics if `summaries` is empty.
    pub fn from_trials(summaries: &[TrialSummary]) -> Self {
        assert!(!summaries.is_empty(), "cannot aggregate zero trials");
        let mut delay = Welford::new();
        let mut delivery = Welford::new();
        let mut overhead = Welford::new();
        let mut link_tput = Welford::new();
        let mut hops = Welford::new();
        let mut drops: BTreeMap<DropReason, f64> = BTreeMap::new();
        let mut collisions = 0.0;
        let mut link_breaks = 0.0;
        let max_bins = summaries.iter().map(|s| s.throughput_kbps.len()).max().unwrap_or(0);
        let mut tput = vec![0.0f64; max_bins];
        for s in summaries {
            delay.push(s.delay_mean_ms);
            delivery.push(s.delivery_pct());
            overhead.push(s.overhead_kbps);
            link_tput.push(s.avg_link_throughput_kbps);
            hops.push(s.avg_hops);
            for (reason, &count) in &s.drops {
                *drops.entry(*reason).or_insert(0.0) += count as f64;
            }
            collisions += s.collisions as f64;
            link_breaks += s.link_breaks as f64;
            for (i, &v) in s.throughput_kbps.iter().enumerate() {
                tput[i] += v;
            }
        }
        let n = summaries.len() as f64;
        for v in drops.values_mut() {
            *v /= n;
        }
        for v in &mut tput {
            *v /= n;
        }
        Aggregate {
            trials: summaries.len(),
            delay_ms: delay,
            delivery_pct: delivery,
            overhead_kbps: overhead,
            link_throughput_kbps: link_tput,
            hops,
            throughput_kbps: tput,
            drops,
            collisions: collisions / n,
            link_breaks: link_breaks / n,
        }
    }

    /// Half-width of the confidence interval on the mean delivery
    /// percentage at critical value `z` (infinite below 2 trials) — the
    /// quantity adaptive sweeps drive to a target.
    pub fn delivery_ci_half_width(&self, z: f64) -> f64 {
        self.delivery_pct.ci_half_width(z)
    }

    /// Half-width of the confidence interval on the mean end-to-end
    /// delay (ms) at critical value `z` (infinite below 2 trials).
    pub fn delay_ci_half_width(&self, z: f64) -> f64 {
        self.delay_ms.ci_half_width(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_sim::SimDuration;

    fn summary(delay: f64, delivered: u64, generated: u64) -> TrialSummary {
        TrialSummary {
            duration: SimDuration::from_secs(10),
            generated,
            delivered,
            drops: BTreeMap::new(),
            delay_mean_ms: delay,
            delay_std_ms: 0.0,
            delay_p50_ms: delay,
            delay_p95_ms: delay,
            delay_max_ms: delay,
            control_bits: BTreeMap::new(),
            control_tx_count: 0,
            ack_bits: 0,
            overhead_kbps: 1.0,
            avg_link_throughput_kbps: 100.0,
            avg_hops: 3.0,
            throughput_kbps: vec![10.0, 20.0],
            collisions: 5,
            link_breaks: 2,
            ctrl_queue_drops: 0,
            workload: None,
            recovery: None,
            diagnostics: None,
        }
    }

    #[test]
    fn averages_scalars_and_series() {
        let a = Aggregate::from_trials(&[summary(100.0, 8, 10), summary(300.0, 6, 10)]);
        assert_eq!(a.trials, 2);
        assert_eq!(a.delay_ms.mean(), 200.0);
        assert_eq!(a.delivery_pct.mean(), 70.0);
        assert_eq!(a.throughput_kbps, vec![10.0, 20.0]);
        assert_eq!(a.collisions, 5.0);
    }

    #[test]
    fn ragged_series_padded() {
        let mut s1 = summary(1.0, 1, 1);
        s1.throughput_kbps = vec![4.0];
        let s2 = summary(1.0, 1, 1);
        let a = Aggregate::from_trials(&[s1, s2]);
        // Element 0: (4+10)/2; element 1: (0+20)/2.
        assert_eq!(a.throughput_kbps, vec![7.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn empty_panics() {
        Aggregate::from_trials(&[]);
    }

    #[test]
    fn drop_reasons_seen_in_some_trials_average_over_all() {
        let mut s1 = summary(1.0, 1, 2);
        s1.drops.insert(DropReason::BufferOverflow, 4);
        let mut s2 = summary(1.0, 1, 2);
        s2.drops.insert(DropReason::NoRoute, 2);
        let a = Aggregate::from_trials(&[s1, s2]);
        assert_eq!(a.drops[&DropReason::BufferOverflow], 2.0);
        assert_eq!(a.drops[&DropReason::NoRoute], 1.0);
    }
}
