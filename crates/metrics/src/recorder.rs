//! The live per-trial metrics recorder and its frozen summary.

use std::collections::BTreeMap;

use rica_net::{ControlKind, DataPacket, DropReason};
use rica_sim::{SimDuration, SimTime};

use crate::Welford;

/// Width of the aggregate-throughput bins (Fig. 6: "every 4 seconds").
pub const THROUGHPUT_BIN: SimDuration = SimDuration::from_secs(4);

/// Live metrics recorder for one simulation trial.
///
/// The harness calls the `on_*` hooks as events happen; [`Metrics::finish`]
/// freezes everything into a [`TrialSummary`].
#[derive(Debug, Default)]
pub struct Metrics {
    generated: u64,
    delivered: u64,
    delay: Welford,
    delays_ms: Vec<f64>,
    /// Flat counters indexed by `DropReason as usize` / `ControlKind as
    /// usize` — these are bumped on the simulator hot path, where a map
    /// probe per packet is measurable. [`Metrics::finish`] folds them back
    /// into the summary's maps (zero entries omitted, as the map-based
    /// recorder produced).
    drops: [u64; DropReason::ALL.len()],
    control_bits: [u64; ControlKind::ALL.len()],
    control_tx_count: u64,
    ack_bits: u64,
    hops_total: u64,
    rate_sum_total_kbps: f64,
    throughput_bins_bits: Vec<u64>,
    collisions: u64,
    link_breaks: u64,
    ctrl_queue_drops: u64,
    /// Per-flow offered-load/delivery accumulators; `None` until
    /// [`Metrics::enable_workload`] opts the trial in (the harness does so
    /// for every non-default workload, keeping default trials — and their
    /// pinned golden summaries — untouched).
    workload: Option<WorkloadAcc>,
    /// Fault/recovery accumulators; `None` until
    /// [`Metrics::enable_recovery`] opts the trial in (the harness does so
    /// whenever a non-empty fault plan is attached, keeping fault-free
    /// trials and their pinned goldens untouched).
    recovery: Option<RecoveryAcc>,
}

/// Kind of fault event reported to [`Metrics::on_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A node crashed (state lost, radios off).
    Crash,
    /// A crashed node rebooted cold.
    Reboot,
    /// A partition episode started (links across the cut went dark).
    PartitionStart,
    /// A partition episode healed.
    PartitionHeal,
}

#[derive(Debug, Default)]
struct RecoveryAcc {
    crashes: u64,
    reboots: u64,
    partitions: u64,
    heals: u64,
    /// Time of the most recent fault onset or recovery event — drops after
    /// this instant are attributed to it when they open a disruption window.
    last_fault_t: Option<SimTime>,
    /// Crashes/partitions currently in effect (reboot/heal decrement);
    /// deliveries while positive count as `delivered_disrupted`.
    active_disturbances: u32,
    delivered_intact: u64,
    delivered_disrupted: u64,
    /// Per-flow open disruption window: `(fault_t, first_drop_t)`.
    windows: Vec<Option<(SimTime, SimTime)>>,
    windows_opened: u64,
    windows_closed: u64,
    disruption: Welford,
    disruption_max_ms: f64,
    reroute: Welford,
    reroute_max_ms: f64,
}

impl RecoveryAcc {
    fn window(&mut self, flow: u32) -> &mut Option<(SimTime, SimTime)> {
        let idx = flow as usize;
        if self.windows.len() <= idx {
            self.windows.resize(idx + 1, None);
        }
        &mut self.windows[idx]
    }
}

#[derive(Debug, Default)]
struct WorkloadAcc {
    offered_bits: u64,
    flows: Vec<FlowAcc>,
}

#[derive(Debug, Default, Clone)]
struct FlowAcc {
    generated: u64,
    delivered: u64,
    offered_bits: u64,
    delivered_bits: u64,
    delay: Welford,
}

impl WorkloadAcc {
    fn flow(&mut self, flow: u32) -> &mut FlowAcc {
        let idx = flow as usize;
        if self.flows.len() <= idx {
            self.flows.resize(idx + 1, FlowAcc::default());
        }
        &mut self.flows[idx]
    }
}

impl Metrics {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Opts the trial into workload accounting: offered load (generated
    /// bits) and per-flow delivery/latency breakdowns, frozen into
    /// [`TrialSummary::workload`]. Expected flow count `flows` pre-sizes
    /// the table (flows beyond it still record).
    pub fn enable_workload(&mut self, flows: usize) {
        let mut acc = WorkloadAcc::default();
        acc.flows.resize(flows, FlowAcc::default());
        self.workload = Some(acc);
    }

    /// Opts the trial into fault-recovery accounting: disruption windows,
    /// time-to-reroute, and the intact/disrupted delivery split, frozen
    /// into [`TrialSummary::recovery`]. Expected flow count `flows`
    /// pre-sizes the window table (flows beyond it still record).
    pub fn enable_recovery(&mut self, flows: usize) {
        let mut acc = RecoveryAcc::default();
        acc.windows.resize(flows, None);
        self.recovery = Some(acc);
    }

    /// A fault event fired at `now` (only meaningful after
    /// [`Metrics::enable_recovery`]; a no-op otherwise).
    pub fn on_fault(&mut self, kind: FaultKind, now: SimTime) {
        if let Some(r) = &mut self.recovery {
            r.last_fault_t = Some(now);
            match kind {
                FaultKind::Crash => {
                    r.crashes += 1;
                    r.active_disturbances += 1;
                }
                FaultKind::Reboot => {
                    r.reboots += 1;
                    r.active_disturbances = r.active_disturbances.saturating_sub(1);
                }
                FaultKind::PartitionStart => {
                    r.partitions += 1;
                    r.active_disturbances += 1;
                }
                FaultKind::PartitionHeal => {
                    r.heals += 1;
                    r.active_disturbances = r.active_disturbances.saturating_sub(1);
                }
            }
        }
    }

    /// A source generated a data packet of `bits` on-air bits for `flow`
    /// (offered-load accounting only when workload recording is enabled).
    pub fn on_generated_flow(&mut self, flow: u32, bits: u64) {
        self.generated += 1;
        if let Some(w) = &mut self.workload {
            w.offered_bits += bits;
            let f = w.flow(flow);
            f.generated += 1;
            f.offered_bits += bits;
        }
    }

    /// A data packet reached its destination at `now`.
    pub fn on_delivered(&mut self, pkt: &DataPacket, now: SimTime) {
        self.delivered += 1;
        let delay_ms = now.saturating_since(pkt.created_at).as_secs_f64() * 1e3;
        self.delay.push(delay_ms);
        self.delays_ms.push(delay_ms);
        self.hops_total += pkt.hops as u64;
        self.rate_sum_total_kbps += pkt.rate_sum_kbps;
        let bin = (now.as_nanos() / THROUGHPUT_BIN.as_nanos()) as usize;
        if self.throughput_bins_bits.len() <= bin {
            self.throughput_bins_bits.resize(bin + 1, 0);
        }
        self.throughput_bins_bits[bin] += pkt.size_bits();
        if let Some(w) = &mut self.workload {
            let f = w.flow(pkt.flow.0);
            f.delivered += 1;
            f.delivered_bits += pkt.size_bits();
            f.delay.push(delay_ms);
        }
        if let Some(r) = &mut self.recovery {
            if r.active_disturbances > 0 {
                r.delivered_disrupted += 1;
            } else {
                r.delivered_intact += 1;
            }
            if let Some((fault_t, first_drop_t)) = r.window(pkt.flow.0).take() {
                let disruption_ms = now.saturating_since(first_drop_t).as_secs_f64() * 1e3;
                let reroute_ms = now.saturating_since(fault_t).as_secs_f64() * 1e3;
                r.windows_closed += 1;
                r.disruption.push(disruption_ms);
                r.disruption_max_ms = r.disruption_max_ms.max(disruption_ms);
                r.reroute.push(reroute_ms);
                r.reroute_max_ms = r.reroute_max_ms.max(reroute_ms);
            }
        }
    }

    /// A data packet of `flow` was dropped at `now` (disruption-window
    /// accounting only when recovery recording is enabled: the first drop
    /// on a flow after a fault opens a window that the flow's next
    /// delivery closes).
    pub fn on_dropped_flow(&mut self, flow: u32, reason: DropReason, now: SimTime) {
        self.drops[reason as usize] += 1;
        if let Some(r) = &mut self.recovery {
            if let Some(fault_t) = r.last_fault_t {
                let slot = r.window(flow);
                if slot.is_none() {
                    *slot = Some((fault_t, now));
                    r.windows_opened += 1;
                }
            }
        }
    }

    /// A control packet of `kind` was transmitted on the common channel
    /// (each transmission counts, per §III.A).
    pub fn on_control_tx(&mut self, kind: ControlKind, bits: u64) {
        self.control_bits[kind as usize] += bits;
        self.control_tx_count += 1;
    }

    /// A data acknowledgment was transmitted on a reverse PN channel.
    pub fn on_ack_tx(&mut self, bits: u64) {
        self.ack_bits += bits;
    }

    /// A common-channel reception was lost to a collision.
    pub fn on_collision(&mut self) {
        self.collisions += 1;
    }

    /// The data plane declared a link broken.
    pub fn on_link_break(&mut self) {
        self.link_breaks += 1;
    }

    /// A control packet was dropped because a node's MAC queue overflowed.
    pub fn on_ctrl_queue_drop(&mut self) {
        self.ctrl_queue_drops += 1;
    }

    /// Packets generated so far (for conservation checks).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped so far (all reasons).
    pub fn dropped(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Freezes the recorder into a summary for a run of length `duration`.
    pub fn finish(self, duration: SimDuration) -> TrialSummary {
        let control_bits_total: u64 = self.control_bits.iter().sum();
        // Only reasons/kinds that actually occurred appear in the maps —
        // counts are always positive when present.
        let drops: BTreeMap<DropReason, u64> = DropReason::ALL
            .into_iter()
            .filter(|&r| self.drops[r as usize] > 0)
            .map(|r| (r, self.drops[r as usize]))
            .collect();
        let control_bits: BTreeMap<ControlKind, u64> = ControlKind::ALL
            .into_iter()
            .filter(|&k| self.control_bits[k as usize] > 0)
            .map(|k| (k, self.control_bits[k as usize]))
            .collect();
        let secs = duration.as_secs_f64().max(f64::MIN_POSITIVE);
        let bins = (duration.as_nanos() / THROUGHPUT_BIN.as_nanos()) as usize;
        let mut tput = self.throughput_bins_bits.clone();
        tput.resize(bins.max(tput.len()), 0);
        let mut delays = self.delays_ms;
        delays.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            if delays.is_empty() {
                0.0
            } else {
                let idx = ((delays.len() - 1) as f64 * q).round() as usize;
                delays[idx]
            }
        };
        TrialSummary {
            duration,
            generated: self.generated,
            delivered: self.delivered,
            drops,
            delay_mean_ms: self.delay.mean(),
            delay_std_ms: self.delay.population_std(),
            delay_p50_ms: pct(0.50),
            delay_p95_ms: pct(0.95),
            delay_max_ms: delays.last().copied().unwrap_or(0.0),
            control_bits,
            control_tx_count: self.control_tx_count,
            ack_bits: self.ack_bits,
            overhead_kbps: (control_bits_total + self.ack_bits) as f64 / secs / 1e3,
            avg_link_throughput_kbps: if self.hops_total == 0 {
                0.0
            } else {
                self.rate_sum_total_kbps / self.hops_total as f64
            },
            avg_hops: if self.delivered == 0 {
                0.0
            } else {
                self.hops_total as f64 / self.delivered as f64
            },
            throughput_kbps: tput
                .iter()
                .map(|&bits| bits as f64 / THROUGHPUT_BIN.as_secs_f64() / 1e3)
                .collect(),
            collisions: self.collisions,
            link_breaks: self.link_breaks,
            ctrl_queue_drops: self.ctrl_queue_drops,
            workload: self.workload.map(|w| WorkloadSummary {
                offered_bits: w.offered_bits,
                flows: w
                    .flows
                    .iter()
                    .map(|f| FlowSummary {
                        generated: f.generated,
                        delivered: f.delivered,
                        offered_bits: f.offered_bits,
                        delivered_bits: f.delivered_bits,
                        delay_mean_ms: f.delay.mean(),
                    })
                    .collect(),
            }),
            recovery: self.recovery.map(|r| RecoverySummary {
                crashes: r.crashes,
                reboots: r.reboots,
                partitions: r.partitions,
                heals: r.heals,
                delivered_intact: r.delivered_intact,
                delivered_disrupted: r.delivered_disrupted,
                disrupted_flows: r.windows_opened,
                recovered_flows: r.windows_closed,
                unrecovered_flows: r.windows.iter().filter(|w| w.is_some()).count() as u64,
                disruption_mean_ms: r.disruption.mean(),
                disruption_max_ms: r.disruption_max_ms,
                reroute_mean_ms: r.reroute.mean(),
                reroute_max_ms: r.reroute_max_ms,
            }),
            diagnostics: None,
        }
    }
}

/// Fault-recovery observables of one trial, present only when the trial
/// opted in via [`Metrics::enable_recovery`] (the harness does so
/// whenever a non-empty fault plan is attached).
///
/// A *disruption window* opens at a flow's first drop after a fault and
/// closes at that flow's next delivery: the window length is the
/// user-visible service gap, and the span from the fault itself to the
/// closing delivery is the protocol's *time to reroute*.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoverySummary {
    /// Node crashes injected (explicit and churn).
    pub crashes: u64,
    /// Node reboots injected.
    pub reboots: u64,
    /// Partition episodes started.
    pub partitions: u64,
    /// Partition episodes healed.
    pub heals: u64,
    /// Packets delivered while no disturbance was in effect.
    pub delivered_intact: u64,
    /// Packets delivered while at least one crash/partition was in effect.
    pub delivered_disrupted: u64,
    /// Disruption windows opened (flows that dropped a packet post-fault).
    pub disrupted_flows: u64,
    /// Disruption windows closed by a later delivery on the same flow.
    pub recovered_flows: u64,
    /// Windows still open when the trial ended (service never resumed).
    pub unrecovered_flows: u64,
    /// Mean closed-window length: first post-fault drop → next delivery (ms).
    pub disruption_mean_ms: f64,
    /// Worst closed-window length (ms).
    pub disruption_max_ms: f64,
    /// Mean fault → next delivery span over closed windows (ms).
    pub reroute_mean_ms: f64,
    /// Worst fault → next delivery span (ms).
    pub reroute_max_ms: f64,
}

/// Offered-load and per-flow breakdowns of one trial, present only when
/// the trial opted in via [`Metrics::enable_workload`] (the harness does
/// so whenever a flow's workload departs from the paper default).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadSummary {
    /// Total on-air bits generated at sources (payload + data header) —
    /// the *offered* load, as opposed to the delivered throughput.
    pub offered_bits: u64,
    /// Per-flow breakdowns, indexed by `FlowId`.
    pub flows: Vec<FlowSummary>,
}

impl WorkloadSummary {
    /// Offered load in kbps over a trial of length `duration`.
    pub fn offered_kbps(&self, duration: SimDuration) -> f64 {
        bits_to_kbps(self.offered_bits, duration)
    }
}

/// One flow's share of a trial (see [`WorkloadSummary`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowSummary {
    /// Packets generated at the flow's source.
    pub generated: u64,
    /// Packets delivered to the flow's destination.
    pub delivered: u64,
    /// On-air bits generated (offered load share).
    pub offered_bits: u64,
    /// On-air bits delivered.
    pub delivered_bits: u64,
    /// Mean end-to-end delay of the flow's delivered packets (ms).
    pub delay_mean_ms: f64,
}

impl FlowSummary {
    /// The flow's delivery ratio in `[0, 1]` (1 if nothing was generated).
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// The flow's offered load in kbps over a trial of length `duration`.
    pub fn offered_kbps(&self, duration: SimDuration) -> f64 {
        bits_to_kbps(self.offered_bits, duration)
    }

    /// The flow's delivered throughput in kbps over a trial of length
    /// `duration`.
    pub fn delivered_kbps(&self, duration: SimDuration) -> f64 {
        bits_to_kbps(self.delivered_bits, duration)
    }
}

/// The one kbps conversion every workload-summary rate shares (duration
/// clamped away from zero).
fn bits_to_kbps(bits: u64, duration: SimDuration) -> f64 {
    bits as f64 / duration.as_secs_f64().max(f64::MIN_POSITIVE) / 1e3
}

/// Frozen results of one simulation trial — the paper's metric set.
#[derive(Clone, PartialEq)]
pub struct TrialSummary {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Data packets generated at sources.
    pub generated: u64,
    /// Data packets delivered to destinations.
    pub delivered: u64,
    /// Drop counts by reason.
    pub drops: BTreeMap<DropReason, u64>,
    /// Mean end-to-end delay of delivered packets (ms) — Fig. 2.
    pub delay_mean_ms: f64,
    /// Standard deviation of the end-to-end delay (ms).
    pub delay_std_ms: f64,
    /// Median end-to-end delay (ms).
    pub delay_p50_ms: f64,
    /// 95th-percentile end-to-end delay (ms) — loop/queue tail visibility.
    pub delay_p95_ms: f64,
    /// Worst observed end-to-end delay (ms).
    pub delay_max_ms: f64,
    /// Control bits transmitted, by packet kind.
    pub control_bits: BTreeMap<ControlKind, u64>,
    /// Number of control transmissions on the common channel.
    pub control_tx_count: u64,
    /// Data-ACK bits transmitted on reverse PN channels.
    pub ack_bits: u64,
    /// Routing overhead in kbps (control + ACK bits over duration) — Fig. 4.
    pub overhead_kbps: f64,
    /// Average traversed-link throughput (kbps) — Fig. 5(a).
    pub avg_link_throughput_kbps: f64,
    /// Average hops per delivered packet — Fig. 5(b).
    pub avg_hops: f64,
    /// Delivered kbps per 4-second bin — Fig. 6.
    pub throughput_kbps: Vec<f64>,
    /// Common-channel receptions lost to collisions.
    pub collisions: u64,
    /// Link breaks declared by the data plane.
    pub link_breaks: u64,
    /// Control packets dropped at full MAC queues.
    pub ctrl_queue_drops: u64,
    /// Offered-load / per-flow workload breakdown; `None` unless the
    /// trial enabled workload accounting (non-default workloads only).
    pub workload: Option<WorkloadSummary>,
    /// Fault-recovery observables; `None` unless the trial enabled
    /// recovery accounting (non-empty fault plans only).
    pub recovery: Option<RecoverySummary>,
    /// Simulator-internals diagnostics (event profile, queue/cache
    /// health); `None` unless the run enabled profiling. See
    /// [`WorldDiagnostics`](crate::WorldDiagnostics).
    pub diagnostics: Option<crate::WorldDiagnostics>,
}

/// Hand-rolled to reproduce the derived rendering *exactly* when
/// `workload` and `diagnostics` are `None`: the golden fixed-seed tests
/// pin FNV hashes of this output for pre-`rica-traffic` scenarios, and
/// those must stay byte-identical. Non-default workloads and
/// profiling-enabled runs (always `Some`) append their fields like a
/// normal derive would.
impl std::fmt::Debug for TrialSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("TrialSummary");
        s.field("duration", &self.duration)
            .field("generated", &self.generated)
            .field("delivered", &self.delivered)
            .field("drops", &self.drops)
            .field("delay_mean_ms", &self.delay_mean_ms)
            .field("delay_std_ms", &self.delay_std_ms)
            .field("delay_p50_ms", &self.delay_p50_ms)
            .field("delay_p95_ms", &self.delay_p95_ms)
            .field("delay_max_ms", &self.delay_max_ms)
            .field("control_bits", &self.control_bits)
            .field("control_tx_count", &self.control_tx_count)
            .field("ack_bits", &self.ack_bits)
            .field("overhead_kbps", &self.overhead_kbps)
            .field("avg_link_throughput_kbps", &self.avg_link_throughput_kbps)
            .field("avg_hops", &self.avg_hops)
            .field("throughput_kbps", &self.throughput_kbps)
            .field("collisions", &self.collisions)
            .field("link_breaks", &self.link_breaks)
            .field("ctrl_queue_drops", &self.ctrl_queue_drops);
        if let Some(workload) = &self.workload {
            s.field("workload", workload);
        }
        if let Some(recovery) = &self.recovery {
            s.field("recovery", recovery);
        }
        if let Some(diagnostics) = &self.diagnostics {
            s.field("diagnostics", diagnostics);
        }
        s.finish()
    }
}

impl TrialSummary {
    /// Delivery ratio in `[0, 1]` (1 if nothing was generated).
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.generated as f64
        }
    }

    /// Delivery percentage (Fig. 3).
    pub fn delivery_pct(&self) -> f64 {
        self.delivery_ratio() * 100.0
    }

    /// Total drops across reasons.
    pub fn dropped(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Packets neither delivered nor dropped (still in flight at the end).
    pub fn in_flight(&self) -> u64 {
        self.generated.saturating_sub(self.delivered + self.dropped())
    }

    /// Total control bits across kinds.
    pub fn control_bits_total(&self) -> u64 {
        self.control_bits.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_channel::ChannelClass;
    use rica_net::{FlowId, NodeId};

    fn pkt_with_hops(classes: &[ChannelClass], created: f64) -> DataPacket {
        let mut p = DataPacket::new(
            FlowId(0),
            0,
            NodeId(0),
            NodeId(1),
            512,
            SimTime::from_secs_f64(created),
        );
        for &c in classes {
            p.record_hop(c);
        }
        p
    }

    #[test]
    fn delay_and_delivery() {
        let mut m = Metrics::new();
        for _ in 0..4 {
            m.on_generated_flow(0, 0);
        }
        m.on_delivered(&pkt_with_hops(&[ChannelClass::A], 1.0), SimTime::from_secs_f64(1.1));
        m.on_delivered(&pkt_with_hops(&[ChannelClass::A], 2.0), SimTime::from_secs_f64(2.3));
        m.on_dropped_flow(0, DropReason::BufferOverflow, SimTime::ZERO);
        let s = m.finish(SimDuration::from_secs(10));
        assert_eq!(s.generated, 4);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.in_flight(), 1);
        assert!((s.delay_mean_ms - 200.0).abs() < 1e-6, "mean of 100 and 300 ms");
        assert_eq!(s.delivery_pct(), 50.0);
    }

    #[test]
    fn route_quality_metrics() {
        let mut m = Metrics::new();
        m.on_generated_flow(0, 0);
        m.on_generated_flow(0, 0);
        // One packet over A+D (2 hops, 300 kbps summed), one over B (1 hop).
        m.on_delivered(
            &pkt_with_hops(&[ChannelClass::A, ChannelClass::D], 0.0),
            SimTime::from_secs_f64(0.5),
        );
        m.on_delivered(&pkt_with_hops(&[ChannelClass::B], 0.0), SimTime::from_secs_f64(0.5));
        let s = m.finish(SimDuration::from_secs(8));
        // total rate = 250+50+150 = 450 over 3 hops.
        assert!((s.avg_link_throughput_kbps - 150.0).abs() < 1e-9);
        assert!((s.avg_hops - 1.5).abs() < 1e-9);
    }

    #[test]
    fn overhead_counts_control_and_acks() {
        let mut m = Metrics::new();
        m.on_control_tx(ControlKind::Rreq, 192);
        m.on_control_tx(ControlKind::CsiCheck, 192);
        m.on_ack_tx(128);
        let s = m.finish(SimDuration::from_secs(1));
        assert_eq!(s.control_bits_total(), 384);
        assert_eq!(s.ack_bits, 128);
        assert!((s.overhead_kbps - 0.512).abs() < 1e-9);
        assert_eq!(s.control_tx_count, 2);
        assert_eq!(s.control_bits[&ControlKind::Rreq], 192);
    }

    #[test]
    fn throughput_binning() {
        let mut m = Metrics::new();
        m.on_generated_flow(0, 0);
        m.on_generated_flow(0, 0);
        m.on_generated_flow(0, 0);
        let p = pkt_with_hops(&[ChannelClass::A], 0.0);
        m.on_delivered(&p, SimTime::from_secs_f64(1.0)); // bin 0
        m.on_delivered(&p, SimTime::from_secs_f64(5.0)); // bin 1
        m.on_delivered(&p, SimTime::from_secs_f64(6.0)); // bin 1
        let s = m.finish(SimDuration::from_secs(12));
        assert_eq!(s.throughput_kbps.len(), 3);
        let bits = p.size_bits() as f64;
        assert!((s.throughput_kbps[0] - bits / 4.0 / 1e3).abs() < 1e-9);
        assert!((s.throughput_kbps[1] - 2.0 * bits / 4.0 / 1e3).abs() < 1e-9);
        assert_eq!(s.throughput_kbps[2], 0.0, "empty trailing bin padded");
    }

    #[test]
    fn workload_accounting_is_opt_in() {
        // Disabled (the default): same counters, no workload block, and —
        // load-bearing for the golden hashes — a Debug rendering with no
        // `workload` field at all.
        let mut m = Metrics::new();
        m.on_generated_flow(0, 4288);
        let plain = m.finish(SimDuration::from_secs(10));
        assert_eq!(plain.generated, 1);
        assert_eq!(plain.workload, None);
        assert!(!format!("{plain:?}").contains("workload"));

        // Enabled: offered bits and per-flow breakdowns appear.
        let mut m = Metrics::new();
        m.enable_workload(2);
        m.on_generated_flow(0, 4288);
        m.on_generated_flow(0, 4288);
        m.on_generated_flow(1, 512);
        let p = pkt_with_hops(&[ChannelClass::A], 1.0);
        m.on_delivered(&p, SimTime::from_secs_f64(1.25));
        let s = m.finish(SimDuration::from_secs(10));
        let w = s.workload.as_ref().expect("workload enabled");
        assert_eq!(w.offered_bits, 4288 * 2 + 512);
        assert!((w.offered_kbps(s.duration) - (4288.0 * 2.0 + 512.0) / 10.0 / 1e3).abs() < 1e-12);
        assert_eq!(w.flows.len(), 2);
        assert_eq!(w.flows[0].generated, 2);
        assert_eq!(w.flows[0].delivered, 1);
        assert_eq!(w.flows[0].delivered_bits, p.size_bits());
        assert!((w.flows[0].delay_mean_ms - 250.0).abs() < 1e-9);
        assert!((w.flows[0].delivery_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(w.flows[1].generated, 1);
        assert_eq!(w.flows[1].delivery_ratio(), 0.0);
        assert!(format!("{s:?}").contains("workload: WorkloadSummary"));
    }

    #[test]
    fn workload_flow_table_grows_on_demand() {
        let mut m = Metrics::new();
        m.enable_workload(1);
        m.on_generated_flow(3, 100);
        let s = m.finish(SimDuration::from_secs(1));
        let w = s.workload.unwrap();
        assert_eq!(w.flows.len(), 4);
        assert_eq!(w.flows[3].offered_bits, 100);
        assert_eq!(w.flows[3].delivery_ratio(), 0.0);
        assert_eq!(w.flows[0].delivery_ratio(), 1.0, "idle flow generated nothing");
    }

    #[test]
    fn recovery_accounting_is_opt_in() {
        // Disabled (the default): no recovery block, no `recovery` field
        // in the Debug rendering (load-bearing for the golden hashes), and
        // fault hooks are no-ops.
        let mut m = Metrics::new();
        m.on_fault(FaultKind::Crash, SimTime::from_secs_f64(1.0));
        let plain = m.finish(SimDuration::from_secs(10));
        assert_eq!(plain.recovery, None);
        assert!(!format!("{plain:?}").contains("recovery"));

        // Enabled: a crash, then flow 0 drops at 11s, recovers at 13s.
        let mut m = Metrics::new();
        m.enable_recovery(2);
        let p = pkt_with_hops(&[ChannelClass::A], 0.5);
        m.on_generated_flow(0, 4288);
        m.on_delivered(&p, SimTime::from_secs_f64(1.0)); // pre-fault: intact
        m.on_fault(FaultKind::Crash, SimTime::from_secs_f64(10.0));
        m.on_dropped_flow(0, DropReason::NoRoute, SimTime::from_secs_f64(11.0));
        m.on_dropped_flow(0, DropReason::NoRoute, SimTime::from_secs_f64(11.5)); // same window
        m.on_delivered(&p, SimTime::from_secs_f64(13.0)); // closes the window, disrupted
        m.on_fault(FaultKind::Reboot, SimTime::from_secs_f64(14.0));
        m.on_delivered(&p, SimTime::from_secs_f64(15.0)); // post-reboot: intact
        m.on_dropped_flow(1, DropReason::NoRoute, SimTime::from_secs_f64(16.0)); // never recovers
        let s = m.finish(SimDuration::from_secs(20));
        let r = s.recovery.expect("recovery enabled");
        assert_eq!((r.crashes, r.reboots), (1, 1));
        assert_eq!((r.delivered_intact, r.delivered_disrupted), (2, 1));
        assert_eq!((r.disrupted_flows, r.recovered_flows, r.unrecovered_flows), (2, 1, 1));
        assert!((r.disruption_mean_ms - 2000.0).abs() < 1e-9, "11s drop → 13s delivery");
        assert!((r.reroute_mean_ms - 3000.0).abs() < 1e-9, "10s fault → 13s delivery");
        assert_eq!(s.dropped(), 3);
        assert!(format!("{s:?}").contains("recovery: RecoverySummary"));
    }

    #[test]
    fn empty_trial_is_well_defined() {
        let s = Metrics::new().finish(SimDuration::from_secs(10));
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.delay_mean_ms, 0.0);
        assert_eq!(s.avg_hops, 0.0);
        assert_eq!(s.avg_link_throughput_kbps, 0.0);
        assert_eq!(s.overhead_kbps, 0.0);
    }
}
