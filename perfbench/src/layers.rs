//! Per-layer measurement from outside the simulator: a counting trace
//! sink, in-memory spans around every call into a layer, and the totals
//! the traced pass folds them into.

use std::any::Any;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rica_metrics::{fmt_f64, WorldDiagnostics};
use rica_net::{DropReason, RoutePhase};
use rica_trace::{TraceEvent, TraceSink};

/// Trace events counted by kind. Recording is a match and an add, so the
/// sink adds little to the handler self time it is called from.
#[derive(Debug, Default)]
pub struct Counts {
    generated: u64,
    data_tx: u64,
    data_retries: u64,
    ctrl_tx: u64,
    ctrl_queue_drops: u64,
    mac_busy: u64,
    mac_abandons: u64,
    mac_collisions: u64,
    unicast_gave_up: u64,
    link_breaks: u64,
    timers_fired: u64,
    class_transitions: u64,
    crashes: u64,
    reboots: u64,
    partitions: u64,
    heals: u64,
    route_phase: [u64; 5],
    drops: [u64; 5],
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        let pairs = [
            (&mut self.generated, o.generated),
            (&mut self.data_tx, o.data_tx),
            (&mut self.data_retries, o.data_retries),
            (&mut self.ctrl_tx, o.ctrl_tx),
            (&mut self.ctrl_queue_drops, o.ctrl_queue_drops),
            (&mut self.mac_busy, o.mac_busy),
            (&mut self.mac_abandons, o.mac_abandons),
            (&mut self.mac_collisions, o.mac_collisions),
            (&mut self.unicast_gave_up, o.unicast_gave_up),
            (&mut self.link_breaks, o.link_breaks),
            (&mut self.timers_fired, o.timers_fired),
            (&mut self.class_transitions, o.class_transitions),
            (&mut self.crashes, o.crashes),
            (&mut self.reboots, o.reboots),
            (&mut self.partitions, o.partitions),
            (&mut self.heals, o.heals),
        ];
        for (a, b) in pairs {
            *a += b;
        }
        for i in 0..5 {
            self.route_phase[i] += o.route_phase[i];
            self.drops[i] += o.drops[i];
        }
    }
}

/// The benchmark's own [`TraceSink`]: counts events, keeps none.
#[derive(Debug, Default)]
pub struct CountingSink(pub Counts);

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let c = &mut self.0;
        match ev {
            TraceEvent::DataGenerated { .. } => c.generated += 1,
            TraceEvent::DataTxStart { .. } => c.data_tx += 1,
            TraceEvent::DataRetry { .. } => c.data_retries += 1,
            TraceEvent::DataDropped { reason, .. } => c.drops[*reason as usize] += 1,
            TraceEvent::CtrlTx { .. } => c.ctrl_tx += 1,
            TraceEvent::CtrlQueueDrop { .. } => c.ctrl_queue_drops += 1,
            TraceEvent::MacBusy { .. } => c.mac_busy += 1,
            TraceEvent::MacAbandon { .. } => c.mac_abandons += 1,
            TraceEvent::MacCollision { .. } => c.mac_collisions += 1,
            TraceEvent::CtrlUnicastGaveUp { .. } => c.unicast_gave_up += 1,
            TraceEvent::LinkBreak { .. } => c.link_breaks += 1,
            TraceEvent::TimerFired { .. } => c.timers_fired += 1,
            TraceEvent::RoutePhase { phase, .. } => c.route_phase[*phase as usize] += 1,
            TraceEvent::ClassTransition { .. } => c.class_transitions += 1,
            TraceEvent::NodeCrashed { .. } => c.crashes += 1,
            TraceEvent::NodeRebooted { .. } => c.reboots += 1,
            TraceEvent::PartitionStart { .. } => c.partitions += 1,
            TraceEvent::PartitionHealed { .. } => c.heals += 1,
            TraceEvent::DataEnqueued { .. }
            | TraceEvent::DataHop { .. }
            | TraceEvent::DataDelivered { .. } => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What the traced pass keeps of one trial.
#[derive(Debug)]
pub struct TrialLayers {
    /// `World::diagnostics()` at the end of the trial, profile included.
    pub diag: WorldDiagnostics,
    /// The counting sink's tallies.
    pub counts: Counts,
    /// Packets generated and delivered, control bits sent (summary).
    pub generated: u64,
    pub delivered: u64,
    pub control_bits: u64,
}

/// Host wall time of one trial's calls into the harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialTimes {
    pub new_s: f64,
    pub start_s: f64,
    pub step_s: f64,
    pub finish_s: f64,
}

/// Round-level timings the traced pass takes around fleet, metrics and
/// exec calls.
#[derive(Debug, Default)]
pub struct RoundLayers {
    pub run_fleet_s: f64,
    pub read_shard_s: f64,
    pub merge_s: f64,
    pub resume_scan_s: f64,
    pub render_s: f64,
    pub artifact_bytes: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub record_bytes: u64,
}

/// Event kinds whose profile rows are reported, as `World` names them.
/// Fault kinds report counts only: their self time is exactly 0 on the
/// three fault-free workloads.
const PROFILED: [(&str, bool); 9] = [
    ("traffic", true),
    ("mac_attempt", true),
    ("mac_tx_end", true),
    ("data_tx_end", true),
    ("proto_timer", true),
    ("crash", false),
    ("reboot", false),
    ("partition_start", false),
    ("partition_heal", false),
];

/// Sums over the traced trials and rounds, rendered as named metrics.
#[derive(Debug, Default)]
pub struct LayerTotals {
    times: TrialTimes,
    events: u64,
    pending_end: u64,
    retunes: u64,
    active_pairs: u64,
    decay_hits: u64,
    decay_misses: u64,
    table_growths: u64,
    medium_txs: u64,
    profile_count: [u64; 9],
    profile_s: [f64; 9],
    counts: Counts,
    generated: u64,
    delivered: u64,
    control_bits: u64,
    round: RoundLayers,
    trial_wall_s: f64,
}

/// Every total is in reference seconds: callers pass the factor that
/// converts the host seconds they measured (see `calibration`).
impl LayerTotals {
    pub fn add_trial(&mut self, t: &TrialTimes, l: &TrialLayers, speed: f64) {
        self.times.new_s += t.new_s * speed;
        self.times.start_s += t.start_s * speed;
        self.times.step_s += t.step_s * speed;
        self.times.finish_s += t.finish_s * speed;
        self.trial_wall_s += (t.new_s + t.start_s + t.step_s + t.finish_s) * speed;
        let d = &l.diag;
        self.events += d.popped_events;
        self.pending_end += d.pending_events as u64;
        self.retunes += d.calendar_retunes;
        self.active_pairs += d.channel_active_pairs as u64;
        let (hits, misses) = d.decay_cache.unwrap_or((0, 0));
        self.decay_hits += hits;
        self.decay_misses += misses;
        self.table_growths += u64::from(d.channel_table_growths);
        self.medium_txs += d.medium_txs;
        if let Some(p) = &d.event_profile {
            for k in &p.kinds {
                if let Some(i) = PROFILED.iter().position(|(name, _)| *name == k.kind) {
                    self.profile_count[i] += k.count;
                    self.profile_s[i] += k.total_ns as f64 * 1e-9 * speed;
                }
            }
        }
        self.counts.add(&l.counts);
        self.generated += l.generated;
        self.delivered += l.delivered;
        self.control_bits += l.control_bits;
    }

    pub fn add_round(&mut self, r: &RoundLayers, speed: f64) {
        let t = &mut self.round;
        t.run_fleet_s += r.run_fleet_s * speed;
        t.read_shard_s += r.read_shard_s * speed;
        t.merge_s += r.merge_s * speed;
        t.resume_scan_s += r.resume_scan_s * speed;
        t.render_s += r.render_s * speed;
        t.artifact_bytes += r.artifact_bytes;
        t.encode_s += r.encode_s * speed;
        t.decode_s += r.decode_s * speed;
        t.record_bytes += r.record_bytes;
    }

    /// Every per-layer metric as `(name, value, unit)`, in the order
    /// `BENCHMARK.json` lists them. `overhead_ratio` is traced over
    /// untraced `World::step_until` time of the same trials.
    pub fn metrics(&self, workers: usize, overhead_ratio: f64) -> Vec<(String, f64, &'static str)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (c, r, t) = (&self.counts, &self.round, &self.times);
        let handler_s: f64 = self.profile_s.iter().sum();
        let delivered = self.delivered as f64;
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
        push("harness.world_new_s", t.new_s, "s");
        push("harness.start_s", t.start_s, "s");
        push("harness.step_s", t.step_s, "s");
        push("harness.finish_s", t.finish_s, "s");
        push("sim.events", self.events as f64, "count");
        push("sim.ns_per_event", ratio(t.step_s * 1e9, self.events as f64), "ns");
        push("sim.loop_s", t.step_s - handler_s, "s");
        push("sim.pending_end", self.pending_end as f64, "count");
        push("sim.calendar_retunes", self.retunes as f64, "count");
        for (i, (kind, timed)) in PROFILED.iter().enumerate() {
            push(&format!("profile.{kind}.count"), self.profile_count[i] as f64, "count");
            if *timed {
                push(&format!("profile.{kind}.self_s"), self.profile_s[i], "s");
            }
        }
        let hit_base = (self.decay_hits + self.decay_misses) as f64;
        push("channel.active_pairs", self.active_pairs as f64, "count");
        push("channel.decay_hits", self.decay_hits as f64, "count");
        push("channel.decay_hit_ratio", ratio(self.decay_hits as f64, hit_base), "ratio");
        push("channel.table_growths", self.table_growths as f64, "count");
        push("channel.class_transitions", c.class_transitions as f64, "count");
        push("mac.txs", self.medium_txs as f64, "count");
        push("mac.busy", c.mac_busy as f64, "count");
        push("mac.collisions", c.mac_collisions as f64, "count");
        push("mac.abandons", c.mac_abandons as f64, "count");
        push("mac.unicast_gave_up", c.unicast_gave_up as f64, "count");
        push("mac.txs_per_delivered", ratio(self.medium_txs as f64, delivered), "tx/pkt");
        push("net.data_tx", c.data_tx as f64, "count");
        push("net.data_retries", c.data_retries as f64, "count");
        push("net.link_breaks", c.link_breaks as f64, "count");
        push("net.ctrl_queue_drops", c.ctrl_queue_drops as f64, "count");
        let drop_names =
            ["buffer_overflow", "buffer_timeout", "no_route", "link_break", "node_crashed"];
        for (reason, name) in DropReason::ALL.into_iter().zip(drop_names) {
            push(&format!("net.drops.{name}"), c.drops[reason as usize] as f64, "count");
        }
        push("proto.ctrl_tx", c.ctrl_tx as f64, "count");
        push(
            "proto.ctrl_bits_per_delivered",
            ratio(self.control_bits as f64, delivered),
            "bit/pkt",
        );
        push("proto.timers_fired", c.timers_fired as f64, "count");
        for phase in ROUTE_PHASES {
            let name = phase.name().replace('-', "_");
            push(
                &format!("proto.route_phase.{name}"),
                c.route_phase[phase as usize] as f64,
                "count",
            );
        }
        push("traffic.generated", c.generated as f64, "count");
        push("traffic.delivery_ratio", ratio(delivered, self.generated as f64), "ratio");
        push("faults.crashes", c.crashes as f64, "count");
        push("faults.reboots", c.reboots as f64, "count");
        push("faults.partitions", c.partitions as f64, "count");
        push("faults.heals", c.heals as f64, "count");
        push("metrics.encode_s", r.encode_s, "s");
        push("metrics.decode_s", r.decode_s, "s");
        push("metrics.record_bytes", r.record_bytes as f64, "B");
        push("fleet.read_shard_s", r.read_shard_s, "s");
        push("fleet.merge_s", r.merge_s, "s");
        push("fleet.resume_scan_s", r.resume_scan_s, "s");
        push(
            "exec.worker_busy_share",
            ratio(self.trial_wall_s, workers as f64 * r.run_fleet_s),
            "ratio",
        );
        push("exec.render_s", r.render_s, "s");
        push("exec.artifact_bytes", r.artifact_bytes as f64, "B");
        push("trace.overhead_ratio", overhead_ratio, "ratio");
        m
    }
}

const ROUTE_PHASES: [RoutePhase; 5] = [
    RoutePhase::DiscoveryStart,
    RoutePhase::DiscoveryRetry,
    RoutePhase::RouteSelected,
    RoutePhase::RepairStart,
    RoutePhase::RouteLost,
];

/// One span: a call into a layer, recorded from the benchmark's side of
/// the boundary.
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span; 0 for a round's root span.
    pub parent: u64,
    pub name: &'static str,
    /// The job index, for spans inside one trial.
    pub trial: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Reserves a span id, so children can name a parent that has not
    /// ended yet.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        trial: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span { id, parent, name, trial, start_ns: ns(start), end_ns: ns(end) };
        self.spans.lock().expect("span log poisoned by a panicking trial").push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span log poisoned by a panicking trial");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (children of one parent may overlap,
/// as trials on two workers do, so their union is subtracted).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some(t) => t.1 += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

/// Spans as JSON Lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let trial = s.trial.map_or("null".to_string(), |t| t.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"trial\":{trial},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// A metric value as JSON: the shortest text that reads back to the same
/// bits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".to_string()
    }
}
