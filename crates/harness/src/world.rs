//! The discrete-event world: nodes, MAC, data plane, dispatch loop.

use std::collections::{BTreeMap, VecDeque};

use rica_channel::{ChannelClass, ChannelModel, TX_RANGE_M};
use rica_faults::FaultSchedule;
use rica_mac::{
    backoff_delay, tx_duration, CommonMedium, TxId, BROADCAST_JITTER, CTRL_QUEUE_CAP,
    CTRL_RETRY_LIMIT, IFS, MAX_ATTEMPTS, UNICAST_JITTER,
};
use rica_metrics::{FaultKind, Metrics, TrialSummary, WorldDiagnostics};
use rica_mobility::{kmh_to_ms, Field, SpatialGrid, Vec2, Waypoint};
use rica_net::{
    ControlPacket, DataPacket, DropReason, FlowId, KeyMap, LinkQueue, NodeCtx, NodeId,
    ProtocolConfig, RoutePhase, RoutingProtocol, RxInfo, Timer, TimerToken, TopologySnapshot,
    DATA_ACK_BYTES, DATA_PAYLOAD_BYTES, DATA_RETRY_LIMIT, LINK_QUEUE_CAP, MAX_QUEUE_RESIDENCY,
};
use rica_sim::{Rng, SimDuration, SimTime, Simulator};
use rica_trace::{EventProfiler, TimeseriesRecorder, TraceEvent, TraceSink};
use rica_traffic::FlowTraffic;

use crate::scenario::{Flow, ProtocolKind, Scenario};

/// Waypoint pause at each destination (paper: 3 s, §III.A).
const PAUSE_SECS: f64 = 3.0;
/// Extra wall time modelled for a failed (unacknowledged) data attempt.
const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(5);
/// Backoff between data retransmission attempts.
const DATA_RETRY_BACKOFF: SimDuration = SimDuration::from_millis(5);
/// How far (metres) any terminal may drift before the neighbor grid's
/// position snapshot is rebuilt. Broadcast candidate lists are cached per
/// grid epoch anchored at the transmitter's snapshot position with the
/// radius inflated by 2× this bound (transmitter drift + receiver drift),
/// so candidate sets stay conservative (scan-identical) while both the
/// O(n) snapshot cost and the per-transmitter grid query amortise over
/// many events. Smaller = tighter candidate sets but more frequent
/// rebuilds (and shorter-lived fan-out caches); 12 m — a rebuild roughly
/// every 0.6 simulated seconds at the paper's top speeds — measured best
/// across the paper-grid and 200-node trials, a little ahead of the 8 m
/// and 20 m settings either side.
const GRID_SLACK_M: f64 = 12.0;

#[derive(Debug)]
enum Event {
    /// A flow generates its next packet.
    Traffic { flow: usize },
    /// A node attempts to transmit the head of its control queue (CSMA).
    /// `inc` is the scheduling node's incarnation (see `World::incarnation`).
    MacAttempt { node: usize, inc: u32 },
    /// A common-channel transmission finished.
    MacTxEnd { node: usize, tx: TxId, inc: u32 },
    /// A data-plane transmission on the PN link `from → to` finished.
    DataTxEnd { from: usize, to: usize, inc: u32 },
    /// A protocol timer fires.
    ProtoTimer { node: usize, timer: Timer, token: u64 },
    /// Failure injection: the node crashes.
    Crash { node: usize },
    /// Fixed-interval time-series sample (only scheduled when the trial
    /// enabled the sampler; reads state, draws no randomness).
    Sample,
    /// Failure injection: a crashed node powers back on, cold.
    Reboot { node: usize },
    /// Fault injection: partition episode `idx` starts (links across the
    /// group boundary go dark).
    PartitionStart { idx: usize },
    /// Fault injection: partition episode `idx` heals.
    PartitionHeal { idx: usize },
}

/// Stable labels for [`Event`] kinds, in discriminant order (profiling
/// rows and reports).
const EVENT_KIND_NAMES: [&str; 10] = [
    "traffic",
    "mac_attempt",
    "mac_tx_end",
    "data_tx_end",
    "proto_timer",
    "crash",
    "sample",
    "reboot",
    "partition_start",
    "partition_heal",
];

impl Event {
    /// Index into [`EVENT_KIND_NAMES`].
    fn kind(&self) -> usize {
        match self {
            Event::Traffic { .. } => 0,
            Event::MacAttempt { .. } => 1,
            Event::MacTxEnd { .. } => 2,
            Event::DataTxEnd { .. } => 3,
            Event::ProtoTimer { .. } => 4,
            Event::Crash { .. } => 5,
            Event::Sample => 6,
            Event::Reboot { .. } => 7,
            Event::PartitionStart { .. } => 8,
            Event::PartitionHeal { .. } => 9,
        }
    }
}

#[derive(Debug)]
struct OutgoingCtrl {
    pkt: ControlPacket,
    /// `None` = broadcast; `Some(t)` = MAC-addressed unicast to `t`.
    target: Option<NodeId>,
    /// MAC retransmissions already performed (unicast only).
    retries: u32,
}

#[derive(Debug)]
struct InFlight {
    pkt: DataPacket,
    /// Attempts already made (0 = first attempt in progress).
    tries: u32,
    /// The ABICM class the attempt was launched at (`None` = the receiver
    /// was out of range at start; the attempt is doomed).
    class: Option<ChannelClass>,
}

/// A node's data link to one neighbour. It exists only while it holds a
/// packet, queued or in flight: `try_start_data` removes an idle link
/// with an empty queue, and a missing link reads as an idle one.
#[derive(Debug, Default)]
struct DataLink {
    queue: LinkQueue,
    in_flight: Option<InFlight>,
}

struct NodeState {
    mobility: Waypoint,
    rng: Rng,
    ctrl_queue: VecDeque<OutgoingCtrl>,
    /// Whether a `MacAttempt`/`MacTxEnd` event is pending for this node.
    mac_scheduled: bool,
    /// Consecutive busy carrier senses for the head packet.
    mac_attempts: u32,
    links: BTreeMap<usize, DataLink>,
}

/// The position of node `i` at `now`, memoized per event timestamp
/// (trajectory evaluation advances waypoint legs; one event should pay
/// for each node at most once). A free function over the split fields so
/// the broadcast fan-out loop can use it while it holds other borrows.
#[inline]
fn memo_position(
    nodes: &mut [NodeState],
    pos_cache: &mut [Vec2],
    pos_stamp: &mut [SimTime],
    i: usize,
    now: SimTime,
) -> Vec2 {
    if pos_stamp[i] == now {
        return pos_cache[i];
    }
    let p = nodes[i].mobility.position_at(now);
    pos_cache[i] = p;
    pos_stamp[i] = now;
    p
}

/// One fully-wired simulation run: 50 mobile terminals, the channel, the
/// MAC and one routing protocol instance per terminal.
///
/// Create with [`World::new`] and execute with [`World::run`]; or use the
/// [`Scenario`] convenience wrappers.
pub struct World<'s> {
    scenario: &'s Scenario,
    sim: Simulator<Event>,
    nodes: Vec<NodeState>,
    /// The protocol every node runs; a rebooted node gets a fresh one.
    kind: ProtocolKind,
    /// Each node's protocol instance; `None` only while a dispatch holds it.
    protos: Vec<Option<Box<dyn RoutingProtocol>>>,
    channel: ChannelModel,
    medium: CommonMedium,
    metrics: Metrics,
    flows: Vec<Flow>,
    flow_seq: Vec<u64>,
    /// One workload generator per flow (owns the flow's RNG stream).
    traffic: Vec<FlowTraffic>,
    /// Each node's live protocol-timer tokens, ascending: tokens come
    /// from one counter, `next_timer`. A cancelled timer, or one a crash
    /// voided, leaves its node's list but stays queued; `step_until`
    /// drops it when it surfaces.
    timers: Vec<Vec<u64>>,
    next_timer: u64,
    /// Queued `ProtoTimer` events whose token is no longer live. Every
    /// report of pending work leaves them out.
    stale_timers: usize,
    /// Crashed terminals (failure injection).
    dead: Vec<bool>,
    /// The scenario's fault plan resolved against this trial: concrete
    /// crash/reboot points and partition episodes (empty when no faults).
    faults: FaultSchedule,
    /// Which partition episodes are currently in effect.
    partition_active: Vec<bool>,
    /// Per-node partition signature: the OR of each active episode's
    /// membership bit (bit `e` for episode `e`; a valid fault plan holds
    /// at most 32 episodes). A link is cut exactly when its endpoints'
    /// signatures differ; all-zeros (no active partition) cuts nothing.
    partition_sig: Vec<u32>,
    /// Whether each flow's traffic renewal chain is still scheduled; a
    /// chain stops when its source is found dead and restarts at the
    /// reboot.
    traffic_live: Vec<bool>,
    /// Per-node life counter, bumped at every crash. In-flight
    /// MAC/data events carry the incarnation they were scheduled under
    /// and turn into no-ops when it no longer matches, so a rebooted
    /// node never services its previous life's pipeline events.
    incarnation: Vec<u32>,
    end: SimTime,
    /// Safety valve against pathological event storms.
    max_events: u64,
    /// Fastest any terminal can move (m/s); 0 for static topologies.
    max_speed_ms: f64,
    /// Memoized per-node positions at the current event timestamp, so one
    /// broadcast evaluates each trajectory at most once.
    pos_cache: Vec<Vec2>,
    pos_stamp: Vec<SimTime>,
    /// Neighbor-candidate grid over a periodic position snapshot.
    grid: SpatialGrid,
    /// Grid queries stay conservative until this instant; `None` = stale.
    grid_valid_until: Option<SimTime>,
    /// The per-node positions the grid was last rebuilt from (the centers
    /// epoch-cached fan-out queries are anchored to).
    grid_snapshot: Vec<Vec2>,
    /// Grid epoch each node's cached broadcast candidate list was computed
    /// under; a stale epoch means "re-query".
    fanout_epoch: Vec<u64>,
    /// Per-node cached broadcast candidate lists (see `broadcast_candidates`).
    fanout: Vec<Vec<u32>>,
    /// Scratch: per-broadcast receiver outcomes.
    scratch_receivers: Vec<(usize, RxInfo)>,
    /// Scratch: expired packets surfaced by queue pops.
    scratch_expired: Vec<DataPacket>,
    /// Structured event tracing; `None` (the default) keeps every
    /// emission site down to one branch.
    tracer: Option<TraceState>,
    /// Fixed-interval time-series sampling; `None` by default.
    timeseries: Option<TimeseriesState>,
    /// Per-event-kind wall-clock profiling; `None` by default.
    profiler: Option<EventProfiler>,
}

/// Live tracing state: the sink plus the last observed class per node
/// pair (for `class_transition` events). Exists only while tracing is
/// enabled, and only ever *reads* simulation state.
struct TraceState {
    sink: Box<dyn TraceSink>,
    last_class: KeyMap<(u32, u32), ChannelClass>,
}

impl TraceState {
    /// Notes a class observation the simulation made anyway (never
    /// queries the channel itself), emitting a transition event when the
    /// pair's class changed since it was last seen.
    fn note_class(&mut self, t: SimTime, a: u32, b: u32, class: ChannelClass) {
        let key = (a.min(b), a.max(b));
        if let Some(prev) = self.last_class.insert(key, class) {
            if prev != class {
                self.sink.record(&TraceEvent::ClassTransition {
                    t,
                    a: NodeId(key.0),
                    b: NodeId(key.1),
                    from: prev,
                    to: class,
                });
            }
        }
    }
}

/// Time-series sampling state: the recorder plus its firing interval.
struct TimeseriesState {
    interval: SimDuration,
    rec: TimeseriesRecorder,
}

impl<'s> std::fmt::Debug for World<'s> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl<'s> World<'s> {
    /// Builds a world for one trial of `scenario` under `kind`, seeded with
    /// `seed` (every random stream is forked deterministically from it).
    pub fn new(scenario: &'s Scenario, kind: ProtocolKind, seed: u64) -> Self {
        let master = Rng::new(seed);
        let mut flow_master = master.fork(3);
        let flows = scenario.trial_flows(&mut flow_master);
        let max_speed_ms = kmh_to_ms(scenario.mean_speed_kmh * 2.0);
        let nodes: Vec<NodeState> = (0..scenario.nodes)
            .map(|i| {
                let mobility = match &scenario.pinned_positions {
                    Some(ps) => {
                        Waypoint::pinned(Field::PAPER, ps[i], master.fork(1_000 + i as u64))
                    }
                    None => Waypoint::new(
                        Field::PAPER,
                        max_speed_ms,
                        PAUSE_SECS,
                        master.fork(1_000 + i as u64),
                    ),
                };
                NodeState {
                    mobility,
                    rng: master.fork(2_000 + i as u64),
                    ctrl_queue: VecDeque::new(),
                    mac_scheduled: false,
                    mac_attempts: 0,
                    links: BTreeMap::new(),
                }
            })
            .collect();
        let protos = (0..scenario.nodes).map(|_| Some(kind.make())).collect();
        // Scenario fields are pub and routinely mutated after build(), so
        // the builder's rate validation can be bypassed; check every flow
        // here in every build profile: its endpoints must be two distinct
        // nodes, and its rate usable — the generators' release-mode
        // response to a degenerate rate is a silent zero-traffic trial,
        // which must stay a loud failure instead.
        for (i, f) in flows.iter().enumerate() {
            assert!(
                f.src.index() < scenario.nodes && f.dst.index() < scenario.nodes && f.src != f.dst,
                "flow {i} ({} -> {}) needs two distinct endpoints among the {} nodes",
                f.src,
                f.dst,
                scenario.nodes
            );
            assert!(
                rica_sim::usable_mean_gap(f.rate_pps).is_some(),
                "flow {} -> {} has an unusable rate {}",
                f.src,
                f.dst,
                f.rate_pps
            );
        }
        // One generator per flow, seed-forked exactly where the legacy
        // per-flow Poisson RNGs were (stream 4000 + flow index), so the
        // default workload reproduces the legacy traffic bit for bit.
        let traffic: Vec<FlowTraffic> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let rng = master.fork(4_000 + i as u64);
                scenario.workload.build(f.rate_pps, DATA_PAYLOAD_BYTES, rng)
            })
            .collect();
        // Workload accounting (offered load, per-flow breakdowns) is
        // opt-in so default-workload summaries — and the golden hashes
        // pinned over them — keep their exact historical shape. A trial
        // without flows has nothing to account.
        let mut metrics = Metrics::new();
        if !flows.is_empty() && !scenario.workload.is_paper_default() {
            metrics.enable_workload(flows.len());
        }
        // Resolve the fault plan once, up front: churn draws come from
        // their own per-node streams (5000+), and an empty plan forks
        // nothing, so fault-free trials keep their exact RNG usage.
        // Recovery accounting follows the same opt-in discipline as
        // workload accounting — fault-free summaries keep their shape.
        let faults =
            scenario.faults.resolve(scenario.nodes, scenario.duration.as_secs_f64(), &master);
        if !scenario.faults.is_empty() {
            metrics.enable_recovery(flows.len());
        }
        // Pinned topologies never move regardless of the configured speed.
        // Mobile ones move at least at the waypoint model's clamp floor,
        // even when the configured speed is smaller — the grid's staleness
        // bound must use the *actual* maximum.
        let grid_speed = if scenario.pinned_positions.is_some() || max_speed_ms == 0.0 {
            0.0
        } else {
            max_speed_ms.max(Waypoint::MIN_SPEED_MS)
        };
        let grid_cell = (TX_RANGE_M / 3.0).max(GRID_SLACK_M);
        let n_flows = flows.len();
        World {
            scenario,
            sim: Simulator::new(),
            nodes,
            kind,
            protos,
            channel: ChannelModel::with_nodes(
                scenario.channel.clone(),
                master.fork(1),
                scenario.nodes as u32,
            ),
            medium: CommonMedium::new(TX_RANGE_M),
            metrics,
            flow_seq: vec![0; flows.len()],
            flows,
            traffic,
            timers: vec![Vec::new(); scenario.nodes],
            next_timer: 0,
            stale_timers: 0,
            dead: vec![false; scenario.nodes],
            partition_active: vec![false; faults.partitions.len()],
            partition_sig: vec![0; scenario.nodes],
            traffic_live: vec![true; n_flows],
            incarnation: vec![0; scenario.nodes],
            faults,
            end: SimTime::ZERO + scenario.duration,
            max_events: 500_000_000,
            max_speed_ms: grid_speed,
            pos_cache: vec![Vec2::ZERO; scenario.nodes],
            // `SimTime::MAX` never equals an event timestamp: all stale.
            pos_stamp: vec![SimTime::MAX; scenario.nodes],
            grid: SpatialGrid::new(Field::PAPER, grid_cell),
            grid_valid_until: None,
            grid_snapshot: vec![Vec2::ZERO; scenario.nodes],
            // Epoch 0 predates the first rebuild, so every list starts stale.
            fanout_epoch: vec![0; scenario.nodes],
            fanout: vec![Vec::new(); scenario.nodes],
            scratch_receivers: Vec::new(),
            scratch_expired: Vec::new(),
            tracer: None,
            timeseries: None,
            profiler: None,
        }
    }

    // ------------------------------------------------------ observability

    /// Enables structured event tracing into `sink`.
    ///
    /// Tracing is an *observer*: it reads simulation state, draws from no
    /// RNG and schedules nothing, so results are bit-identical with and
    /// without it (pinned by `tests/trace_identity.rs`). Call before
    /// [`World::run`]/[`World::start`].
    pub fn enable_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer = Some(TraceState { sink, last_class: KeyMap::new() });
    }

    /// Flushes and detaches the trace sink (e.g. to recover a
    /// `rica_trace::RingSink` via `downcast_mut` after a run).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.tracer.take()?.sink;
        sink.flush();
        Some(sink)
    }

    /// Enables the fixed-interval time-series sampler.
    ///
    /// Samples are driven by a dedicated periodic sim event outside every
    /// RNG stream; extra events shift queue sequence numbers uniformly,
    /// so the FIFO tie-break order of all other events is untouched and
    /// results stay bit-identical. Call before [`World::run`] /
    /// [`World::start`] (the first sample is scheduled by `start`).
    pub fn enable_timeseries(&mut self, interval: SimDuration) {
        assert!(interval > SimDuration::ZERO, "sampling interval must be positive");
        let rec = TimeseriesRecorder::new(interval.as_nanos(), self.flows.len());
        self.timeseries = Some(TimeseriesState { interval, rec });
    }

    /// Detaches the time-series recorder with everything sampled so far.
    pub fn take_timeseries(&mut self) -> Option<TimeseriesRecorder> {
        self.timeseries.take().map(|ts| ts.rec)
    }

    /// Enables per-event-kind wall-clock profiling of the dispatch loop.
    ///
    /// Unlike tracing and sampling, profiling makes the *summary* differ:
    /// [`World::finish`] attaches [`WorldDiagnostics`] (inherently
    /// nondeterministic wall-ns readings included) to
    /// `TrialSummary::diagnostics`, which is why it is a separate opt-in.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(EventProfiler::new(&EVENT_KIND_NAMES));
    }

    /// One unified snapshot of the simulator's internal health: event
    /// queue volume, channel table/cache occupancy, MAC medium activity,
    /// and the event profile when profiling is on.
    pub fn diagnostics(&self) -> WorldDiagnostics {
        WorldDiagnostics {
            pending_events: self.pending_events(),
            popped_events: self.sim.popped(),
            calendar_retunes: 0,
            channel_active_pairs: self.channel.active_pairs(),
            channel_table_growths: self.channel.table_growths(),
            decay_cache: Some(self.channel.decay_cache_stats()),
            medium_txs: self.medium.txs_begun(),
            event_profile: self.profiler.as_ref().map(|p| p.finish()),
        }
    }

    /// Events still queued that will be handled: the stored events minus
    /// the stale protocol timers `step_until` will drop.
    fn pending_events(&self) -> usize {
        self.sim.pending() - self.stale_timers
    }

    /// Records one trace event, building it lazily: with tracing disabled
    /// this is a single branch.
    #[inline]
    fn trace(&mut self, make: impl FnOnce(SimTime) -> TraceEvent) {
        if let Some(tr) = &mut self.tracer {
            let t = self.sim.now();
            tr.sink.record(&make(t));
        }
    }

    /// Drops a data packet at `node`, recording the reason in metrics and
    /// (when tracing) the packet's lifecycle end. Every drop path funnels
    /// through here — no silent discards.
    fn drop_data_at(&mut self, node: usize, pkt: DataPacket, reason: DropReason) {
        self.metrics.on_dropped_flow(pkt.flow.0, reason, self.sim.now());
        self.trace(|t| TraceEvent::DataDropped {
            t,
            node: NodeId(node as u32),
            flow: pkt.flow,
            seq: pkt.seq,
            reason,
        });
    }

    /// The position of node `i` at the current instant (see
    /// [`memo_position`]).
    fn position(&mut self, i: usize) -> Vec2 {
        let now = self.sim.now();
        memo_position(&mut self.nodes, &mut self.pos_cache, &mut self.pos_stamp, i, now)
    }

    /// Rebuilds the neighbor grid if any terminal may have drifted more
    /// than [`GRID_SLACK_M`] since the last position snapshot.
    fn ensure_grid(&mut self) {
        let now = self.sim.now();
        if let Some(valid) = self.grid_valid_until {
            if now <= valid {
                return;
            }
        }
        for i in 0..self.nodes.len() {
            let _ = self.position(i);
        }
        self.grid.rebuild(&self.pos_cache);
        // Keep the rebuild-instant positions: cached fan-out queries anchor
        // to them (pos_cache itself moves on with every later event).
        self.grid_snapshot.copy_from_slice(&self.pos_cache);
        self.grid_valid_until = Some(if self.max_speed_ms > 0.0 {
            now.saturating_add(SimDuration::from_secs_f64(GRID_SLACK_M / self.max_speed_ms))
        } else {
            SimTime::MAX
        });
    }

    /// The broadcast candidate superset for transmitter `node`, cached per
    /// grid epoch and taken out of `self` for iteration (return it with
    /// `self.fanout[node] = list` afterwards).
    ///
    /// Between grid rebuilds a node transmits many times (MAC pipeline,
    /// beacons, CSI checks), and each transmission used to re-query the
    /// grid. Instead, query once per `(node, epoch)`: anchored at the
    /// transmitter's *snapshot* position with radius inflated by
    /// `2·GRID_SLACK_M`. Within the epoch no terminal is more than
    /// `GRID_SLACK_M` from its snapshot position, so for any receiver `j`
    /// within exact range of the transmitter at delivery time,
    /// `|snap_j − snap_tx| ≤ slack + range + slack` — the cached list is a
    /// conservative superset for *every* transmission in the epoch. The
    /// exact per-delivery range / collision / class checks (and the final
    /// receiver sort) are unchanged, so dispatch is scan-identical.
    fn broadcast_candidates(&mut self, node: usize) -> Vec<u32> {
        self.ensure_grid();
        let epoch = self.grid.epoch();
        let mut list = std::mem::take(&mut self.fanout[node]);
        if self.fanout_epoch[node] != epoch {
            let radius = TX_RANGE_M + 2.0 * GRID_SLACK_M;
            let center = self.grid_snapshot[node];
            self.grid.query_unordered_into(center, radius, &mut list);
            // The grid answers at cell granularity — a superset of the
            // query disc. Trim it to the disc by exact snapshot distance
            // (plus a metre of slop dwarfing any float error in the drift
            // bound) once per epoch, and drop the transmitter itself, so
            // the per-transmission loop never revisits candidates that
            // cannot possibly be in range during this epoch.
            let keep_sq = (radius + 1.0) * (radius + 1.0);
            let snap = &self.grid_snapshot;
            list.retain(|&j| j as usize != node && snap[j as usize].distance_sq(center) <= keep_sq);
            self.fanout_epoch[node] = epoch;
        }
        list
    }

    fn link_class(&mut self, a: usize, b: usize) -> Option<ChannelClass> {
        if self.partition_sig[a] != self.partition_sig[b] {
            return None; // an active partition cuts every link across the boundary
        }
        let now = self.sim.now();
        let pa = self.position(a);
        let pb = self.position(b);
        self.channel.class_between(a as u32, b as u32, pa, pb, now)
    }

    /// Runs the trial to completion and produces the metric summary.
    pub fn run(mut self) -> TrialSummary {
        self.start();
        self.step_until(self.end);
        self.finish()
    }

    /// Initialises protocols, the topology snapshot, the fault plan and
    /// the traffic processes. Called automatically by [`World::run`]; call
    /// it explicitly when driving the world incrementally with
    /// [`World::step_until`].
    pub fn start(&mut self) {
        // Start protocols and install the initial accurate topology view
        // (link state uses it; on-demand protocols ignore it, §III.A).
        let snapshot = self.build_snapshot();
        for i in 0..self.nodes.len() {
            self.dispatch(i, |proto, ctx| proto.on_start(ctx));
            self.dispatch(i, |proto, ctx| proto.on_topology_snapshot(ctx, &snapshot));
        }
        // Schedule the resolved fault plan. Empty plans schedule nothing,
        // so fault-free trials keep their exact event sequence.
        for i in 0..self.faults.crashes.len() {
            let (at, node) = self.faults.crashes[i];
            self.sim.schedule_at(at, Event::Crash { node: node as usize });
        }
        for i in 0..self.faults.reboots.len() {
            let (at, node) = self.faults.reboots[i];
            self.sim.schedule_at(at, Event::Reboot { node: node as usize });
        }
        for idx in 0..self.faults.partitions.len() {
            let (start, heal) =
                (self.faults.partitions[idx].start, self.faults.partitions[idx].heal);
            self.sim.schedule_at(start, Event::PartitionStart { idx });
            self.sim.schedule_at(heal, Event::PartitionHeal { idx });
        }
        // Prime the traffic processes.
        for f in 0..self.flows.len() {
            let gap = self.traffic[f].next_gap();
            self.sim.schedule_in(gap, Event::Traffic { flow: f });
        }
        // Prime the time-series sampler: a baseline row at t = 0, then one
        // periodic event. Scheduling it draws no randomness, and the extra
        // seq numbers it consumes shift all later events uniformly —
        // relative FIFO order of same-instant events is preserved.
        if let Some(ts) = &self.timeseries {
            let interval = ts.interval;
            self.record_sample();
            if SimTime::ZERO + interval <= self.end {
                self.sim.schedule_at(SimTime::ZERO + interval, Event::Sample);
            }
        }
    }

    /// Processes events up to (and including) instant `until`, capped at
    /// the scenario end. Returns the number of events handled.
    ///
    /// A protocol timer whose token is no longer live (cancelled, or
    /// voided by a crash) is dropped as it surfaces, before it is counted,
    /// profiled or traced; MAC and data events of a previous life retire
    /// the same way through their incarnation tags.
    pub fn step_until(&mut self, until: SimTime) -> u64 {
        let until = until.min(self.end);
        let mut events = 0u64;
        // `max_events` is the safety valve against pathological storms;
        // results remain valid up to the instant the valve trips. Only a
        // profiled world reads the clock.
        while events < self.max_events {
            let Some((_, ev)) = self.sim.step_at_or_before(until) else { break };
            if let Event::ProtoTimer { node, token, .. } = ev {
                if !self.forget_timer(node, token) {
                    self.stale_timers -= 1;
                    continue;
                }
            }
            events += 1;
            let Some(profiler) = &self.profiler else {
                self.handle(ev);
                continue;
            };
            let (kind, t0) = (ev.kind(), profiler.start());
            self.handle(ev);
            if let Some(profiler) = &mut self.profiler {
                profiler.stop(kind, t0);
            }
        }
        events
    }

    /// Freezes the metrics into the trial summary. When profiling was
    /// enabled the summary carries [`WorldDiagnostics`] (otherwise the
    /// `diagnostics` field stays `None` and the summary's `Debug`
    /// rendering is byte-identical to a plain run).
    pub fn finish(mut self) -> TrialSummary {
        let diagnostics = self.profiler.is_some().then(|| self.diagnostics());
        if let Some(tr) = &mut self.tracer {
            tr.sink.flush();
        }
        let mut summary = self.metrics.finish(self.scenario.duration);
        summary.diagnostics = diagnostics;
        summary
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Observability: walks the per-node `current_downstream` pointers of
    /// the flow `(src, dst)` from the source, yielding the route as this
    /// instant's protocol state describes it. Stops at the destination, at
    /// a terminal with no pointer, or after `nodes` hops (loop guard — a
    /// truncated walk whose last element is not `dst` indicates a broken or
    /// looping route).
    pub fn trace_route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut at = src;
        for _ in 0..self.nodes.len() {
            if at == dst {
                break;
            }
            let proto = self.protos[at.index()].as_ref();
            let Some(next) = proto.and_then(|p| p.current_downstream(src, dst)) else {
                break;
            };
            if path.contains(&next) {
                path.push(next); // make the loop visible, then stop
                break;
            }
            path.push(next);
            at = next;
        }
        path
    }

    fn build_snapshot(&mut self) -> TopologySnapshot {
        let mut snap = TopologySnapshot::default();
        let n = self.nodes.len();
        for a in 0..n {
            for b in (a + 1)..n {
                if let Some(class) = self.link_class(a, b) {
                    snap.links.push((NodeId(a as u32), NodeId(b as u32), class));
                }
            }
        }
        snap
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Traffic { flow } => self.on_traffic(flow),
            Event::MacAttempt { node, inc } => self.on_mac_attempt(node, inc),
            Event::MacTxEnd { node, tx, inc } => self.on_mac_tx_end(node, tx, inc),
            Event::DataTxEnd { from, to, inc } => self.on_data_tx_end(from, to, inc),
            // `step_until` retired the token: only a live timer gets here.
            Event::ProtoTimer { node, timer, .. } => {
                self.trace(|t| TraceEvent::TimerFired {
                    t,
                    node: NodeId(node as u32),
                    timer: timer.kind_name(),
                });
                self.dispatch(node, move |proto, ctx| proto.on_timer(ctx, timer));
            }
            Event::Crash { node } => self.on_crash(node),
            Event::Sample => self.on_sample(),
            Event::Reboot { node } => self.on_reboot(node),
            Event::PartitionStart { idx } => self.on_partition(idx, true),
            Event::PartitionHeal { idx } => self.on_partition(idx, false),
        }
    }

    /// Failure injection: the radio goes silent. Queued control traffic
    /// dies with the node (counted, not silently discarded), its pending
    /// protocol timers are voided — a later cold reboot must never
    /// receive timers armed by the previous life — and data links are
    /// torn down with every held packet (queued or mid-transmission)
    /// accounted as a [`DropReason::NodeCrashed`] loss. Upstream
    /// neighbours discover the break through their own retransmissions.
    fn on_crash(&mut self, node: usize) {
        if self.dead[node] {
            return; // overlapping schedules (explicit crash + churn): already down
        }
        let now = self.sim.now();
        self.dead[node] = true;
        // Invalidate the node's in-flight MAC/data pipeline events: each
        // carries the incarnation it was scheduled under and no-ops once
        // the counter moves on.
        self.incarnation[node] = self.incarnation[node].wrapping_add(1);
        let st = &mut self.nodes[node];
        let dropped_ctrl = st.ctrl_queue.len();
        st.ctrl_queue.clear();
        st.mac_scheduled = false;
        st.mac_attempts = 0;
        // Forgetting the tokens voids the timers; they stay queued until
        // they surface in `step_until`.
        let cancelled_timers = self.timers[node].len();
        self.timers[node].clear();
        self.stale_timers += cancelled_timers;
        let links = std::mem::take(&mut self.nodes[node].links);
        let mut dropped_data = 0usize;
        for (_, mut link) in links {
            if let Some(inflight) = link.in_flight.take() {
                self.drop_data_at(node, inflight.pkt, DropReason::NodeCrashed);
                dropped_data += 1;
            }
            for pkt in link.queue.drain_all() {
                self.drop_data_at(node, pkt, DropReason::NodeCrashed);
                dropped_data += 1;
            }
        }
        self.metrics.on_fault(FaultKind::Crash, now);
        self.trace(|t| TraceEvent::NodeCrashed {
            t,
            node: NodeId(node as u32),
            dropped_data,
            dropped_ctrl,
            cancelled_timers,
        });
    }

    /// Failure injection: a crashed terminal powers back on with no
    /// memory of its previous life. It gets a fresh protocol instance,
    /// started like any other ([`RoutingProtocol::on_start`]), and must
    /// re-join routing like a late joiner; flows sourced here whose
    /// renewal chains stopped at the crash draw a fresh inter-arrival gap
    /// and start generating again.
    fn on_reboot(&mut self, node: usize) {
        if !self.dead[node] {
            return; // overlapping schedules: already up
        }
        let now = self.sim.now();
        self.dead[node] = false;
        // Queues, links and MAC flags were reset at crash time; the
        // incarnation bump keeps any still-pending old events inert.
        self.protos[node] = Some(self.kind.make());
        self.dispatch(node, |proto, ctx| proto.on_start(ctx));
        let mut resumed_flows = 0usize;
        for f in 0..self.flows.len() {
            if self.flows[f].src.index() == node && !self.traffic_live[f] {
                self.traffic_live[f] = true;
                let gap = self.traffic[f].next_gap();
                self.sim.schedule_in(gap, Event::Traffic { flow: f });
                resumed_flows += 1;
            }
        }
        self.metrics.on_fault(FaultKind::Reboot, now);
        self.trace(|t| TraceEvent::NodeRebooted { t, node: NodeId(node as u32), resumed_flows });
    }

    /// Fault injection: partition episode `idx` starts (`start = true`)
    /// or heals. Signatures are recomputed over every active episode, so
    /// overlapping partitions compose: a link is cut while *any* active
    /// episode separates its endpoints.
    fn on_partition(&mut self, idx: usize, start: bool) {
        let now = self.sim.now();
        self.partition_active[idx] = start;
        for i in 0..self.partition_sig.len() {
            let mut sig = 0u32;
            for (e, ep) in self.faults.partitions.iter().enumerate() {
                if self.partition_active[e] && ep.group[i] {
                    sig |= 1 << e;
                }
            }
            self.partition_sig[i] = sig;
        }
        let group_size = self.faults.partitions[idx].group.iter().filter(|&&g| g).count();
        let kind = if start { FaultKind::PartitionStart } else { FaultKind::PartitionHeal };
        self.metrics.on_fault(kind, now);
        if start {
            self.trace(|t| TraceEvent::PartitionStart { t, episode: idx, group_size });
        } else {
            self.trace(|t| TraceEvent::PartitionHealed { t, episode: idx, group_size });
        }
    }

    /// One time-series sample: pure reads of queue depths, event-queue
    /// volume and the channel's memoized class census (nothing here may
    /// touch an RNG or advance channel state), then the next firing.
    fn on_sample(&mut self) {
        self.record_sample();
        let Some(ts) = &self.timeseries else { return };
        let next = self.sim.now() + ts.interval;
        if next <= self.end {
            self.sim.schedule_at(next, Event::Sample);
        }
    }

    /// Reads one [`rica_trace::SampleRow`]'s worth of state into the
    /// recorder.
    fn record_sample(&mut self) {
        let pending = self.pending_events();
        let popped = self.sim.popped();
        let mut ctrl_queued = 0usize;
        let mut data_queued = 0usize;
        let mut links_in_flight = 0usize;
        for n in &self.nodes {
            ctrl_queued += n.ctrl_queue.len();
            for link in n.links.values() {
                data_queued += link.queue.len();
                links_in_flight += usize::from(link.in_flight.is_some());
            }
        }
        let census = self.channel.class_census();
        let t_ns = self.sim.now().as_nanos();
        let Some(ts) = &mut self.timeseries else { return };
        ts.rec.push_row(t_ns, pending, popped, ctrl_queued, data_queued, links_in_flight, census);
    }

    // ------------------------------------------------------------- traffic

    fn on_traffic(&mut self, flow: usize) {
        let now = self.sim.now();
        let (src, dst) = (self.flows[flow].src, self.flows[flow].dst);
        if self.dead[src.index()] {
            // A crashed source stops generating; the renewal chain ends
            // here and restarts at the reboot.
            self.traffic_live[flow] = false;
            return;
        }
        // Per emitted packet the workload model draws size first, then
        // the gap to the next packet — the default (fixed-size Poisson)
        // model draws nothing for the size, reproducing the legacy
        // single-exponential-per-packet stream exactly.
        let bytes = self.traffic[flow].packet_bytes();
        let seq = self.flow_seq[flow];
        self.flow_seq[flow] += 1;
        let pkt = DataPacket::new(FlowId(flow as u32), seq, src, dst, bytes, now);
        self.metrics.on_generated_flow(flow as u32, pkt.size_bits());
        if let Some(ts) = &mut self.timeseries {
            ts.rec.note_generated(pkt.flow);
        }
        self.trace(|t| TraceEvent::DataGenerated {
            t,
            flow: FlowId(flow as u32),
            seq,
            src,
            dst,
            bytes,
        });
        self.dispatch(src.index(), move |proto, ctx| proto.on_data(ctx, pkt, None));
        let gap = self.traffic[flow].next_gap();
        self.sim.schedule_in(gap, Event::Traffic { flow });
    }

    // ----------------------------------------------------- common channel

    fn enqueue_ctrl(&mut self, node: usize, pkt: ControlPacket, target: Option<NodeId>) {
        let st = &mut self.nodes[node];
        if st.ctrl_queue.len() >= CTRL_QUEUE_CAP {
            self.metrics.on_ctrl_queue_drop();
            let kind = pkt.kind();
            self.trace(|t| TraceEvent::CtrlQueueDrop { t, node: NodeId(node as u32), kind });
            return;
        }
        st.ctrl_queue.push_back(OutgoingCtrl { pkt, target, retries: 0 });
        if !st.mac_scheduled {
            st.mac_scheduled = true;
            let jitter_max = match target {
                None => BROADCAST_JITTER,
                Some(_) => UNICAST_JITTER,
            };
            let jitter =
                SimDuration::from_nanos(st.rng.u64_below(jitter_max.as_nanos().max(1)) + 1);
            let inc = self.incarnation[node];
            self.sim.schedule_in(jitter, Event::MacAttempt { node, inc });
        }
    }

    fn on_mac_attempt(&mut self, node: usize, inc: u32) {
        let now = self.sim.now();
        if inc != self.incarnation[node] {
            return; // scheduled by a previous life; the crash reset the pipeline
        }
        debug_assert!(!self.dead[node], "a dead node {node} scheduled a MAC attempt");
        if self.nodes[node].ctrl_queue.is_empty() {
            self.nodes[node].mac_scheduled = false;
            self.nodes[node].mac_attempts = 0;
            return;
        }
        let pos = self.position(node);
        if self.medium.is_busy_near(node as u32, pos, now) {
            let st = &mut self.nodes[node];
            st.mac_attempts += 1;
            let attempts = st.mac_attempts;
            if attempts > MAX_ATTEMPTS {
                // Channel hopeless for this packet: abandon it.
                let abandoned = st.ctrl_queue.pop_front().expect("checked non-empty");
                st.mac_attempts = 0;
                self.metrics.on_ctrl_queue_drop();
                let kind = abandoned.pkt.kind();
                self.trace(|t| TraceEvent::MacAbandon { t, node: NodeId(node as u32), kind });
                self.sim.schedule_in(IFS, Event::MacAttempt { node, inc });
            } else {
                let delay = backoff_delay(attempts - 1, &mut st.rng);
                self.trace(|t| TraceEvent::MacBusy { t, node: NodeId(node as u32), attempts });
                self.sim.schedule_in(delay, Event::MacAttempt { node, inc });
            }
            return;
        }
        // Clear channel: transmit the head packet.
        let (bits, kind, target) = {
            let head = self.nodes[node].ctrl_queue.front().expect("checked non-empty");
            (head.pkt.size_bits(), head.pkt.kind(), head.target)
        };
        let dur = tx_duration(bits);
        let tx = self.medium.begin_tx(node as u32, pos, now, now + dur);
        self.metrics.on_control_tx(kind, bits);
        self.trace(|t| TraceEvent::CtrlTx { t, node: NodeId(node as u32), kind, bits, target });
        self.sim.schedule_in(dur, Event::MacTxEnd { node, tx, inc });
    }

    fn on_mac_tx_end(&mut self, node: usize, tx: TxId, inc: u32) {
        let now = self.sim.now();
        if inc != self.incarnation[node] {
            // The transmitter crashed mid-transmission: the queue head this
            // event would complete died with the node. (The medium keeps
            // the aborted transmission's busy window until it is pruned.)
            return;
        }
        let out = self.nodes[node].ctrl_queue.pop_front().expect("tx had a head packet");
        self.nodes[node].mac_attempts = 0;
        let p_tx = self.position(node);
        // Determine the outcome at every potential receiver first, then
        // dispatch (dispatching mutates the world). Candidates come from
        // the epoch-cached spatial-grid superset — in *cell* order of the
        // snapshot query, so the per-candidate work below must stay
        // order-independent (it touches only per-pair state and counters;
        // survivors are sorted before dispatch) — and the exact range /
        // collision / class checks reproduce the full O(n) scan verbatim.
        // The in-range predicate is the same inclusive squared-metre
        // compare over the one radio range as `ChannelModel::in_range` /
        // `class_at_dist_sq` and `CommonMedium`, so anything that passes
        // here has a class (boundary agreement pinned by
        // `tests/channel_fastpath.rs`). One predicate at every site — a
        // rounded-`sqrt` variant anywhere could disagree in the last ulp
        // and panic the `expect` below.
        let range_sq = TX_RANGE_M * TX_RANGE_M;
        let candidates = self.broadcast_candidates(node);
        self.medium.begin_delivery(tx);
        let mut receivers = std::mem::take(&mut self.scratch_receivers);
        let mut target_delivered = false;
        {
            // Borrow the fields the filter touches once, outside the loop:
            // the per-candidate work is pure loads/stores on disjoint parts
            // of the world (position memo, medium, channel, counters), and
            // routing everything through `&mut self` methods would re-read
            // them per candidate. The cached list never contains the
            // transmitter itself (see `broadcast_candidates`).
            let World {
                nodes,
                dead,
                partition_sig,
                pos_cache,
                pos_stamp,
                medium,
                channel,
                metrics,
                tracer,
                ..
            } = self;
            // Partition cut: endpoints with differing signatures hear
            // nothing from each other. All-zero signatures (no active
            // partition, the default) filter nobody.
            let sig_tx = partition_sig[node];
            for &cand in &candidates {
                let j = cand as usize;
                if dead[j] || partition_sig[j] != sig_tx {
                    continue;
                }
                let pj = memo_position(nodes, pos_cache, pos_stamp, j, now);
                let d_sq = pj.distance_sq(p_tx);
                if d_sq > range_sq {
                    continue;
                }
                if !medium.delivered_prepared(cand, pj) {
                    metrics.on_collision();
                    if let Some(tr) = tracer {
                        tr.sink.record(&TraceEvent::MacCollision {
                            t: now,
                            tx: NodeId(node as u32),
                            rx: NodeId(cand),
                        });
                    }
                    continue;
                }
                // The CSI measurement reuses the squared distance measured
                // for the range check above (bit-identical: IEEE negation
                // is exact, so the displacement order cannot matter). Both
                // channel tiers classify here, one pair at a time in
                // candidate order; per-pair streams make that order
                // invisible to the realisation.
                let class = channel
                    .class_at_dist_sq(node as u32, cand, d_sq, now)
                    .expect("receiver in range has a class");
                if let Some(tr) = tracer {
                    tr.note_class(now, node as u32, cand, class);
                }
                let info = RxInfo { from: NodeId(node as u32), class };
                match out.target {
                    None => receivers.push((j, info)),
                    Some(t) if t.index() == j => {
                        target_delivered = true;
                        receivers.push((j, info));
                    }
                    Some(_) => {} // MAC-filtered: not addressed to j
                }
            }
        }
        self.fanout[node] = candidates;
        // Protocol side effects depend on delivery order: dispatch in
        // ascending node order, exactly like the full scan did.
        receivers.sort_unstable_by_key(|&(j, _)| j);
        // Unicast MAC-level retransmission on failure.
        if let Some(target) = out.target {
            if !target_delivered {
                if out.retries < CTRL_RETRY_LIMIT {
                    let retry = OutgoingCtrl {
                        pkt: out.pkt.clone(),
                        target: out.target,
                        retries: out.retries + 1,
                    };
                    self.nodes[node].ctrl_queue.push_front(retry);
                } else {
                    // Retries exhausted: the packet is silently lost at the
                    // MAC (the protocol finds out through its own timers).
                    let kind = out.pkt.kind();
                    self.trace(|t| TraceEvent::CtrlUnicastGaveUp {
                        t,
                        node: NodeId(node as u32),
                        target,
                        kind,
                    });
                }
            }
        }
        self.medium.prune_before(now);
        // Keep the MAC pipeline going.
        if self.nodes[node].ctrl_queue.is_empty() {
            self.nodes[node].mac_scheduled = false;
        } else {
            self.sim.schedule_in(IFS, Event::MacAttempt { node, inc });
        }
        // Deliver to the receiving protocols: every receiver borrows the
        // same packet buffer (no per-receiver clone).
        for &(j, info) in &receivers {
            let pkt = &out.pkt;
            self.dispatch(j, move |proto, ctx| proto.on_control(ctx, pkt, info));
        }
        receivers.clear();
        self.scratch_receivers = receivers;
    }

    // ---------------------------------------------------------- data plane

    fn enqueue_data(&mut self, from: usize, to: usize, pkt: DataPacket) {
        let now = self.sim.now();
        let link = self.nodes[from].links.entry(to).or_insert_with(|| DataLink {
            queue: LinkQueue::new(LINK_QUEUE_CAP, MAX_QUEUE_RESIDENCY),
            in_flight: None,
        });
        let (flow, seq) = (pkt.flow, pkt.seq);
        let rejected = link.queue.push(now, pkt);
        let queued = link.queue.len();
        match rejected {
            Some(rejected) => self.drop_data_at(from, rejected, DropReason::BufferOverflow),
            None => self.trace(|t| TraceEvent::DataEnqueued {
                t,
                from: NodeId(from as u32),
                to: NodeId(to as u32),
                flow,
                seq,
                queued,
            }),
        }
        self.try_start_data(from, to);
    }

    /// Starts transmitting the next queued packet on `from → to`, if idle.
    /// An idle link with nothing left to send is removed, so its queue
    /// buffer exists only while it holds a packet.
    fn try_start_data(&mut self, from: usize, to: usize) {
        let now = self.sim.now();
        let mut expired = std::mem::take(&mut self.scratch_expired);
        let links = &mut self.nodes[from].links;
        let pkt = match links.get_mut(&to) {
            Some(link) if link.in_flight.is_none() => link.queue.pop_fresh(now, &mut expired),
            _ => {
                self.scratch_expired = expired;
                return;
            }
        };
        if pkt.is_none() {
            links.remove(&to);
        }
        for stale in expired.drain(..) {
            self.drop_data_at(from, stale, DropReason::BufferTimeout);
        }
        self.scratch_expired = expired;
        let Some(pkt) = pkt else { return };
        let class = self.link_class(from, to);
        let dur = Self::attempt_duration(&pkt, class);
        let (flow, seq) = (pkt.flow, pkt.seq);
        self.nodes[from].links.get_mut(&to).expect("link exists").in_flight =
            Some(InFlight { pkt, tries: 0, class });
        self.trace(|t| TraceEvent::DataTxStart {
            t,
            from: NodeId(from as u32),
            to: NodeId(to as u32),
            flow,
            seq,
            class,
            tries: 0,
        });
        let inc = self.incarnation[from];
        self.sim.schedule_in(dur, Event::DataTxEnd { from, to, inc });
    }

    fn attempt_duration(pkt: &DataPacket, class: Option<ChannelClass>) -> SimDuration {
        match class {
            Some(c) => SimDuration::from_secs_f64(c.tx_secs(pkt.size_bits())),
            // Receiver unreachable: the sender transmits at the most robust
            // rate and waits out the ACK timeout.
            None => {
                SimDuration::from_secs_f64(ChannelClass::D.tx_secs(pkt.size_bits())) + ACK_TIMEOUT
            }
        }
    }

    fn on_data_tx_end(&mut self, from: usize, to: usize, inc: u32) {
        if inc != self.incarnation[from] {
            return; // link state was cleared when the sender crashed
        }
        debug_assert!(!self.dead[from], "a dead node {from} scheduled a data transmission");
        let p_from = self.position(from);
        let p_to = self.position(to);
        let in_range = self.partition_sig[from] == self.partition_sig[to]
            && self.channel.in_range(p_from, p_to)
            && !self.dead[to];
        let Some(link) = self.nodes[from].links.get_mut(&to) else { return };
        let Some(inflight) = link.in_flight.take() else { return };
        match inflight.class {
            Some(class) if in_range => {
                // Success: the receiver ACKs on the reverse PN code.
                let mut pkt = inflight.pkt;
                pkt.record_hop(class);
                self.metrics.on_ack_tx(DATA_ACK_BYTES as u64 * 8);
                let (flow, seq) = (pkt.flow, pkt.seq);
                self.trace(|t| TraceEvent::DataHop {
                    t,
                    from: NodeId(from as u32),
                    to: NodeId(to as u32),
                    flow,
                    seq,
                    class,
                });
                self.try_start_data(from, to);
                let info = RxInfo { from: NodeId(from as u32), class };
                self.dispatch(to, move |proto, ctx| proto.on_data(ctx, pkt, Some(info)));
            }
            _ => {
                // No ACK. Retry or declare the link broken.
                let tries = inflight.tries + 1;
                if tries > DATA_RETRY_LIMIT {
                    self.metrics.on_link_break();
                    let mut undelivered = vec![inflight.pkt];
                    undelivered.extend(link.queue.drain_all());
                    self.nodes[from].links.remove(&to);
                    let count = undelivered.len();
                    self.trace(|t| TraceEvent::LinkBreak {
                        t,
                        from: NodeId(from as u32),
                        to: NodeId(to as u32),
                        undelivered: count,
                    });
                    self.dispatch(from, move |proto, ctx| {
                        proto.on_link_failure(ctx, NodeId(to as u32), undelivered)
                    });
                } else {
                    let class = self.link_class(from, to);
                    let dur = Self::attempt_duration(&inflight.pkt, class) + DATA_RETRY_BACKOFF;
                    let (flow, seq) = (inflight.pkt.flow, inflight.pkt.seq);
                    self.nodes[from].links.get_mut(&to).expect("link exists").in_flight =
                        Some(InFlight { pkt: inflight.pkt, tries, class });
                    self.trace(|t| TraceEvent::DataRetry {
                        t,
                        from: NodeId(from as u32),
                        to: NodeId(to as u32),
                        flow,
                        seq,
                        tries,
                    });
                    self.sim.schedule_in(dur, Event::DataTxEnd { from, to, inc });
                }
            }
        }
    }

    // ------------------------------------------------------------ timers

    fn set_timer(&mut self, node: usize, delay: SimDuration, timer: Timer) -> TimerToken {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers[node].push(token);
        self.sim.schedule_in(delay, Event::ProtoTimer { node, timer, token });
        TimerToken(token)
    }

    /// Cancelling a fired or already cancelled timer is a no-op.
    fn cancel_timer(&mut self, node: usize, token: TimerToken) {
        if self.forget_timer(node, token.0) {
            self.stale_timers += 1;
        }
    }

    /// Removes `token` from `node`'s live timers; false if it was not live.
    fn forget_timer(&mut self, node: usize, token: u64) -> bool {
        let live = &mut self.timers[node];
        let Ok(i) = live.binary_search(&token) else { return false };
        live.remove(i);
        true
    }

    // ---------------------------------------------------------- dispatch

    /// Runs a protocol callback with a [`NodeCtx`] view of this world. The
    /// protocol instance is taken out so the context can borrow the world
    /// mutably; context operations never re-enter a protocol.
    fn dispatch<F>(&mut self, node: usize, f: F)
    where
        F: FnOnce(&mut dyn RoutingProtocol, &mut dyn NodeCtx),
    {
        if self.dead[node] {
            return; // crashed terminals process nothing
        }
        let mut proto = self.protos[node].take().expect("re-entrant protocol dispatch");
        {
            let mut ctx = Ctx { world: self, node };
            f(proto.as_mut(), &mut ctx);
        }
        self.protos[node] = Some(proto);
    }
}

/// Per-dispatch [`NodeCtx`] implementation.
struct Ctx<'w, 's> {
    world: &'w mut World<'s>,
    node: usize,
}

impl NodeCtx for Ctx<'_, '_> {
    fn now(&self) -> SimTime {
        self.world.sim.now()
    }

    fn id(&self) -> NodeId {
        NodeId(self.node as u32)
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.world.nodes[self.node].rng
    }

    fn config(&self) -> &ProtocolConfig {
        &self.world.scenario.protocol
    }

    fn broadcast(&mut self, pkt: ControlPacket) {
        self.world.enqueue_ctrl(self.node, pkt, None);
    }

    fn unicast(&mut self, to: NodeId, pkt: ControlPacket) {
        self.world.enqueue_ctrl(self.node, pkt, Some(to));
    }

    fn send_data(&mut self, next_hop: NodeId, pkt: DataPacket) {
        self.world.enqueue_data(self.node, next_hop.index(), pkt);
    }

    fn deliver_local(&mut self, pkt: DataPacket) {
        let now = self.world.sim.now();
        self.world.metrics.on_delivered(&pkt, now);
        if let Some(ts) = &mut self.world.timeseries {
            ts.rec.note_delivered(pkt.flow);
        }
        let node = self.node;
        self.world.trace(|t| TraceEvent::DataDelivered {
            t,
            node: NodeId(node as u32),
            flow: pkt.flow,
            seq: pkt.seq,
            delay_ms: now.saturating_since(pkt.created_at).as_secs_f64() * 1e3,
            hops: pkt.hops,
        });
    }

    fn drop_data(&mut self, pkt: DataPacket, reason: DropReason) {
        self.world.drop_data_at(self.node, pkt, reason);
    }

    fn note_route_phase(&mut self, phase: RoutePhase, src: NodeId, dst: NodeId) {
        let node = self.node;
        self.world.trace(|t| TraceEvent::RoutePhase {
            t,
            node: NodeId(node as u32),
            phase,
            src,
            dst,
        });
    }

    fn set_timer(&mut self, delay: SimDuration, timer: Timer) -> TimerToken {
        self.world.set_timer(self.node, delay, timer)
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        self.world.cancel_timer(self.node, token);
    }

    fn link_class_to(&mut self, neighbor: NodeId) -> Option<ChannelClass> {
        if neighbor.index() == self.node {
            return None;
        }
        self.world.link_class(self.node, neighbor.index())
    }

    fn data_queue_len(&self, neighbor: NodeId) -> usize {
        self.world.nodes[self.node].links.get(&neighbor.index()).map_or(0, |l| l.queue.len())
    }

    fn data_queue_total(&self) -> usize {
        self.world.nodes[self.node].links.values().map(|l| l.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn small_static(protocols: bool) -> Scenario {
        let mut b = Scenario::builder()
            .nodes(2)
            .flows(1)
            .rate_pps(10.0)
            .duration_secs(10.0)
            .mean_speed_kmh(0.0)
            .seed(42)
            .pinned_positions(vec![Vec2::new(100.0, 100.0), Vec2::new(180.0, 100.0)]);
        if protocols {
            b = b.flows(1);
        }
        b.build()
    }

    #[test]
    fn two_nodes_in_range_deliver_most_packets() {
        for kind in ProtocolKind::ALL {
            let report = small_static(true).run(kind);
            assert!(report.generated > 50, "{kind}: generated {}", report.generated);
            assert!(
                report.delivery_ratio() > 0.9,
                "{kind}: delivery {:.1}% of {}",
                report.delivery_pct(),
                report.generated
            );
            assert!(report.delay_mean_ms > 0.0, "{kind}: zero delay?");
        }
    }

    #[test]
    fn same_seed_same_result() {
        let s = small_static(false);
        let a = s.run(ProtocolKind::Rica);
        let b = s.run(ProtocolKind::Rica);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let s = small_static(false);
        let a = s.run_seeded(ProtocolKind::Rica, 1);
        let b = s.run_seeded(ProtocolKind::Rica, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn packet_conservation() {
        for kind in ProtocolKind::ALL {
            let s = Scenario::builder()
                .nodes(12)
                .flows(3)
                .duration_secs(20.0)
                .mean_speed_kmh(36.0)
                .seed(7)
                .build();
            let r = s.run(kind);
            assert!(
                r.delivered + r.dropped() <= r.generated,
                "{kind}: delivered {} + dropped {} > generated {}",
                r.delivered,
                r.dropped(),
                r.generated
            );
        }
    }

    #[test]
    fn multihop_chain_delivers_with_multiple_hops() {
        // 0 —— 1 —— 2 —— 3: 220 m spacing forces 3 hops.
        let s = Scenario::builder()
            .nodes(4)
            .duration_secs(20.0)
            .mean_speed_kmh(0.0)
            .seed(5)
            .pinned_positions(vec![
                Vec2::new(50.0, 500.0),
                Vec2::new(270.0, 500.0),
                Vec2::new(490.0, 500.0),
                Vec2::new(710.0, 500.0),
            ])
            .explicit_flows(vec![Flow::new(NodeId(0), NodeId(3), 5.0)])
            .build();
        for kind in ProtocolKind::ALL {
            let r = s.run(kind);
            assert!(r.delivered > 0, "{kind}: nothing delivered");
            assert!((r.avg_hops - 3.0).abs() < 0.01, "{kind}: expected 3 hops, got {}", r.avg_hops);
        }
    }

    #[test]
    fn overhead_accounts_control_and_acks() {
        let r = small_static(true).run(ProtocolKind::Rica);
        assert!(r.control_bits_total() > 0, "no control traffic recorded");
        assert!(r.ack_bits > 0, "no ACKs recorded");
        assert!(r.overhead_kbps > 0.0);
    }

    #[test]
    fn rica_emits_csi_checks_and_aodv_does_not() {
        use rica_net::ControlKind;
        let s = small_static(true);
        let rica = s.run(ProtocolKind::Rica);
        let aodv = s.run(ProtocolKind::Aodv);
        assert!(
            rica.control_bits.get(&ControlKind::CsiCheck).copied().unwrap_or(0) > 0,
            "RICA's destination must broadcast CSI checks"
        );
        assert_eq!(aodv.control_bits.get(&ControlKind::CsiCheck).copied().unwrap_or(0), 0);
    }

    #[test]
    #[should_panic(expected = "unusable rate")]
    fn post_build_degenerate_flow_rate_fails_loudly() {
        // The builder validates rates, but Scenario fields are pub and
        // the test suites mutate them after build(); the trial itself
        // must still fail loudly (in every build profile) rather than
        // silently generating no traffic.
        let mut s = small_static(false);
        s.explicit_flows = Some(vec![Flow::new(NodeId(0), NodeId(1), 0.0)]);
        s.run(ProtocolKind::Rica);
    }

    #[test]
    fn flows_must_join_two_distinct_nodes() {
        // An unknown source would index past the node table at its first
        // packet, an unknown destination would be searched for until
        // discovery gave up, and a flow to itself routes nothing: each is
        // rejected when the world is built, naming the flow.
        for (src, dst) in [(2, 1), (0, 9), (1, 1)] {
            let mut s = small_static(false);
            s.explicit_flows = Some(vec![
                Flow::new(NodeId(0), NodeId(1), 10.0),
                Flow::new(NodeId(src), NodeId(dst), 10.0),
            ]);
            let payload = std::panic::catch_unwind(|| World::new(&s, ProtocolKind::Aodv, 1))
                .expect_err("the flow must be rejected");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains(&format!("flow 1 (n{src} -> n{dst})")), "{msg}");
        }
    }

    #[test]
    fn data_links_exist_only_while_they_hold_a_packet() {
        let s = Scenario::builder()
            .nodes(20)
            .flows(8)
            .rate_pps(20.0)
            .duration_secs(20.0)
            .mean_speed_kmh(36.0)
            .seed(3)
            .build();
        let mut w = World::new(&s, ProtocolKind::Aodv, 3);
        w.start();
        let mut busy_links = 0;
        for t in 1..=20 {
            w.step_until(SimTime::from_secs_f64(f64::from(t)));
            for (i, node) in w.nodes.iter().enumerate() {
                for (to, link) in &node.links {
                    assert!(
                        !link.queue.is_empty() || link.in_flight.is_some(),
                        "n{i} holds an idle link to n{to} at {t} s"
                    );
                }
                busy_links += node.links.len();
            }
        }
        assert!(busy_links > 0, "the trial never loaded a link");
    }

    #[test]
    fn out_of_range_pair_delivers_nothing() {
        let s = Scenario::builder()
            .nodes(2)
            .duration_secs(5.0)
            .mean_speed_kmh(0.0)
            .seed(9)
            .pinned_positions(vec![Vec2::new(0.0, 0.0), Vec2::new(900.0, 900.0)])
            .explicit_flows(vec![Flow::new(NodeId(0), NodeId(1), 10.0)])
            .build();
        for kind in ProtocolKind::ALL {
            let r = s.run(kind);
            assert_eq!(r.delivered, 0, "{kind}: delivered across a partitioned network?");
            assert!(r.generated > 0);
        }
    }
}
