//! The observability determinism contract: enabling event tracing and
//! time-series sampling must not perturb a trial by a single byte.
//!
//! Tracing reads simulator state and never draws randomness; the sampler
//! runs on a dedicated periodic event whose extra sequence numbers shift
//! all later events uniformly (preserving FIFO tie-break order). These
//! tests pin that argument: for every protocol on both channel tiers, a
//! fully-instrumented run of the golden `mobile12` scenario must produce
//! a `TrialSummary` equal — field for field, and in `Debug` rendering —
//! to an uninstrumented one. (Profiling is the one exception by design: it
//! attaches wall-clock diagnostics to the summary, so it stays off here
//! and is covered separately below.)

use std::collections::BTreeSet;

use rica_channel::{ChannelConfig, ChannelFidelity};
use rica_faults::{FaultPlan, NodeGroup, NodeId};
use rica_harness::{ProtocolKind, Scenario, World};
use rica_metrics::parse_json;
use rica_sim::SimDuration;
use rica_trace::{JsonlSink, RingSink, TraceEvent};

fn golden_mobile12(fidelity: ChannelFidelity) -> Scenario {
    Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .channel(ChannelConfig { fidelity, ..ChannelConfig::default() })
        .build()
}

/// The golden `mobile25` trial (`tests/golden_metrics.rs`): 25 nodes at
/// 72 km/h, fast enough that routes break often and the local-repair
/// paths of ABR and BGCA run.
fn golden_mobile25() -> Scenario {
    Scenario::builder()
        .nodes(25)
        .flows(5)
        .rate_pps(10.0)
        .duration_secs(20.0)
        .mean_speed_kmh(72.0)
        .seed(11)
        .build()
}

#[test]
fn tracing_and_sampling_are_bit_invisible_for_every_protocol() {
    // Both channel tiers: the tracer observes their shared broadcast
    // reception loop (collisions and class transitions) on each.
    for fidelity in [ChannelFidelity::Exact, ChannelFidelity::Approx] {
        let s = golden_mobile12(fidelity);
        for kind in ProtocolKind::ALL {
            let label = format!("{kind}/{}", fidelity.name());
            let plain = s.run(kind);

            let mut world = World::new(&s, kind, s.seed);
            world.enable_trace(Box::new(RingSink::unbounded()));
            world.enable_timeseries(SimDuration::from_millis(250));
            world.start();
            let end = world.now() + s.duration;
            world.step_until(end);
            let mut sink = world.take_trace_sink().expect("sink was installed");
            let ring = sink.downcast_mut::<RingSink>().expect("ring sink");
            assert!(ring.seen() > 0, "{label}: an instrumented trial must observe events");
            let rows = world.take_timeseries().expect("recorder was installed").rows().len();
            // 30 s at 250 ms + the baseline row at t = 0.
            assert_eq!(rows, 121, "{label}: sampler cadence drifted");
            let traced = world.finish();

            assert_eq!(traced, plain, "{label}: tracing/sampling perturbed the summary");
            assert_eq!(
                format!("{traced:?}"),
                format!("{plain:?}"),
                "{label}: Debug rendering (the golden-hash payload) drifted"
            );
        }
    }
}

/// Profiling is the one opt-in that *does* change the summary — by
/// attaching diagnostics, never by changing the physics. Every metric
/// field must still match an unprofiled run.
#[test]
fn profiling_only_adds_diagnostics() {
    let s = golden_mobile12(ChannelFidelity::Exact);
    let plain = s.run(ProtocolKind::Rica);
    let mut world = World::new(&s, ProtocolKind::Rica, s.seed);
    world.enable_profiling();
    world.start();
    let end = world.now() + s.duration;
    world.step_until(end);
    let profiled = world.finish();
    let diag = profiled.diagnostics.as_ref().expect("profiled run carries diagnostics");
    let profile = diag.event_profile.as_ref().expect("profiling rows present");
    // Stale protocol timers (cancelled, or voided by a crash) are popped
    // and dropped by `step_until` before it profiles them, so profiled ≤
    // popped.
    assert!(profile.total_count() > 0);
    assert!(
        profile.total_count() <= diag.popped_events,
        "profiled {} events but the queue only popped {}",
        profile.total_count(),
        diag.popped_events
    );
    assert!(profile.total_ns() > 0);
    let mut stripped = profiled.clone();
    stripped.diagnostics = None;
    assert_eq!(stripped, plain, "profiling changed the physics, not just the diagnostics");
}

/// Every artifact a traced golden trial writes, on both channel tiers and
/// under faults, reads back through the one JSON reader: each trace line
/// is an object that opens with a `t` nanosecond timestamp (never
/// decreasing) and an `ev` from the published name table, and the
/// timeseries document carries its schema stamp and one sample per
/// second. The faulted trial traces every fault lifecycle event.
#[test]
fn jsonl_artifact_lines_follow_the_schema() {
    let exact = traced_artifacts(&golden_mobile12(ChannelFidelity::Exact), ProtocolKind::Rica);
    let approx = traced_artifacts(&golden_mobile12(ChannelFidelity::Approx), ProtocolKind::Rica);
    let faulted = faulted_artifacts(ProtocolKind::Rica);
    for (tier, (trace, timeseries)) in [("exact", exact), ("approx", approx), ("faulted", faulted)]
    {
        assert!(trace.lines().count() > 1_000, "{tier}: golden trial should emit a rich trace");
        let mut last_t = 0;
        let mut seen = BTreeSet::new();
        for (i, line) in trace.lines().enumerate() {
            let v = parse_json(line).unwrap_or_else(|e| panic!("{tier} line {i}: {e}: {line}"));
            let keys: Vec<&str> =
                v.as_object().unwrap_or_default().iter().map(|(k, _)| k.as_str()).collect();
            assert!(keys.starts_with(&["t", "ev"]), "{tier} line {i}: not t, ev first: {line}");
            let t = v.u64_at("t").unwrap_or_else(|e| panic!("{tier} line {i}: {e}"));
            assert!(t >= last_t, "{tier} line {i}: timestamps must be non-decreasing");
            last_t = t;
            let ev = v.str_at("ev").unwrap_or_else(|e| panic!("{tier} line {i}: {e}"));
            assert!(TraceEvent::NAMES.contains(&ev), "{tier} line {i}: unknown event {ev:?}");
            seen.insert(ev.to_string());
        }
        if tier == "faulted" {
            for ev in ["node_crashed", "node_rebooted", "partition_start", "partition_healed"] {
                assert!(seen.contains(ev), "the faulted trial traced no {ev}");
            }
        }
        let doc = parse_json(&timeseries).unwrap_or_else(|e| panic!("{tier} timeseries: {e}"));
        assert_eq!(doc.str_at("schema"), Ok("rica-timeseries-v1"), "{tier}");
        assert_eq!(doc.u64_at("interval_ns"), Ok(1_000_000_000), "{tier}");
        let samples = doc.array_at("samples").unwrap();
        assert_eq!(samples.len(), 31, "{tier}: 30 s at 1 Hz plus the t = 0 row");
        let flows = doc.usize_at("flows").unwrap();
        for row in samples {
            assert_eq!(row.array_at("class_census").unwrap().len(), 4, "{tier}");
            assert_eq!(row.array_at("flow_delivered").unwrap().len(), flows, "{tier}");
        }
    }
}

/// A trial traced to JSONL and sampled at 1 s: the trace file's bytes
/// and the timeseries document.
fn traced_artifacts(s: &Scenario, kind: ProtocolKind) -> (String, String) {
    let path = std::env::temp_dir().join(format!(
        "rica_trace_identity_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut world = World::new(s, kind, s.seed);
    world.enable_trace(Box::new(JsonlSink::create(&path).expect("create artifact")));
    world.enable_timeseries(SimDuration::from_secs(1));
    world.start();
    let end = world.now() + s.duration;
    world.step_until(end);
    drop(world.take_trace_sink());
    let timeseries = world.take_timeseries().expect("recorder was installed").to_json();
    let trace = std::fs::read_to_string(&path).expect("read artifact back");
    let _ = std::fs::remove_file(&path);
    (trace, timeseries)
}

/// The golden `mobile12` trial under a crash–reboot, churn and a
/// partition-and-heal.
fn faulted_artifacts(kind: ProtocolKind) -> (String, String) {
    let mut s = golden_mobile12(ChannelFidelity::Exact);
    s.faults = FaultPlan::none()
        .with_crash(NodeId(2), 7.5, Some(4.5))
        .with_churn(12.0, 3.0, 6.0)
        .with_partition(15.0, 22.5, NodeGroup::IdBelow(6));
    traced_artifacts(&s, kind)
}

/// FNV-1a pins of every protocol's JSONL trace on two trials: the
/// faulted `mobile12` trial and the golden `mobile25` trial, where route
/// repairs run. A trace records every route phase and every control
/// transmission in the order the protocol issued them, which the summary
/// goldens cannot see. The faulted RICA timeseries document is pinned too.
/// To regenerate after an intentional change:
///
/// ```text
/// GOLDEN_PRINT=1 cargo test -q --test trace_identity faulted_artifact_bytes -- --nocapture
/// ```
#[test]
fn faulted_artifact_bytes_are_pinned() {
    /// `(protocol, faulted mobile12 trace, mobile25 trace)`.
    const WANT_TRACES: [(ProtocolKind, u64, u64); 5] = [
        (ProtocolKind::Rica, 0x465d_89d2_788c_ac72, 0x06ef_dc67_3f9a_eb75),
        (ProtocolKind::Bgca, 0x2c74_8606_a77a_d238, 0x2205_6383_9316_be4a),
        (ProtocolKind::Abr, 0x2dd3_0a4d_83a2_285a, 0x1252_5431_d212_af63),
        (ProtocolKind::Aodv, 0xc852_ecf9_b636_0627, 0x7792_5203_88da_7f5b),
        (ProtocolKind::LinkState, 0xac99_615d_30c7_4362, 0x7323_fde3_6f3f_ad39),
    ];
    const WANT_TIMESERIES: u64 = 0xcc52_d6ae_c691_2b23;
    let print = std::env::var("GOLDEN_PRINT").is_ok();
    for (kind, want_faulted, want_mobile25) in WANT_TRACES {
        let (faulted, timeseries) = faulted_artifacts(kind);
        let (mobile25, _) = traced_artifacts(&golden_mobile25(), kind);
        let faulted_hash = rica_exec::fnv1a(faulted.as_bytes());
        let mobile25_hash = rica_exec::fnv1a(mobile25.as_bytes());
        if print {
            println!(
                "(ProtocolKind::{kind:?}, 0x{faulted_hash:016x}, 0x{mobile25_hash:016x}), \
                 // {} + {} trace lines",
                faulted.lines().count(),
                mobile25.lines().count()
            );
        } else {
            assert_eq!(faulted_hash, want_faulted, "{kind}: faulted mobile12 trace bytes drifted");
            assert_eq!(mobile25_hash, want_mobile25, "{kind}: mobile25 trace bytes drifted");
        }
        if kind == ProtocolKind::Rica {
            let timeseries_hash = rica_exec::fnv1a(timeseries.as_bytes());
            if print {
                println!("WANT_TIMESERIES = 0x{timeseries_hash:016x};");
            } else {
                assert_eq!(
                    timeseries_hash, WANT_TIMESERIES,
                    "timeseries bytes drifted:\n{timeseries}"
                );
            }
        }
    }
}
