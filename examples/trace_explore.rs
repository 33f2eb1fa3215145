//! Explore a trial through the structured event trace: run the paper's
//! 50-node grid with an in-memory `RingSink` and a 1 s time-series
//! sampler, then fold the event stream into a census, one flow's route
//! story, and a queue-depth timeline — all without touching a single
//! byte of the trial's outcome (the summary is bit-identical to an
//! untraced run; `tests/trace_identity.rs` pins that).
//!
//! ```text
//! cargo run --release --example trace_explore [-- protocol]
//! ```

use std::collections::BTreeMap;

use rica_repro::harness::{ProtocolKind, Scenario, World};
use rica_repro::net::FlowId;
use rica_repro::sim::SimDuration;
use rica_repro::trace::{RingSink, TraceEvent};

fn main() {
    let kind = match std::env::args().nth(1) {
        Some(name) => name.parse().unwrap_or_else(|e: String| panic!("{e}")),
        None => ProtocolKind::Rica,
    };
    let s =
        Scenario::builder().mean_speed_kmh(36.0).rate_pps(10.0).duration_secs(60.0).seed(1).build();

    let mut world = World::new(&s, kind, s.seed);
    world.enable_trace(Box::new(RingSink::unbounded()));
    world.enable_timeseries(SimDuration::from_secs(1));
    world.start();
    let end = world.now() + s.duration;
    world.step_until(end);
    let mut sink = world.take_trace_sink().expect("sink installed");
    let ring = sink.downcast_mut::<RingSink>().expect("ring");
    let events: Vec<TraceEvent> = ring.events().cloned().collect();
    let rows = world.take_timeseries().expect("recorder installed");
    let summary = world.finish();

    println!("{} on the paper grid, 60 s, seed 1: {} trace events\n", kind.name(), events.len());

    // 1. What the trial was made of: the event census.
    let mut census: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in &events {
        *census.entry(ev.name()).or_default() += 1;
    }
    let mut by_count: Vec<_> = census.into_iter().collect();
    by_count.sort_by_key(|&(name, n)| (std::cmp::Reverse(n), name));
    println!("event census:");
    for (name, n) in &by_count {
        println!("  {name:<22} {n:>7}");
    }

    // 2. One flow's route story: every phase the protocol reported for
    //    flow 0, plus the packet fates riding on those routes. The flow's
    //    endpoints are themselves learned from the trace — its first
    //    `DataGenerated` names them.
    let flow = FlowId(0);
    let (f_src, f_dst) = events
        .iter()
        .find_map(|ev| match *ev {
            TraceEvent::DataGenerated { flow: f, src, dst, .. } if f == flow => Some((src, dst)),
            _ => None,
        })
        .expect("flow 0 generated traffic");
    let mut fates: BTreeMap<String, u64> = BTreeMap::new();
    let mut story: Vec<(f64, &str, u64)> = Vec::new();
    for ev in &events {
        match *ev {
            TraceEvent::RoutePhase { t, phase, src, dst, .. } if src == f_src && dst == f_dst => {
                match story.last_mut() {
                    // Collapse runs (RICA re-selects on every CSI period).
                    Some((_, name, n)) if *name == phase.name() => *n += 1,
                    _ => story.push((t.as_secs_f64(), phase.name(), 1)),
                }
            }
            TraceEvent::DataDelivered { flow: f, .. } if f == flow => {
                *fates.entry("delivered".into()).or_default() += 1;
            }
            TraceEvent::DataDropped { flow: f, reason, .. } if f == flow => {
                *fates.entry(format!("dropped: {reason}")).or_default() += 1;
            }
            _ => {}
        }
    }
    println!("\nroute story of flow 0 ({f_src} → {f_dst}), consecutive repeats collapsed:");
    for (t, name, n) in &story {
        match n {
            1 => println!("  t={t:>7.3}s  {name}"),
            _ => println!("  t={t:>7.3}s  {name:<16}  ×{n}"),
        }
    }
    println!("  packet fates:");
    for (fate, n) in &fates {
        println!("    {fate:<24} {n:>5}");
    }

    // 3. The data-plane weather: queued data packets per sample, as a
    //    sparkline over the minute.
    let depths: Vec<usize> = rows.rows().iter().map(|r| r.data_queued).collect();
    let max = depths.iter().copied().max().unwrap_or(0).max(1);
    let bars: String = depths
        .iter()
        .map(|&d| {
            const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
            LEVELS[(d * (LEVELS.len() - 1)).div_ceil(max).min(LEVELS.len() - 1)]
        })
        .collect();
    println!("\ndata queued, one sample per second (peak {max}):");
    println!("  {bars}");
    let last = rows.rows().last().expect("sampler ran");
    println!(
        "  final class census A/B/C/D: {}/{}/{}/{} over {} observed pairs",
        last.class_census[0],
        last.class_census[1],
        last.class_census[2],
        last.class_census[3],
        last.class_census.iter().sum::<usize>(),
    );

    println!(
        "\nsummary (bit-identical to an untraced run): delivered {:.1}% | delay {:.0} ms",
        summary.delivery_pct(),
        summary.delay_mean_ms,
    );
}
