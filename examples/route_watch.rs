//! Watch RICA re-route a flow in real time: print the active route of one
//! flow every few seconds while the terminals move and the channel fades.
//!
//! ```text
//! cargo run --release --example route_watch [-- protocol]
//! ```

use rica_repro::harness::{Flow, ProtocolKind, Scenario, World};
use rica_repro::net::NodeId;
use rica_repro::sim::SimTime;

fn main() {
    let kind = match std::env::args().nth(1) {
        Some(name) => name.parse().unwrap_or_else(|e: String| panic!("{e}")),
        None => ProtocolKind::Rica,
    };
    let scenario = Scenario::builder()
        .nodes(30)
        .explicit_flows(vec![Flow::new(NodeId(0), NodeId(17), 10.0)])
        .mean_speed_kmh(36.0)
        .duration_secs(60.0)
        .seed(33)
        .build();

    let mut world = World::new(&scenario, kind, scenario.seed);
    world.start();
    println!("{} route of flow n0 → n17, sampled every 4 s:\n", kind.name());
    let mut last: Vec<NodeId> = Vec::new();
    for tick in 1..=15 {
        world.step_until(SimTime::from_secs_f64(tick as f64 * 4.0));
        let route = world.trace_route(NodeId(0), NodeId(17));
        let rendered: Vec<String> = route.iter().map(|n| n.to_string()).collect();
        let complete = route.last() == Some(&NodeId(17));
        let marker = if route != last { " *" } else { "" };
        println!(
            "t={:>3}s  {}{}{}",
            tick * 4,
            rendered.join(" → "),
            if complete { "" } else { "  (incomplete)" },
            marker,
        );
        last = route;
    }
    let report = world.finish();
    println!(
        "\ndelivered {:.1}% | delay {:.0} ms | — route changes visible above (*)",
        report.delivery_pct(),
        report.delay_mean_ms,
    );
}
