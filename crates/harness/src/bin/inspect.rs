//! Diagnostic: run one trial and dump the full metric breakdown.
//!
//! ```text
//! cargo run --release -p rica-harness --bin inspect -- \
//!     [protocol] [speed_kmh] [rate_pps] [secs] \
//!     [--approx] [--faults[=SPEC]] [--trace[=PATH]] \
//!     [--timeseries[=PATH]] [--profile]
//! ```
//!
//! Positional arguments select the trial (defaults: RICA, 36 km/h,
//! 10 pkt/s, 60 s). The observability flags are independent opt-ins:
//!
//! * `--approx` runs the trial on the fast-approx channel tier
//!   ([`ChannelFidelity::Approx`]) instead of the bit-pinned default;
//! * `--faults[=SPEC]` injects a deterministic fault preset scaled to
//!   the trial duration. `SPEC` is `crash` (one crash–reboot),
//!   `churn` (renewal up/down churn), `partition` (one
//!   partition-and-heal episode) or `all` (the default: every kind at
//!   once) — the combined preset exercises every fault trace event in
//!   a single short trial, which `crates/harness/tests/inspect.rs`
//!   checks;
//! * `--trace[=PATH]` streams a JSONL event trace (default
//!   `trace.jsonl`);
//! * `--timeseries[=PATH]` writes the fixed-interval sampler artifact
//!   (default `timeseries.json`, 1 s interval);
//! * `--profile` prints per-event-kind dispatch profiling and the
//!   unified [`rica_metrics::WorldDiagnostics`] snapshot.
//!
//! Tracing and sampling never change the numbers printed below — the
//! summary is bit-identical with every combination of the flags
//! (`--profile` only adds output, never changes the shared lines). If an
//! artifact cannot be written, the summary is still printed and the
//! exit code is 1.

use rica_channel::{ChannelConfig, ChannelFidelity};
use rica_faults::{FaultPlan, NodeGroup, NodeId};
use rica_harness::{ProtocolKind, Scenario, World};
use rica_sim::SimDuration;
use rica_trace::JsonlSink;

/// Interval between time-series samples.
const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(1);

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut timeseries_path: Option<String> = None;
    let mut profile = false;
    let mut fidelity = ChannelFidelity::Exact;
    let mut faults_spec: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(rest) = arg.strip_prefix("--trace") {
            trace_path = Some(parse_path(rest, "trace.jsonl"));
        } else if let Some(rest) = arg.strip_prefix("--timeseries") {
            timeseries_path = Some(parse_path(rest, "timeseries.json"));
        } else if let Some(rest) = arg.strip_prefix("--faults") {
            faults_spec = Some(parse_path(rest, "all"));
        } else if arg == "--approx" {
            fidelity = ChannelFidelity::Approx;
        } else if arg == "--profile" {
            profile = true;
        } else if arg.starts_with("--") {
            eprintln!("unknown flag {arg}");
            std::process::exit(2);
        } else {
            positional.push(arg);
        }
    }
    let kind = match positional.first().map(|s| s.to_lowercase()) {
        Some(ref s) if s == "bgca" => ProtocolKind::Bgca,
        Some(ref s) if s == "abr" => ProtocolKind::Abr,
        Some(ref s) if s == "aodv" => ProtocolKind::Aodv,
        Some(ref s) if s == "linkstate" || s == "ls" => ProtocolKind::LinkState,
        _ => ProtocolKind::Rica,
    };
    let speed: f64 = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(36.0);
    let rate: f64 = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let secs: f64 = positional.get(3).and_then(|s| s.parse().ok()).unwrap_or(60.0);
    let mut s = Scenario::builder()
        .mean_speed_kmh(speed)
        .rate_pps(rate)
        .duration_secs(secs)
        .seed(1)
        .channel(ChannelConfig { fidelity, ..ChannelConfig::default() })
        .build();
    if let Some(spec) = &faults_spec {
        s.faults = fault_preset(spec, s.nodes, secs);
        s.faults.validate(s.nodes).expect("fault preset is valid by construction");
    }
    let mut world = World::new(&s, kind, s.seed);
    if let Some(path) = &trace_path {
        match JsonlSink::create(path) {
            Ok(sink) => world.enable_trace(Box::new(sink)),
            Err(err) => {
                eprintln!("cannot create {path}: {err}");
                std::process::exit(1);
            }
        }
    }
    if timeseries_path.is_some() {
        world.enable_timeseries(SAMPLE_EVERY);
    }
    if profile {
        world.enable_profiling();
    }
    world.start();
    let end = world.now() + s.duration;
    world.step_until(end);
    // A failed artifact write still prints the summary, then exits 1.
    let mut write_failed = false;
    let mut report = |path: &str, written: Result<String, String>| match written {
        Ok(what) => eprintln!("{what} -> {path}"),
        Err(err) => {
            eprintln!("cannot write {path}: {err}");
            write_failed = true;
        }
    };
    if let (Some(path), Some(mut sink)) = (&trace_path, world.take_trace_sink()) {
        sink.flush();
        let sink = sink.downcast_mut::<JsonlSink>().expect("inspect traces to a JsonlSink");
        let written = sink.error().map_or(Ok(sink.written()), |err| Err(err.to_string()));
        report(path, written.map(|n| format!("trace: {n} events")));
    }
    if let (Some(path), Some(rec)) = (&timeseries_path, world.take_timeseries()) {
        let written = std::fs::write(path, rec.to_json()).map_err(|err| err.to_string());
        report(path, written.map(|()| format!("timeseries: {} samples", rec.rows().len())));
    }
    let diagnostics = profile.then(|| world.diagnostics());
    let r = world.finish();
    println!("protocol            {}", kind.name());
    println!("channel fidelity    {}", fidelity.name());
    if !s.faults.is_empty() {
        println!("fault plan          {}", s.faults.label());
    }
    println!("generated           {}", r.generated);
    println!("delivered           {} ({:.1}%)", r.delivered, r.delivery_pct());
    println!("in flight           {}", r.in_flight());
    println!("delay               {:.1} ± {:.1} ms", r.delay_mean_ms, r.delay_std_ms);
    println!(
        "delay p50/p95/max   {:.1} / {:.1} / {:.1} ms",
        r.delay_p50_ms, r.delay_p95_ms, r.delay_max_ms
    );
    println!("avg hops            {:.2}", r.avg_hops);
    println!("avg link throughput {:.1} kbps", r.avg_link_throughput_kbps);
    println!("overhead            {:.1} kbps", r.overhead_kbps);
    println!("ack bits            {} ({:.1} kbps)", r.ack_bits, r.ack_bits as f64 / secs / 1e3);
    println!("collisions          {}", r.collisions);
    println!("link breaks         {}", r.link_breaks);
    println!("ctrl queue drops    {}", r.ctrl_queue_drops);
    println!("control tx count    {}", r.control_tx_count);
    println!("-- drops by reason");
    for (reason, count) in &r.drops {
        println!("   {reason:<18} {count}");
    }
    println!("-- control bits by kind (kbps)");
    for (kind, bits) in &r.control_bits {
        println!("   {kind:<10?} {:>8.2}", *bits as f64 / secs / 1e3);
    }
    if let Some(rec) = r.recovery {
        println!("-- recovery");
        println!("   crashes / reboots   {} / {}", rec.crashes, rec.reboots);
        println!("   partitions / heals  {} / {}", rec.partitions, rec.heals);
        println!(
            "   delivered           {} intact, {} disrupted",
            rec.delivered_intact, rec.delivered_disrupted
        );
        println!(
            "   disrupted flows     {} ({} recovered, {} unrecovered)",
            rec.disrupted_flows, rec.recovered_flows, rec.unrecovered_flows
        );
        println!(
            "   disruption mean/max {:.1} / {:.1} ms",
            rec.disruption_mean_ms, rec.disruption_max_ms
        );
        println!(
            "   reroute mean/max    {:.1} / {:.1} ms",
            rec.reroute_mean_ms, rec.reroute_max_ms
        );
    }
    if let Some(diag) = diagnostics {
        println!("-- world diagnostics");
        println!("   pending events     {}", diag.pending_events);
        println!("   popped events      {}", diag.popped_events);
        println!("   channel pairs      {}", diag.channel_active_pairs);
        println!("   table growths      {}", diag.channel_table_growths);
        if let Some((hits, misses)) = diag.decay_cache {
            println!("   decay cache        {hits} hits / {misses} misses");
        }
        println!("   medium txs         {}", diag.medium_txs);
        if let Some(prof) = &diag.event_profile {
            println!("-- event profile (kind: count, mean ns, max ns)");
            for row in &prof.kinds {
                if row.count == 0 {
                    continue;
                }
                println!(
                    "   {:<12} {:>10}  {:>8.0}  {:>9}",
                    row.kind,
                    row.count,
                    row.mean_ns(),
                    row.max_ns
                );
            }
        }
    }
    if write_failed {
        std::process::exit(1);
    }
}

/// A named fault preset scaled to the trial duration, so even a short
/// trial exercises the selected fault kinds (and emits their trace
/// events) well inside the run.
fn fault_preset(spec: &str, nodes: usize, secs: f64) -> FaultPlan {
    let crash = |p: FaultPlan| p.with_crash(NodeId(2), 0.25 * secs, Some(0.15 * secs));
    let churn = |p: FaultPlan| p.with_churn(0.4 * secs, 0.1 * secs, 0.2 * secs);
    let partition = |p: FaultPlan| {
        p.with_partition(0.5 * secs, 0.75 * secs, NodeGroup::IdBelow((nodes / 2) as u32))
    };
    match spec {
        "all" => partition(churn(crash(FaultPlan::none()))),
        "crash" => crash(FaultPlan::none()),
        "churn" => churn(FaultPlan::none()),
        "partition" => partition(FaultPlan::none()),
        other => {
            eprintln!("unknown fault preset {other:?}; use crash, churn, partition or all");
            std::process::exit(2);
        }
    }
}

/// `""` → the default; `"=x"` → `x`; anything else is a usage error.
fn parse_path(rest: &str, default: &str) -> String {
    match rest.strip_prefix('=') {
        Some(path) if !path.is_empty() => path.to_string(),
        None if rest.is_empty() => default.to_string(),
        _ => {
            eprintln!("bad flag syntax near {rest:?}; use --flag or --flag=PATH");
            std::process::exit(2);
        }
    }
}
