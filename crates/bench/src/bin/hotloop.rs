//! Hot-loop wall-clock recorder: the perf trajectory behind `BENCH_micro.json`.
//!
//! Times the single-trial hot path (the thing `rica-exec` multiplies
//! across the sweep grid) plus the substrate micro-loops, and appends the
//! numbers as a labeled snapshot to a committed JSON artifact so speedups
//! are recorded measurements, not claims.
//!
//! These rows are a per-layer trajectory, not the judged benchmark: the
//! end-to-end fleet-sweep benchmark (trial throughput, latency
//! percentiles, heap) is `perfbench/`, run as declared in
//! `BENCHMARK.json` (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release -p rica-bench --bin hotloop                    # measure + print
//! cargo run --release -p rica-bench --bin hotloop -- --label after   # …and append a snapshot
//! cargo run --release -p rica-bench --bin hotloop -- --compare       # first vs last snapshot
//! cargo run --release -p rica-bench --bin hotloop -- --compare --max-regress 20
//!                                    # …and exit 2 if the last snapshot regressed >20%
//!                                    # on any entry vs the one before it
//! cargo run --release -p rica-bench --bin hotloop -- --compare --markdown
//!                                    # …as a GitHub-flavored markdown table
//!                                    # (PR descriptions, CI job summaries)
//! cargo run --release -p rica-bench --bin hotloop -- --quick         # CI smoke (seconds, no file)
//! ```
//!
//! Workloads:
//!
//! * `trial/paper50/<PROTO>` — one 100 s trial of the paper's §III.A grid
//!   (50 nodes, 10 flows, 36 km/h, 10 pkt/s) per protocol, seed 1.
//! * `trial/scale200/RICA` — 200 nodes / 20 flows / 100 s: the scenario
//!   the spatial grid exists for.
//! * `trial/scale200_approx/RICA` — the same trial on the approx channel
//!   tier (`ChannelFidelity::Approx`): ziggurat innovations, dt-quantised
//!   decay.
//! * `trial/workload_burst/RICA` — the same 200-node grid at the paper's
//!   20 pkt/s overload driven through `rica-traffic` (on/off bursts,
//!   bimodal sizes): the workload-generation path's perf trajectory.
//! * `trial/churn/RICA` — the paper grid under whole-population
//!   crash–reboot churn (`rica-faults`): the fault machinery's perf
//!   trajectory next to `trial/paper50/RICA`.
//! * `micro/trace_noop_overhead` — the paper-grid RICA trial with a
//!   disabled (`NoopSink`) trace sink installed; compare against
//!   `trial/paper50/RICA` to read the observability tax (kept ≤2%).
//! * `micro/fleet_stream_overhead` — serialise + parse round-trips of a
//!   realistic per-trial JSONL record (`rica_metrics::TrialRecord`): the
//!   streaming tax a sharded `rica-fleet` sweep pays per trial on top of
//!   the trial itself.
//! * `micro/…` — event-queue, channel-sampling and mobility loops with
//!   fixed iteration counts (seconds per fixed workload, comparable
//!   across snapshots).
//!
//! Each workload runs `--reps` times (default 3) and the minimum wall
//! time is recorded, which is the most noise-robust statistic on a busy
//! container.

#![expect(
    clippy::disallowed_types,
    reason = "host-side: this recorder exists to time trials from outside them"
)]

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rica_channel::{ChannelConfig, ChannelFidelity, ChannelModel, DecayCache, OuProcess};
use rica_harness::{ProtocolKind, Scenario, World};
use rica_metrics::json::{parse_json, push_string};
use rica_mobility::{Field, SpatialGrid, Vec2, Waypoint};
use rica_sim::{EventQueue, Rng, SimTime};
use rica_trace::NoopSink;
use rica_traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};

struct Opts {
    label: Option<String>,
    json: PathBuf,
    compare: bool,
    quick: bool,
    reps: usize,
    /// With `--compare`: exit non-zero if any entry of the last snapshot
    /// is more than this many percent slower than the previous snapshot.
    max_regress: Option<f64>,
    /// With `--compare`: emit the speedup table as GitHub-flavored
    /// markdown (for PR descriptions and CI job summaries) instead of the
    /// aligned-text table.
    markdown: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        label: None,
        json: PathBuf::from("BENCH_micro.json"),
        compare: false,
        quick: false,
        reps: 3,
        max_regress: None,
        markdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => opts.label = Some(args.next().expect("--label needs a value")),
            "--json" => opts.json = PathBuf::from(args.next().expect("--json needs a path")),
            "--compare" => opts.compare = true,
            "--quick" => opts.quick = true,
            "--reps" => {
                opts.reps =
                    args.next().expect("--reps needs a value").parse().expect("bad --reps value")
            }
            "--max-regress" => {
                let pct = args.next().expect("--max-regress needs a percentage");
                opts.max_regress = Some(pct.parse().expect("bad --max-regress value"));
            }
            "--markdown" => opts.markdown = true,
            other => panic!("unknown argument {other:?} (see crates/bench/src/bin/hotloop.rs)"),
        }
    }
    opts
}

/// Minimum wall-clock seconds of `reps` runs of `work`.
fn time_min<O>(reps: usize, mut work: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        black_box(work());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn run_all(quick: bool, reps: usize) -> Vec<(String, f64)> {
    let mut entries = Vec::new();
    let trial_secs = if quick { 4.0 } else { 100.0 };
    let reps = if quick { 1 } else { reps };

    // The paper grid: 50 nodes, 10 flows, 36 km/h, 10 pkt/s.
    for kind in ProtocolKind::ALL {
        let s = Scenario::builder()
            .mean_speed_kmh(36.0)
            .rate_pps(10.0)
            .duration_secs(trial_secs)
            .seed(1)
            .build();
        let secs = time_min(reps, || s.run_seeded(kind, 1));
        entries.push((format!("trial/paper50/{}", kind.name()), secs));
        eprintln!("  timed trial/paper50/{}", kind.name());
    }

    // The scale target the spatial grid unlocks.
    let s200 = Scenario::builder()
        .nodes(200)
        .flows(20)
        .rate_pps(10.0)
        .mean_speed_kmh(36.0)
        .duration_secs(trial_secs)
        .seed(1)
        .build();
    let secs = time_min(reps, || s200.run_seeded(ProtocolKind::Rica, 1));
    entries.push(("trial/scale200/RICA".to_string(), secs));
    eprintln!("  timed trial/scale200/RICA");

    // The same scale trial on the approx channel tier (ziggurat
    // innovations, dt-quantised decay) — the row
    // the fidelity tier's ≥1.5× full-trial target is read from, next to
    // `trial/scale200/RICA` above.
    let s200a = Scenario::builder()
        .nodes(200)
        .flows(20)
        .rate_pps(10.0)
        .mean_speed_kmh(36.0)
        .duration_secs(trial_secs)
        .seed(1)
        .channel(ChannelConfig { fidelity: ChannelFidelity::Approx, ..ChannelConfig::default() })
        .build();
    let secs = time_min(reps, || s200a.run_seeded(ProtocolKind::Rica, 1));
    entries.push(("trial/scale200_approx/RICA".to_string(), secs));
    eprintln!("  timed trial/scale200_approx/RICA");

    // The workload-generation path at overload: 200 nodes, 20 flows of
    // bursty on/off traffic at the paper's 20 pkt/s with bimodal sizes.
    let burst = Scenario::builder()
        .nodes(200)
        .flows(20)
        .rate_pps(20.0)
        .mean_speed_kmh(36.0)
        .duration_secs(trial_secs)
        .seed(1)
        .workload(WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Exponential,
            },
            size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
        })
        .build();
    let secs = time_min(reps, || burst.run_seeded(ProtocolKind::Rica, 1));
    entries.push(("trial/workload_burst/RICA".to_string(), secs));
    eprintln!("  timed trial/workload_burst/RICA");

    // The fault-injection path under churn: the paper grid with a
    // seed-forked crash–reboot renewal process over the whole population.
    // Compare against `trial/paper50/RICA` to read the fault machinery's
    // tax (incarnation guards, owner-tagged timer sweeps, recovery
    // accounting) plus the extra protocol work the churn itself induces.
    let churn = Scenario::builder()
        .mean_speed_kmh(36.0)
        .rate_pps(10.0)
        .duration_secs(trial_secs)
        .seed(1)
        .faults(rica_faults::FaultPlan::none().with_churn(40.0, 10.0, 5.0))
        .build();
    let secs = time_min(reps, || churn.run_seeded(ProtocolKind::Rica, 1));
    entries.push(("trial/churn/RICA".to_string(), secs));
    eprintln!("  timed trial/churn/RICA");

    // The observability tax when nothing listens: the paper-grid RICA
    // trial with a `NoopSink` installed, so every emission site takes its
    // `Some(tracer)` branch and discards the event. Compare against
    // `trial/paper50/RICA` above — the ratio is the disabled-sink
    // overhead the trace layer promises to keep within noise (≤2%).
    let s = Scenario::builder()
        .mean_speed_kmh(36.0)
        .rate_pps(10.0)
        .duration_secs(trial_secs)
        .seed(1)
        .build();
    let secs = time_min(reps, || {
        let mut world = World::new(&s, ProtocolKind::Rica, 1);
        world.enable_trace(Box::new(NoopSink));
        world.run()
    });
    entries.push(("micro/trace_noop_overhead".to_string(), secs));
    eprintln!("  timed micro/trace_noop_overhead");

    // Substrate micro-loops (fixed op counts → comparable seconds).
    let micro_iters = if quick { 10_000u64 } else { 200_000 };
    entries.push((
        "micro/event_queue_push_pop".to_string(),
        time_min(reps, || {
            let mut rng = Rng::new(1);
            let mut q = EventQueue::new();
            for i in 0..micro_iters {
                q.schedule(SimTime::from_nanos(rng.u64_below(1_000_000_000)), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        }),
    ));
    entries.push((
        "micro/event_queue_backoff_storm".to_string(),
        time_min(reps, || {
            // The MacAttempt pattern: bursts of short-horizon retries
            // around a sliding `now`, sparse far-future timers, frequent
            // cancellations, driver-style bounded pops. The queue stays
            // a few hundred events deep, as in real trials (unlike
            // push-then-drain above, which measures the large-heap
            // regime).
            let mut rng = Rng::new(9);
            let mut q = EventQueue::new();
            let mut tokens = Vec::new();
            let mut now = 0u64;
            let mut fired = 0u64;
            for round in 0..(micro_iters / 4) {
                for _ in 0..3 {
                    let at = now + 1_000 + rng.u64_below(2_000_000);
                    tokens.push(q.schedule(SimTime::from_nanos(at), at));
                }
                if round % 16 == 0 {
                    let at = now + 3_000_000_000 + rng.u64_below(1_000_000_000);
                    tokens.push(q.schedule(SimTime::from_nanos(at), at));
                }
                if round % 4 == 0 && !tokens.is_empty() {
                    let i = rng.u64_below(tokens.len() as u64) as usize;
                    q.cancel(tokens.swap_remove(i));
                }
                let until = now + 1_200_000;
                while let Some((t, _)) = q.pop_at_or_before(SimTime::from_nanos(until)) {
                    now = now.max(t.as_nanos());
                    fired += 1;
                }
                now = now.max(until);
            }
            fired
        }),
    ));
    entries.push((
        "micro/channel_class_sequential".to_string(),
        time_min(reps, || {
            let mut model = ChannelModel::new(ChannelConfig::default(), Rng::new(3));
            let a = Vec2::new(0.0, 0.0);
            let p = Vec2::new(120.0, 40.0);
            let mut acc = 0u32;
            for i in 0..micro_iters {
                let t = SimTime::from_nanos(i * 1_000_000);
                if let Some(cl) = model.class_between(0, 1, a, p, t) {
                    acc += cl.level() as u32;
                }
            }
            acc
        }),
    ));
    entries.push((
        "micro/mobility_position".to_string(),
        time_min(reps, || {
            let mut w = Waypoint::new(Field::PAPER, 20.0, 3.0, Rng::new(5));
            let mut acc = 0.0f64;
            for i in 0..micro_iters {
                acc += w.position_at(SimTime::from_nanos(i * 50_000_000)).x;
            }
            acc
        }),
    ));
    entries.push((
        "micro/ou_sample_repeat_dt".to_string(),
        time_min(reps, || {
            // The simulator's dt regime: a small vocabulary of exact
            // repeats (tx durations, CSI periods, IFS quanta) across many
            // processes sharing one (sigma, tau) — the decay cache's
            // target. Seconds per fixed op count, comparable across
            // snapshots.
            let gaps = [0.016384, 1.0, 0.002048, 0.016384, 0.081920, 1.0, 0.016384, 0.000512];
            let mut seeder = Rng::new(11);
            let mut procs: Vec<OuProcess> =
                (0..64).map(|_| OuProcess::new(6.0, 15.0, &mut seeder)).collect();
            let mut cache = DecayCache::new(6.0, 15.0);
            let mut rng = Rng::new(12);
            let mut acc = 0.0f64;
            let mut t = vec![0.0f64; procs.len()];
            for i in 0..micro_iters {
                let p = (i % 64) as usize;
                t[p] += gaps[(i % 8) as usize];
                acc += procs[p].sample_cached(SimTime::from_secs_f64(t[p]), &mut rng, &mut cache);
            }
            acc
        }),
    ));
    entries.push((
        "micro/ou_sample_repeat_dt_approx".to_string(),
        time_min(reps, || {
            // The same dt regime through the approx tier: ziggurat
            // innovations + dt quantisation. Compare against
            // `micro/ou_sample_repeat_dt` — this pair is where the
            // fidelity tier's ≥2× sampling target is read.
            let gaps = [0.016384, 1.0, 0.002048, 0.016384, 0.081920, 1.0, 0.016384, 0.000512];
            let mut seeder = Rng::new(11);
            let mut procs: Vec<OuProcess> =
                (0..64).map(|_| OuProcess::new(6.0, 15.0, &mut seeder)).collect();
            let mut cache = DecayCache::new(6.0, 15.0);
            let mut rng = Rng::new(12);
            let mut acc = 0.0f64;
            let mut t = vec![0.0f64; procs.len()];
            for i in 0..micro_iters {
                let p = (i % 64) as usize;
                t[p] += gaps[(i % 8) as usize];
                acc += procs[p].sample_approx(SimTime::from_secs_f64(t[p]), &mut rng, &mut cache);
            }
            acc
        }),
    ));
    entries.push((
        "micro/ziggurat_normal".to_string(),
        time_min(reps, || {
            // Raw standard-normal throughput of the ziggurat sampler
            // (~98.8% of draws take the single-u64 fast path). The
            // Box–Muller floor it breaks is visible in the exact-tier OU
            // rows above.
            let mut rng = Rng::new(17);
            let mut acc = 0.0f64;
            for _ in 0..micro_iters {
                acc += rng.normal_ziggurat();
            }
            acc
        }),
    ));
    entries.push((
        "micro/broadcast_fanout".to_string(),
        time_min(reps, || {
            // The per-transmission fan-out pattern at the 200-node scale:
            // an epoch-cached candidate query (grid superset + exact
            // snapshot-disc trim) reused across transmissions, each
            // re-checking exact distances against a drifting transmitter.
            let mut rng = Rng::new(21);
            let positions: Vec<Vec2> =
                (0..200).map(|_| Field::PAPER.random_point(&mut rng)).collect();
            let mut grid = SpatialGrid::new(Field::PAPER, 83.0);
            grid.rebuild(&positions);
            let radius = 250.0 + 24.0;
            let keep_sq = (radius + 1.0) * (radius + 1.0);
            let mut cached: Vec<u32> = Vec::new();
            let mut acc = 0u64;
            for epoch in 0..(micro_iters / 64) {
                let tx = (epoch % 200) as usize;
                let center = positions[tx];
                // One query + snapshot-disc trim per (node, epoch)…
                grid.query_unordered_into(center, radius, &mut cached);
                cached.retain(|&j| {
                    j as usize != tx && positions[j as usize].distance_sq(center) <= keep_sq
                });
                // …reused by every transmission the node makes before the
                // next grid rebuild, each re-filtering exactly against the
                // transmitter's drifted position.
                for k in 0..16 {
                    let p_tx = Vec2::new(center.x + 0.4 * k as f64, center.y);
                    for &j in &cached {
                        if positions[j as usize].distance_sq(p_tx) <= 62_500.0 {
                            acc += 1;
                        }
                    }
                }
            }
            acc
        }),
    ));
    // One realistic trial summary (delivery, drops, control traffic, a
    // throughput series), round-tripped through the fleet streaming
    // codec — the per-trial cost a sharded sweep adds on top of the
    // trial itself. Built once; the loop times serialise + parse.
    let streamed = {
        use rica_net::{DataPacket, DropReason, FlowId, NodeId};
        let mut m = rica_metrics::Metrics::new();
        let mut rng = Rng::new(23);
        for i in 0..400u64 {
            m.on_generated();
            match rng.u64_below(10) {
                0 => m.on_dropped(DropReason::NoRoute),
                1 => m.on_dropped(DropReason::LinkBreak),
                _ => {
                    let pkt =
                        DataPacket::new(FlowId(0), i, NodeId(0), NodeId(1), 512, SimTime::ZERO);
                    let at = SimTime::from_secs_f64(i as f64 * 0.22 + rng.f64() * 0.05);
                    m.on_delivered(&pkt, at);
                }
            }
            m.on_control_tx(rica_net::ControlKind::Rreq, 416);
            m.on_ack_tx(128);
        }
        m.finish(rica_sim::SimDuration::from_secs(100))
    };
    entries.push((
        "micro/fleet_stream_overhead".to_string(),
        time_min(reps, || {
            let rec = rica_metrics::TrialRecord {
                job: 17,
                cell: 3,
                trial: 2,
                seed: 44,
                summary: streamed.clone(),
            };
            let mut acc = 0usize;
            for i in 0..(micro_iters / 16) {
                let mut r = rec.clone();
                r.job = i as usize;
                let line = r.to_line();
                acc +=
                    rica_metrics::TrialRecord::parse(&line).expect("round-trip").summary.generated
                        as usize
                        + line.len();
            }
            acc
        }),
    ));
    entries
}

// ------------------------------------------------------------- artifact IO

fn snapshot_json(label: &str, entries: &[(String, f64)]) -> String {
    let mut out = String::from("    {\"label\":");
    push_string(&mut out, label);
    out.push_str(",\"entries\":{\n");
    for (i, (name, secs)) in entries.iter().enumerate() {
        out.push_str("      ");
        push_string(&mut out, name);
        // Wall times are recorded to the microsecond: a rounded reading,
        // not a value that must round-trip.
        out.push_str(&format!(":{secs:.6}"));
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("    }}");
    out
}

fn append_snapshot(path: &Path, label: &str, entries: &[(String, f64)]) {
    let snap = snapshot_json(label, entries);
    let doc = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let end = existing.rfind("\n  ]").unwrap_or_else(|| {
                panic!("{}: not a hotloop artifact (missing snapshot array)", path.display())
            });
            format!("{},\n{}\n  ]\n}}\n", &existing[..end], snap)
        }
        Err(_) => format!("{{\n  \"schema\": 1,\n  \"snapshots\": [\n{snap}\n  ]\n}}\n"),
    };
    std::fs::write(path, doc).expect("write artifact");
    println!("appended snapshot {label:?} to {}", path.display());
}

/// `(label, entries)` per snapshot, read through the workspace's JSON
/// reader. A malformed document, snapshot or entry is an error: a row the
/// gate cannot read must fail it, not drop out of it.
fn parse_snapshots(doc: &str) -> Result<Vec<(String, Vec<(String, f64)>)>, String> {
    parse_json(doc)?
        .array_at("snapshots")?
        .iter()
        .enumerate()
        .map(|(i, snap)| {
            let label = snap.str_at("label").map_err(|e| format!("snapshot {i}: {e}"))?;
            let entries = snap
                .object_at("entries")
                .map_err(|e| format!("snapshot {label:?}: {e}"))?
                .iter()
                .map(|(name, secs)| match secs.as_f64() {
                    Some(secs) if secs.is_finite() && secs >= 0.0 => Ok((name.clone(), secs)),
                    _ => Err(format!("snapshot {label:?}: {name:?} is not a wall time: {secs:?}")),
                })
                .collect::<Result<_, String>>()?;
            Ok((label.to_string(), entries))
        })
        .collect()
}

fn compare(path: &Path, max_regress: Option<f64>, markdown: bool) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let snaps = parse_snapshots(&doc)?;
    if snaps.len() < 2 {
        return Err(format!("need at least two snapshots to compare, found {}", snaps.len()));
    }
    let (base_label, base) = &snaps[0];
    let (cur_label, cur) = &snaps[snaps.len() - 1];
    // The markdown table also carries the previous snapshot (the gate
    // baseline) when it differs from the first: a PR description wants
    // "vs the last PR" next to "vs the dawn of time".
    let prev_col = (snaps.len() > 2).then(|| &snaps[snaps.len() - 2]);
    if markdown {
        match prev_col {
            Some((prev_label, _)) => {
                println!(
                    "| workload | {base_label} | {prev_label} | {cur_label} | vs {prev_label} | \
                     vs {base_label} |"
                );
                println!("|---|---:|---:|---:|---:|---:|");
            }
            None => {
                println!("| workload | {base_label} | {cur_label} | speedup |");
                println!("|---|---:|---:|---:|");
            }
        }
        for (name, base_secs) in base {
            let Some((_, cur_secs)) = cur.iter().find(|(n, _)| n == name) else { continue };
            match prev_col {
                Some((_, prev)) => {
                    let prev_cell = prev
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(("—".to_string(), "—".to_string()), |(_, p)| {
                            (format!("{p:.4}s"), format!("{:.2}×", p / cur_secs))
                        });
                    println!(
                        "| `{name}` | {base_secs:.4}s | {} | {cur_secs:.4}s | {} | {:.2}× |",
                        prev_cell.0,
                        prev_cell.1,
                        base_secs / cur_secs
                    );
                }
                None => println!(
                    "| `{name}` | {base_secs:.4}s | {cur_secs:.4}s | {:.2}× |",
                    base_secs / cur_secs
                ),
            }
        }
    } else {
        println!("{:<34} {:>12} {:>12} {:>9}", "workload", base_label, cur_label, "speedup");
        for (name, base_secs) in base {
            let Some((_, cur_secs)) = cur.iter().find(|(n, _)| n == name) else { continue };
            println!(
                "{name:<34} {base_secs:>11.4}s {cur_secs:>11.4}s {:>8.2}x",
                base_secs / cur_secs
            );
        }
    }
    // The exit-code gate judges the last snapshot against the one before
    // it (the trajectory table above is informational): a hot-loop
    // regression beyond the threshold fails loudly instead of only
    // printing.
    let Some(limit_pct) = max_regress else { return Ok(()) };
    let (prev_label, prev) = &snaps[snaps.len() - 2];
    let mut failed = false;
    // A workload that vanished from the current snapshot is a gate
    // failure too: lost coverage must not read as green.
    for (name, _) in prev {
        if !cur.iter().any(|(n, _)| n == name) {
            eprintln!("MISSING {name}: measured in {prev_label:?} but absent from {cur_label:?}");
            failed = true;
        }
    }
    for (name, cur_secs) in cur {
        let Some((_, prev_secs)) = prev.iter().find(|(n, _)| n == name) else { continue };
        let regress_pct = (cur_secs / prev_secs - 1.0) * 100.0;
        if regress_pct > limit_pct {
            eprintln!(
                "REGRESSION {name}: {prev_secs:.4}s ({prev_label}) -> {cur_secs:.4}s \
                 ({cur_label}), +{regress_pct:.1}% > {limit_pct:.0}% allowed"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(2);
    }
    // Keep machine-readable output clean: the gate verdict goes to stderr
    // when the table is markdown for a CI job summary.
    if markdown {
        eprintln!("gate: no entry regressed more than {limit_pct:.0}% vs {prev_label:?}");
    } else {
        println!("gate: no entry regressed more than {limit_pct:.0}% vs {prev_label:?}");
    }
    Ok(())
}

fn main() {
    let opts = parse_opts();
    if opts.compare {
        if let Err(err) = compare(&opts.json, opts.max_regress, opts.markdown) {
            eprintln!("{}: {err}", opts.json.display());
            std::process::exit(1);
        }
        return;
    }
    let entries = run_all(opts.quick, opts.reps);
    println!("{:<34} {:>12}", "workload", "wall");
    for (name, secs) in &entries {
        println!("{name:<34} {secs:>11.4}s");
    }
    if let Some(label) = &opts.label {
        append_snapshot(&opts.json, label, &entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(snapshots: &[&str]) -> String {
        format!("{{\n  \"schema\": 1,\n  \"snapshots\": [\n{}\n  ]\n}}\n", snapshots.join(",\n"))
    }

    #[test]
    fn snapshots_round_trip_through_the_writer() {
        let entries =
            vec![("trial/scale200/RICA".to_string(), 0.1016), ("micro/x".to_string(), 4.5e-5)];
        let written = doc(&[&snapshot_json("a", &entries), &snapshot_json("b", &entries)]);
        let want = vec![("a".to_string(), entries.clone()), ("b".to_string(), entries)];
        assert_eq!(parse_snapshots(&written), Ok(want));
    }

    /// FNV-1a pin of a two-snapshot document as `append_snapshot` writes
    /// it (a fresh file, then an append). To regenerate after an
    /// intentional change:
    ///
    /// ```text
    /// GOLDEN_PRINT=1 cargo test -q -p rica-bench snapshot_document_bytes -- --nocapture
    /// ```
    #[test]
    fn snapshot_document_bytes_are_pinned() {
        const WANT: u64 = 0x8fcc_1da5_3ffa_8454;
        let path = std::env::temp_dir().join(format!(
            "rica_hotloop_pin_{}_{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let entries = vec![
            ("trial/scale200/RICA".to_string(), 0.1016),
            ("micro/x".to_string(), 4.5e-5),
            ("micro/\"quoted\\name\"".to_string(), 12.0),
        ];
        append_snapshot(&path, "base", &entries);
        append_snapshot(&path, "next\trun", &entries[..2]);
        let doc = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let hash = rica_exec::fnv1a(doc.as_bytes());
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT = 0x{hash:016x};\n{doc}");
            return;
        }
        assert_eq!(hash, WANT, "snapshot document bytes drifted:\n{doc}");
    }

    /// Hostile input: every strict prefix of a snapshot document is an
    /// error; single-byte replacements and deep nesting give an error or
    /// snapshots, never a panic.
    #[test]
    fn hostile_snapshot_documents_never_panic() {
        let entries =
            [("trial/scale200/RICA".to_string(), 0.1016), ("micro/x".to_string(), 4.5e-5)];
        let whole = doc(&[&snapshot_json("a", &entries), &snapshot_json("b", &entries)]);
        let whole = whole.trim_end();
        assert_eq!(parse_snapshots(whole).unwrap().len(), 2);
        for cut in 0..whole.len() {
            assert!(parse_snapshots(&whole[..cut]).is_err(), "{cut}-byte prefix parsed");
        }
        for at in 0..whole.len() {
            for &b in b"{}[]\",:09-.e \\" {
                let mut bytes = whole.as_bytes().to_vec();
                bytes[at] = b;
                let _ = parse_snapshots(std::str::from_utf8(&bytes).unwrap());
            }
        }
        let deep = whole.replacen("[", &"[".repeat(100_000), 1);
        assert!(parse_snapshots(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn unreadable_snapshots_are_errors_not_dropped_rows() {
        let good = snapshot_json("base", &[("trial/scale200/RICA".to_string(), 0.1016)]);
        assert!(parse_snapshots(&doc(&[&good, &good])).is_ok());
        for bad in [
            good.replace("0.101600", "0.1016x9"),
            good.replace("0.101600", "\"0.1016\""),
            good.replace("0.101600", "NaN"),
            good.replace("0.101600", "-1"),
            good.replace("\"entries\"", "\"rows\""),
            good.replace("\"label\"", "\"name\""),
        ] {
            assert!(parse_snapshots(&doc(&[&good, &bad])).is_err(), "accepted {bad}");
        }
        let whole = doc(&[&good, &good]);
        assert!(parse_snapshots(&whole[..whole.len() - 4]).is_err(), "accepted a truncated file");
        assert!(parse_snapshots("{\"schema\":1}").is_err(), "accepted a file without snapshots");
    }
}
