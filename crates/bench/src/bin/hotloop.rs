//! Hot-loop wall-clock recorder: the substrate trajectory behind
//! `BENCH_micro.json`.
//!
//! Times eight substrate loops with fixed iteration counts, none of which
//! builds a world, a scenario or a trial record, and appends the numbers
//! as a labeled snapshot to a committed JSON artifact so speedups are
//! recorded measurements, not claims.
//!
//! Whole trials are timed by `perfbench/`, the judged end-to-end
//! benchmark declared in `BENCHMARK.json` (see `perfbench/README.md`),
//! and the golden trials of `tests/golden_metrics.rs` pin their exact
//! work counts. `BENCH_micro.json` keeps the retired whole-trial rows
//! (`trial/*`, `micro/trace_noop_overhead`, `micro/fleet_stream_overhead`)
//! as history up to its `pr12-heap-queue` snapshot.
//!
//! ```text
//! cargo run --release -p rica-bench --bin hotloop                    # measure + print
//! cargo run --release -p rica-bench --bin hotloop -- --label after   # …and append a snapshot
//! cargo run --release -p rica-bench --bin hotloop -- --compare       # first vs last snapshot
//! cargo run --release -p rica-bench --bin hotloop -- --compare --max-regress 20
//!                                    # …and exit 3 if the last snapshot regressed >20%
//!                                    # on any entry vs the one before it
//! cargo run --release -p rica-bench --bin hotloop -- --compare --markdown
//!                                    # …as a GitHub-flavored markdown table
//!                                    # (PR descriptions, CI job summaries)
//! cargo run --release -p rica-bench --bin hotloop -- --quick         # CI smoke (seconds, no file)
//! ```
//!
//! Rows (seconds per fixed workload, comparable across snapshots):
//!
//! * `micro/event_queue_push_pop` — push then drain: the large-heap regime.
//! * `micro/event_queue_backoff_storm` — MAC-retry bursts around a
//!   sliding `now` with bounded pops: the few-hundred-deep regime of real
//!   trials. It schedules and pops only; the snapshots committed before
//!   the queue lost its cancellation API timed a cancel step too, so its
//!   row does not compare with them.
//! * `micro/channel_class_sequential` — one pair's class, sampled every
//!   millisecond on the exact tier.
//! * `micro/mobility_position` — random-waypoint positions.
//! * `micro/ou_sample_repeat_dt` and `micro/ou_sample_repeat_dt_approx` —
//!   OU samples over a small vocabulary of repeated gaps through the
//!   decay cache, on the exact and the approx tier.
//! * `micro/ziggurat_normal` — raw ziggurat standard normals.
//! * `micro/broadcast_fanout` — the epoch-cached spatial-grid candidate
//!   query and exact range filter at the 200-node scale.
//!
//! Each row runs `--reps` times (default 3; once with `--quick`, which
//! also cuts the iteration counts 20-fold) and the minimum wall time is
//! recorded, which is the most noise-robust statistic on a busy
//! container. Every row prints `timed <row>` to stderr when it is done.
//!
//! Exit codes: 2 for a malformed command line (an unknown flag, or a
//! missing or malformed value; nothing runs), 1 for a snapshot file that
//! cannot be read, parsed or written, and 3 for a `--max-regress`
//! regression.

#![expect(
    clippy::disallowed_types,
    reason = "host-side: this recorder exists to time loops from outside them"
)]

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rica_channel::{ChannelConfig, ChannelModel, DecayCache, OuProcess};
use rica_metrics::json::{parse_json, push_string};
use rica_mobility::{Field, SpatialGrid, Vec2, Waypoint};
use rica_sim::{EventQueue, Rng, SimTime};

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

/// Parses the command line; the error names the offending flag.
fn parse_opts(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        label: None,
        json: PathBuf::from("BENCH_micro.json"),
        compare: false,
        quick: false,
        reps: 3,
        max_regress: None,
        markdown: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--label" => opts.label = Some(value()?),
            "--json" => opts.json = PathBuf::from(value()?),
            "--compare" => opts.compare = true,
            "--quick" => opts.quick = true,
            "--reps" => {
                let raw = value()?;
                opts.reps = match raw.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--reps needs a positive integer, got {raw:?}")),
                }
            }
            "--max-regress" => {
                let raw = value()?;
                opts.max_regress = match raw.parse() {
                    Ok(pct) if f64::is_finite(pct) && pct >= 0.0 => Some(pct),
                    _ => return Err(format!("--max-regress needs a percentage, got {raw:?}")),
                }
            }
            "--markdown" => opts.markdown = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Appends row `name`: the minimum wall-clock seconds of `reps` runs of
/// `work`.
fn time_row<O>(
    entries: &mut Vec<(String, f64)>,
    name: &str,
    reps: usize,
    mut work: impl FnMut() -> O,
) {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(work());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    entries.push((name.to_string(), best));
    eprintln!("  timed {name}");
}

/// The simulator's dt regime: a small vocabulary of exact repeats (tx
/// durations, CSI periods, IFS quanta) across many processes sharing one
/// (sigma, tau), which is the decay cache's target. `approx` samples
/// through the approx tier (ziggurat innovations, dt quantisation).
fn ou_repeat_dt(iters: u64, approx: bool) -> f64 {
    let gaps = [0.016384, 1.0, 0.002048, 0.016384, 0.081920, 1.0, 0.016384, 0.000512];
    let mut seeder = Rng::new(11);
    let mut procs: Vec<OuProcess> =
        (0..64).map(|_| OuProcess::new(6.0, 15.0, &mut seeder)).collect();
    let mut cache = DecayCache::new(6.0, 15.0);
    let mut rng = Rng::new(12);
    let mut acc = 0.0f64;
    let mut t = vec![0.0f64; procs.len()];
    for i in 0..iters {
        let p = (i % 64) as usize;
        t[p] += gaps[(i % 8) as usize];
        let at = SimTime::from_secs_f64(t[p]);
        acc += if approx {
            procs[p].sample_approx(at, &mut rng, &mut cache)
        } else {
            procs[p].sample_cached(at, &mut rng, &mut cache)
        };
    }
    acc
}

fn run_all(quick: bool, reps: usize) -> Vec<(String, f64)> {
    let reps = if quick { 1 } else { reps };
    let iters = if quick { 10_000u64 } else { 200_000 };
    let mut rows = Vec::new();
    time_row(&mut rows, "micro/event_queue_push_pop", reps, || {
        let mut rng = Rng::new(1);
        let mut q = EventQueue::new();
        for i in 0..iters {
            q.schedule(SimTime::from_nanos(rng.u64_below(1_000_000_000)), i);
        }
        let mut count = 0u64;
        while q.pop().is_some() {
            count += 1;
        }
        count
    });
    time_row(&mut rows, "micro/event_queue_backoff_storm", reps, || {
        // The MacAttempt pattern: bursts of short-horizon retries around a
        // sliding `now`, sparse far-future timers, bounded pops as the
        // world's event loop makes them. The queue stays a few hundred
        // events deep, as in real trials (unlike push-then-drain above,
        // which measures the large-heap regime).
        let mut rng = Rng::new(9);
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut fired = 0u64;
        for round in 0..(iters / 4) {
            for _ in 0..3 {
                let at = now + 1_000 + rng.u64_below(2_000_000);
                q.schedule(SimTime::from_nanos(at), at);
            }
            if round % 16 == 0 {
                let at = now + 3_000_000_000 + rng.u64_below(1_000_000_000);
                q.schedule(SimTime::from_nanos(at), at);
            }
            let until = now + 1_200_000;
            while let Some((t, _)) = q.pop_at_or_before(SimTime::from_nanos(until)) {
                now = now.max(t.as_nanos());
                fired += 1;
            }
            now = now.max(until);
        }
        fired
    });
    time_row(&mut rows, "micro/channel_class_sequential", reps, || {
        let mut model = ChannelModel::new(ChannelConfig::default(), Rng::new(3));
        let a = Vec2::new(0.0, 0.0);
        let p = Vec2::new(120.0, 40.0);
        let mut acc = 0u32;
        for i in 0..iters {
            let t = SimTime::from_nanos(i * 1_000_000);
            if let Some(cl) = model.class_between(0, 1, a, p, t) {
                acc += cl.level() as u32;
            }
        }
        acc
    });
    time_row(&mut rows, "micro/mobility_position", reps, || {
        let mut w = Waypoint::new(Field::PAPER, 20.0, 3.0, Rng::new(5));
        let mut acc = 0.0f64;
        for i in 0..iters {
            acc += w.position_at(SimTime::from_nanos(i * 50_000_000)).x;
        }
        acc
    });
    time_row(&mut rows, "micro/ou_sample_repeat_dt", reps, || ou_repeat_dt(iters, false));
    // Compare against `micro/ou_sample_repeat_dt`: this pair is where the
    // approx tier's ≥2× sampling target is read.
    time_row(&mut rows, "micro/ou_sample_repeat_dt_approx", reps, || ou_repeat_dt(iters, true));
    time_row(&mut rows, "micro/ziggurat_normal", reps, || {
        // Raw standard-normal throughput of the ziggurat sampler (~98.8%
        // of draws take the single-u64 fast path). The Box–Muller floor it
        // breaks is visible in the exact-tier OU row above.
        let mut rng = Rng::new(17);
        let mut acc = 0.0f64;
        for _ in 0..iters {
            acc += rng.normal_ziggurat();
        }
        acc
    });
    time_row(&mut rows, "micro/broadcast_fanout", reps, || {
        // The per-transmission fan-out pattern at the 200-node scale: an
        // epoch-cached candidate query (grid superset + exact
        // snapshot-disc trim) reused across transmissions, each
        // re-checking exact distances against a drifting transmitter.
        let mut rng = Rng::new(21);
        let positions: Vec<Vec2> = (0..200).map(|_| Field::PAPER.random_point(&mut rng)).collect();
        let mut grid = SpatialGrid::new(Field::PAPER, 83.0);
        grid.rebuild(&positions);
        let radius = 250.0 + 24.0;
        let keep_sq = (radius + 1.0) * (radius + 1.0);
        let mut cached: Vec<u32> = Vec::new();
        let mut acc = 0u64;
        for epoch in 0..(iters / 64) {
            let tx = (epoch % 200) as usize;
            let center = positions[tx];
            // One query + snapshot-disc trim per (node, epoch)…
            grid.query_unordered_into(center, radius, &mut cached);
            cached.retain(|&j| {
                j as usize != tx && positions[j as usize].distance_sq(center) <= keep_sq
            });
            // …reused by every transmission the node makes before the next
            // grid rebuild, each re-filtering exactly against the
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
    });
    rows
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

fn append_snapshot(path: &Path, label: &str, entries: &[(String, f64)]) -> Result<(), String> {
    let snap = snapshot_json(label, entries);
    let doc = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let end =
                existing.rfind("\n  ]").ok_or("not a hotloop artifact (missing snapshot array)")?;
            format!("{},\n{}\n  ]\n}}\n", &existing[..end], snap)
        }
        Err(_) => format!("{{\n  \"schema\": 1,\n  \"snapshots\": [\n{snap}\n  ]\n}}\n"),
    };
    std::fs::write(path, doc).map_err(|e| format!("write: {e}"))?;
    println!("appended snapshot {label:?} to {}", path.display());
    Ok(())
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

/// Prints the snapshot table; with `max_regress`, `Ok(false)` means the
/// last snapshot regressed past it.
fn compare(path: &Path, max_regress: Option<f64>, markdown: bool) -> Result<bool, String> {
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
    // Rows follow the last snapshot; an earlier snapshot that lacks a row
    // shows `—` for its time and its ratio.
    let secs_in =
        |rows: &[(String, f64)], name: &str| rows.iter().find(|(n, _)| n == name).map(|r| r.1);
    let time_cell = |secs: Option<f64>| secs.map_or("—".to_string(), |s| format!("{s:.4}s"));
    let ratio_cell = |secs: Option<f64>, cur_secs: f64, times: char| {
        secs.map_or("—".to_string(), |s| format!("{:.2}{times}", s / cur_secs))
    };
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
        for (name, cur_secs) in cur {
            let base_secs = secs_in(base, name);
            match prev_col {
                Some((_, prev)) => {
                    let prev_secs = secs_in(prev, name);
                    println!(
                        "| `{name}` | {} | {} | {cur_secs:.4}s | {} | {} |",
                        time_cell(base_secs),
                        time_cell(prev_secs),
                        ratio_cell(prev_secs, *cur_secs, '×'),
                        ratio_cell(base_secs, *cur_secs, '×')
                    );
                }
                None => println!(
                    "| `{name}` | {} | {cur_secs:.4}s | {} |",
                    time_cell(base_secs),
                    ratio_cell(base_secs, *cur_secs, '×')
                ),
            }
        }
    } else {
        println!("{:<34} {:>12} {:>12} {:>9}", "workload", base_label, cur_label, "speedup");
        for (name, cur_secs) in cur {
            let base_secs = secs_in(base, name);
            println!(
                "{name:<34} {:>12} {cur_secs:>11.4}s {:>9}",
                time_cell(base_secs),
                ratio_cell(base_secs, *cur_secs, 'x')
            );
        }
    }
    // The exit-code gate judges the last snapshot against the one before
    // it (the trajectory table above is informational): a hot-loop
    // regression beyond the threshold fails loudly instead of only
    // printing.
    let Some(limit_pct) = max_regress else { return Ok(true) };
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
        return Ok(false);
    }
    // Keep machine-readable output clean: the gate verdict goes to stderr
    // when the table is markdown for a CI job summary.
    if markdown {
        eprintln!("gate: no entry regressed more than {limit_pct:.0}% vs {prev_label:?}");
    } else {
        println!("gate: no entry regressed more than {limit_pct:.0}% vs {prev_label:?}");
    }
    Ok(true)
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("hotloop: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.compare {
        compare(&opts.json, opts.max_regress, opts.markdown)
    } else {
        let entries = run_all(opts.quick, opts.reps);
        println!("{:<34} {:>12}", "workload", "wall");
        for (name, secs) in &entries {
            println!("{name:<34} {secs:>11.4}s");
        }
        match &opts.label {
            Some(label) => append_snapshot(&opts.json, label, &entries).map(|()| true),
            None => Ok(true),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("{}: {e}", opts.json.display());
            ExitCode::FAILURE
        }
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
        append_snapshot(&path, "base", &entries).unwrap();
        append_snapshot(&path, "next\trun", &entries[..2]).unwrap();
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
