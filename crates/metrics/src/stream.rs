//! Per-trial streaming records — the JSONL schema fleet sweeps persist.
//!
//! A monolithic `sweep_results.json` holds every trial in memory until
//! the end of the sweep; million-trial fleets instead stream one JSON
//! line per finished trial ([`TrialRecord`]) and recombine aggregates
//! later. The codec here round-trips a [`TrialSummary`] **exactly**:
//! every `f64` is rendered with Rust's shortest-roundtrip formatting and
//! parsed back with the correctly-rounded `FromStr`, so the value that
//! comes out is bit-for-bit the value that went in. That exactness is
//! what lets a merged shard stream reproduce the legacy
//! `sweep_results.json` byte-identically (see `rica-fleet`).
//!
//! Record shape (one line, schema-stamped):
//!
//! ```json
//! {"schema":1,"job":12,"cell":3,"trial":0,"seed":107,"summary":{
//!   "duration_ns":30000000000,"generated":866,"delivered":258,
//!   "drops":{"NoRoute":4},"delay_mean_ms":512.25,…,
//!   "control_bits":{"Rreq":131072},…,"throughput_kbps":[10.5,…],…}}
//! ```
//!
//! The optional `workload` and `recovery` blocks mirror
//! [`WorkloadSummary`] and [`RecoverySummary`]. Profiling diagnostics
//! are deliberately **not** part of the schema: they are
//! wall-clock-dependent observability output, not results, and fleet
//! runs never enable them (a summary with diagnostics attached refuses
//! to serialise rather than silently dropping data). Lines are written
//! and read through [`crate::json`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rica_net::{ControlKind, DropReason};
use rica_sim::SimDuration;

use crate::json::{
    parse_json, push_array, push_f64, push_members, push_object, push_u64, JsonValue,
};
use crate::{FlowSummary, RecoverySummary, TrialSummary, WorkloadSummary};

/// Schema version stamped into every record line.
pub const TRIAL_RECORD_SCHEMA: u32 = 1;

/// One streamed trial result: the grid coordinates that place it in a
/// plan plus the full summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Flat job index in plan order (shards re-anchor merges on it). For
    /// adaptive streams, which run beyond the plan grid, this is the
    /// stream-unique `cell · max_trials + trial`.
    pub job: usize,
    /// Grid cell index in plan order.
    pub cell: usize,
    /// Trial number within the cell.
    pub trial: usize,
    /// The derived seed the trial ran with (plan-derived; recorded so a
    /// single trial can be reproduced without the plan in hand).
    pub seed: u64,
    /// The full frozen trial result.
    pub summary: TrialSummary,
}

impl TrialRecord {
    /// Renders the record as one JSON line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics if the summary carries profiling diagnostics — those are
    /// not part of the record schema (see the module docs).
    pub fn to_line(&self) -> String {
        assert!(
            self.summary.diagnostics.is_none(),
            "trial records do not carry profiling diagnostics; run fleet trials unprofiled"
        );
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"schema\":{TRIAL_RECORD_SCHEMA},\"job\":{},\"cell\":{},\"trial\":{},\"seed\":{},\
             \"summary\":",
            self.job, self.cell, self.trial, self.seed
        );
        summary_json(&mut out, &self.summary);
        out.push('}');
        out
    }

    /// Parses a record line produced by [`TrialRecord::to_line`].
    pub fn parse(line: &str) -> Result<TrialRecord, String> {
        TrialRecord::from_json(&parse_json(line)?)
    }

    /// Reads a record from its parsed line (for readers that parse a
    /// line once to tell records from other line kinds).
    pub fn from_json(v: &JsonValue) -> Result<TrialRecord, String> {
        let schema = v.u64_at("schema")?;
        if schema != TRIAL_RECORD_SCHEMA as u64 {
            return Err(format!("unsupported record schema {schema}"));
        }
        Ok(TrialRecord {
            job: v.usize_at("job")?,
            cell: v.usize_at("cell")?,
            trial: v.usize_at("trial")?,
            seed: v.u64_at("seed")?,
            summary: summary_from(v.field("summary")?)?,
        })
    }
}

// ------------------------------------------------------------ serialising

fn summary_json(out: &mut String, s: &TrialSummary) {
    let _ = write!(
        out,
        "{{\"duration_ns\":{},\"generated\":{},\"delivered\":{},\"drops\":",
        s.duration.as_nanos(),
        s.generated,
        s.delivered
    );
    push_object(out, s.drops.iter().map(|(k, &v)| (format!("{k:?}"), v)), push_u64);
    push_members(
        out,
        [
            ("delay_mean_ms", s.delay_mean_ms),
            ("delay_std_ms", s.delay_std_ms),
            ("delay_p50_ms", s.delay_p50_ms),
            ("delay_p95_ms", s.delay_p95_ms),
            ("delay_max_ms", s.delay_max_ms),
        ],
        push_f64,
    );
    out.push_str(",\"control_bits\":");
    push_object(out, s.control_bits.iter().map(|(k, &v)| (format!("{k:?}"), v)), push_u64);
    let _ = write!(out, ",\"control_tx_count\":{},\"ack_bits\":{}", s.control_tx_count, s.ack_bits);
    push_members(
        out,
        [
            ("overhead_kbps", s.overhead_kbps),
            ("avg_link_throughput_kbps", s.avg_link_throughput_kbps),
            ("avg_hops", s.avg_hops),
        ],
        push_f64,
    );
    out.push_str(",\"throughput_kbps\":");
    push_array(out, s.throughput_kbps.iter().copied(), push_f64);
    let _ = write!(
        out,
        ",\"collisions\":{},\"link_breaks\":{},\"ctrl_queue_drops\":{}",
        s.collisions, s.link_breaks, s.ctrl_queue_drops
    );
    if let Some(w) = &s.workload {
        let _ = write!(out, ",\"workload\":{{\"offered_bits\":{},\"flows\":", w.offered_bits);
        push_array(out, &w.flows, |out, f| {
            let _ = write!(
                out,
                "{{\"generated\":{},\"delivered\":{},\"offered_bits\":{},\"delivered_bits\":{},\
                 \"delay_mean_ms\":",
                f.generated, f.delivered, f.offered_bits, f.delivered_bits
            );
            push_f64(out, f.delay_mean_ms);
            out.push('}');
        });
        out.push('}');
    }
    if let Some(r) = &s.recovery {
        let _ = write!(
            out,
            ",\"recovery\":{{\"crashes\":{},\"reboots\":{},\"partitions\":{},\"heals\":{},\
             \"delivered_intact\":{},\"delivered_disrupted\":{},\"disrupted_flows\":{},\
             \"recovered_flows\":{},\"unrecovered_flows\":{}",
            r.crashes,
            r.reboots,
            r.partitions,
            r.heals,
            r.delivered_intact,
            r.delivered_disrupted,
            r.disrupted_flows,
            r.recovered_flows,
            r.unrecovered_flows
        );
        push_members(
            out,
            [
                ("disruption_mean_ms", r.disruption_mean_ms),
                ("disruption_max_ms", r.disruption_max_ms),
                ("reroute_mean_ms", r.reroute_mean_ms),
                ("reroute_max_ms", r.reroute_max_ms),
            ],
            push_f64,
        );
        out.push('}');
    }
    out.push('}');
}

// -------------------------------------------------------------- parsing

fn drop_reason_from(name: &str) -> Option<DropReason> {
    DropReason::ALL.into_iter().find(|r| format!("{r:?}") == name)
}

fn control_kind_from(name: &str) -> Option<ControlKind> {
    ControlKind::ALL.into_iter().find(|k| format!("{k:?}") == name)
}

fn summary_from(v: &JsonValue) -> Result<TrialSummary, String> {
    let mut drops = BTreeMap::new();
    for (name, count) in v.object_at("drops")? {
        let reason = drop_reason_from(name).ok_or_else(|| format!("unknown drop {name}"))?;
        drops.insert(reason, count.as_u64().ok_or("bad drop count")?);
    }
    let mut control_bits = BTreeMap::new();
    for (name, bits) in v.object_at("control_bits")? {
        let kind = control_kind_from(name).ok_or_else(|| format!("unknown control {name}"))?;
        control_bits.insert(kind, bits.as_u64().ok_or("bad control bits")?);
    }
    let throughput_kbps = v
        .array_at("throughput_kbps")?
        .iter()
        .map(|x| x.as_f64().ok_or("bad throughput element"))
        .collect::<Result<Vec<f64>, _>>()?;
    let workload = match v.get("workload") {
        None => None,
        Some(w) => Some(WorkloadSummary {
            offered_bits: w.u64_at("offered_bits")?,
            flows: w
                .array_at("flows")?
                .iter()
                .map(|f| -> Result<FlowSummary, String> {
                    Ok(FlowSummary {
                        generated: f.u64_at("generated")?,
                        delivered: f.u64_at("delivered")?,
                        offered_bits: f.u64_at("offered_bits")?,
                        delivered_bits: f.u64_at("delivered_bits")?,
                        delay_mean_ms: f.f64_at("delay_mean_ms")?,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        }),
    };
    let recovery = match v.get("recovery") {
        None => None,
        Some(r) => Some(RecoverySummary {
            crashes: r.u64_at("crashes")?,
            reboots: r.u64_at("reboots")?,
            partitions: r.u64_at("partitions")?,
            heals: r.u64_at("heals")?,
            delivered_intact: r.u64_at("delivered_intact")?,
            delivered_disrupted: r.u64_at("delivered_disrupted")?,
            disrupted_flows: r.u64_at("disrupted_flows")?,
            recovered_flows: r.u64_at("recovered_flows")?,
            unrecovered_flows: r.u64_at("unrecovered_flows")?,
            disruption_mean_ms: r.f64_at("disruption_mean_ms")?,
            disruption_max_ms: r.f64_at("disruption_max_ms")?,
            reroute_mean_ms: r.f64_at("reroute_mean_ms")?,
            reroute_max_ms: r.f64_at("reroute_max_ms")?,
        }),
    };
    Ok(TrialSummary {
        duration: SimDuration::from_nanos(v.u64_at("duration_ns")?),
        generated: v.u64_at("generated")?,
        delivered: v.u64_at("delivered")?,
        drops,
        delay_mean_ms: v.f64_at("delay_mean_ms")?,
        delay_std_ms: v.f64_at("delay_std_ms")?,
        delay_p50_ms: v.f64_at("delay_p50_ms")?,
        delay_p95_ms: v.f64_at("delay_p95_ms")?,
        delay_max_ms: v.f64_at("delay_max_ms")?,
        control_bits,
        control_tx_count: v.u64_at("control_tx_count")?,
        ack_bits: v.u64_at("ack_bits")?,
        overhead_kbps: v.f64_at("overhead_kbps")?,
        avg_link_throughput_kbps: v.f64_at("avg_link_throughput_kbps")?,
        avg_hops: v.f64_at("avg_hops")?,
        throughput_kbps,
        collisions: v.u64_at("collisions")?,
        link_breaks: v.u64_at("link_breaks")?,
        ctrl_queue_drops: v.u64_at("ctrl_queue_drops")?,
        workload,
        recovery,
        diagnostics: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn fiddly_summary() -> TrialSummary {
        let mut drops = BTreeMap::new();
        drops.insert(DropReason::NoRoute, 7);
        drops.insert(DropReason::LinkBreak, 2);
        let mut control_bits = BTreeMap::new();
        control_bits.insert(ControlKind::Rreq, 131_072);
        control_bits.insert(ControlKind::Beacon, 9);
        TrialSummary {
            duration: SimDuration::from_secs(30),
            generated: 866,
            delivered: 258,
            drops,
            // Deliberately awkward floats: denormal-ish fractions, values
            // needing 17 digits, and negative-zero-free exact thirds.
            delay_mean_ms: 512.250_000_000_000_1,
            delay_std_ms: 0.1 + 0.2,
            delay_p50_ms: 1.0 / 3.0,
            delay_p95_ms: 1e-300,
            delay_max_ms: 9_007_199_254_740_993.0,
            control_bits,
            control_tx_count: 4_219,
            ack_bits: u64::MAX - 1,
            overhead_kbps: 17.25,
            avg_link_throughput_kbps: 193.401,
            avg_hops: std::f64::consts::E,
            throughput_kbps: vec![0.0, 10.5, 1.0 / 7.0],
            collisions: 41,
            link_breaks: 3,
            ctrl_queue_drops: 1,
            workload: None,
            recovery: None,
            diagnostics: None,
        }
    }

    #[test]
    fn record_round_trips_exactly() {
        let rec = TrialRecord { job: 12, cell: 3, trial: 0, seed: 107, summary: fiddly_summary() };
        let line = rec.to_line();
        assert!(!line.contains('\n'), "records must be single lines");
        let back = TrialRecord::parse(&line).expect("parse back");
        assert_eq!(back, rec, "streamed record must round-trip bit-exactly");
        // And the line itself is stable under a second trip.
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn workload_block_round_trips() {
        let mut s = fiddly_summary();
        s.workload = Some(WorkloadSummary {
            offered_bits: 12_345_678,
            flows: vec![
                FlowSummary {
                    generated: 100,
                    delivered: 93,
                    offered_bits: 409_600,
                    delivered_bits: 380_928,
                    delay_mean_ms: 77.125,
                },
                FlowSummary::default(),
            ],
        });
        let rec = TrialRecord { job: 0, cell: 0, trial: 4, seed: 11, summary: s };
        let back = TrialRecord::parse(&rec.to_line()).expect("parse back");
        assert_eq!(back, rec);
    }

    #[test]
    fn recovery_block_round_trips() {
        let mut s = fiddly_summary();
        s.recovery = Some(RecoverySummary {
            crashes: 3,
            reboots: 2,
            partitions: 1,
            heals: 1,
            delivered_intact: 511,
            delivered_disrupted: 42,
            disrupted_flows: 6,
            recovered_flows: 5,
            unrecovered_flows: 1,
            disruption_mean_ms: 812.5,
            disruption_max_ms: 2_431.062_5,
            reroute_mean_ms: 1.0 / 3.0,
            reroute_max_ms: 9_007.25,
        });
        let rec = TrialRecord { job: 2, cell: 1, trial: 3, seed: 19, summary: s };
        let line = rec.to_line();
        assert!(line.contains("\"recovery\":{\"crashes\":3"));
        let back = TrialRecord::parse(&line).expect("parse back");
        assert_eq!(back, rec);
        assert_eq!(back.to_line(), line);
    }

    /// A record carrying every optional block: the workload and recovery
    /// blocks on top of [`fiddly_summary`].
    fn full_record() -> TrialRecord {
        let mut s = fiddly_summary();
        s.workload = Some(WorkloadSummary {
            offered_bits: 12_345_678,
            flows: vec![
                FlowSummary {
                    generated: 100,
                    delivered: 93,
                    offered_bits: 409_600,
                    delivered_bits: 380_928,
                    delay_mean_ms: 1.0 / 7.0,
                },
                FlowSummary::default(),
            ],
        });
        s.recovery = Some(RecoverySummary {
            crashes: 3,
            reboots: 2,
            partitions: 1,
            heals: 1,
            delivered_intact: 511,
            delivered_disrupted: 42,
            disrupted_flows: 6,
            recovered_flows: 5,
            unrecovered_flows: 1,
            disruption_mean_ms: 812.5,
            disruption_max_ms: 2_431.062_5,
            reroute_mean_ms: 1.0 / 3.0,
            reroute_max_ms: 9_007.25,
        });
        TrialRecord { job: 2, cell: 1, trial: 3, seed: 19, summary: s }
    }

    /// FNV-1a pin of [`full_record`]'s line. To regenerate after an
    /// intentional change:
    ///
    /// ```text
    /// GOLDEN_PRINT=1 cargo test -q -p rica-metrics record_line_bytes -- --nocapture
    /// ```
    #[test]
    fn record_line_bytes_are_pinned() {
        const WANT: u64 = 0xeafc_a4dc_1aa8_aca4;
        let line = full_record().to_line();
        let hash = line.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT = 0x{hash:016x};\n{line}");
            return;
        }
        assert_eq!(hash, WANT, "record line bytes drifted:\n{line}");
        assert_eq!(TrialRecord::parse(&line), Ok(full_record()));
    }

    /// Hostile input: every strict prefix of a record line is an error;
    /// single-byte replacements and deep nesting give an error or a
    /// record, never a panic.
    #[test]
    fn hostile_record_lines_never_panic() {
        let line = full_record().to_line();
        for cut in 0..line.len() {
            assert!(TrialRecord::parse(&line[..cut]).is_err(), "{cut}-byte prefix parsed");
        }
        for at in 0..line.len() {
            for &b in b"{}[]\",:09-.e \\" {
                let mut bytes = line.clone().into_bytes();
                bytes[at] = b;
                let _ = TrialRecord::parse(std::str::from_utf8(&bytes).unwrap());
            }
        }
        for open in ["[", "{\"k\":"] {
            let deep = line.replacen("[0,", &open.repeat(100_000), 1);
            assert!(TrialRecord::parse(&deep).unwrap_err().contains("nesting"));
        }
    }

    #[test]
    fn u64_precision_survives() {
        // 2⁶⁴−2 is far beyond f64's 2⁵³ integer range: the raw-token
        // number representation is what keeps it exact.
        let rec = TrialRecord { job: 1, cell: 1, trial: 1, seed: 3, summary: fiddly_summary() };
        let back = TrialRecord::parse(&rec.to_line()).unwrap();
        assert_eq!(back.summary.ack_bits, u64::MAX - 1);
    }

    #[test]
    fn diagnostics_refuse_to_stream() {
        let mut s = fiddly_summary();
        s.diagnostics = Some(crate::WorldDiagnostics::default());
        let rec = TrialRecord { job: 0, cell: 0, trial: 0, seed: 0, summary: s };
        let panicked = std::panic::catch_unwind(|| rec.to_line());
        assert!(panicked.is_err(), "profiled summaries must not silently lose data");
    }

    #[test]
    fn bad_records_are_rejected_with_reasons() {
        let good =
            TrialRecord { job: 0, cell: 0, trial: 0, seed: 0, summary: fiddly_summary() }.to_line();
        assert!(TrialRecord::parse(&good[..good.len() - 2]).is_err(), "truncation detected");
        let wrong_schema = good.replacen("\"schema\":1", "\"schema\":99", 1);
        assert!(TrialRecord::parse(&wrong_schema).unwrap_err().contains("schema"));
        let bad_enum = good.replacen("NoRoute", "NoSuchReason", 1);
        assert!(TrialRecord::parse(&bad_enum).unwrap_err().contains("NoSuchReason"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary finite floats and counters round-trip bit-exactly
        /// through the record codec.
        #[test]
        fn summary_floats_round_trip(
            delay_bits in any::<u64>(),
            series in proptest::collection::vec(-1.0e12f64..1.0e12, 0..8),
            generated in any::<u64>(),
            delivered in any::<u64>(),
        ) {
            let raw = f64::from_bits(delay_bits);
            let delay = if raw.is_finite() { raw } else { 1.5 };
            let mut s = super::tests::fiddly_summary();
            s.delay_mean_ms = delay;
            s.throughput_kbps = series.clone();
            s.generated = generated;
            s.delivered = delivered;
            let rec = TrialRecord { job: 7, cell: 2, trial: 1, seed: 9, summary: s };
            let back = TrialRecord::parse(&rec.to_line()).unwrap();
            prop_assert_eq!(back.summary.delay_mean_ms.to_bits(), delay.to_bits());
            prop_assert_eq!(&back.summary.throughput_kbps, &series);
            prop_assert_eq!(back.summary.generated, generated);
        }
    }
}
