//! Machine-readable sweep artifacts (`sweep_results.json`).
//!
//! The CSV/table renderers in `rica-metrics` serve human eyes; bench
//! trajectories across PRs need a stable machine-readable artifact. This
//! module renders a [`SweepResult`] as JSON through the workspace's one
//! codec, `rica_metrics::json`.

use std::fmt::Write as _;

use rica_metrics::json::{
    push_array, push_f64_or_null, push_members, push_object, push_string, push_u64,
};
use rica_metrics::{TrialSummary, Welford};

use crate::plan::{SweepCell, SweepPlan, SweepResult};

/// Schema version stamped into every artifact, bumped on layout changes.
///
/// Each sweep axis (workloads, fidelities, fault plans) is an *additive,
/// conditional* extension of schema 1: an axis still at its single
/// default entry renders no fields at all, so artifacts pinned before
/// the axis existed stay byte-identical. A widened axis adds its plan
/// array (`workloads`, `fidelities`, `faults`) and a per-cell entry
/// label (`workload`, `fidelity`, `faults`). Workload and recovery
/// accounting on trial rows appears only for trials that ran a
/// non-default workload or fault plan.
pub const SWEEP_JSON_SCHEMA: u32 = 1;

fn welford(out: &mut String, w: &Welford) {
    out.push('{');
    push_members(out, [("mean", w.mean()), ("std", w.sample_std())], push_f64_or_null);
    let _ = write!(out, ",\"n\":{}}}", w.count());
}

fn trial(out: &mut String, t: &TrialSummary) {
    let _ = write!(out, "{{\"generated\":{},\"delivered\":{}", t.generated, t.delivered);
    push_members(
        out,
        [
            ("delivery_pct", t.delivery_pct()),
            ("delay_mean_ms", t.delay_mean_ms),
            ("delay_p95_ms", t.delay_p95_ms),
            ("overhead_kbps", t.overhead_kbps),
            ("avg_link_throughput_kbps", t.avg_link_throughput_kbps),
            ("avg_hops", t.avg_hops),
        ],
        push_f64_or_null,
    );
    let _ = write!(
        out,
        ",\"collisions\":{},\"link_breaks\":{},\"dropped\":{}",
        t.collisions,
        t.link_breaks,
        t.dropped()
    );
    // Workload accounting exists only for non-default workloads, so this
    // block never appears in (byte-pinned) legacy artifacts.
    if let Some(w) = &t.workload {
        out.push_str(",\"workload\":{\"offered_kbps\":");
        push_f64_or_null(out, w.offered_kbps(t.duration));
        out.push_str(",\"flows\":");
        push_array(out, &w.flows, |out, f| {
            let _ = write!(out, "{{\"generated\":{},\"delivered\":{}", f.generated, f.delivered);
            push_members(
                out,
                [
                    ("offered_kbps", f.offered_kbps(t.duration)),
                    ("delivered_kbps", f.delivered_kbps(t.duration)),
                    ("delay_mean_ms", f.delay_mean_ms),
                ],
                push_f64_or_null,
            );
            out.push('}');
        });
        out.push('}');
    }
    // Recovery accounting exists only for faulted trials, so this block
    // never appears in (byte-pinned) legacy artifacts either.
    if let Some(r) = &t.recovery {
        let _ = write!(
            out,
            ",\"recovery\":{{\"crashes\":{},\"reboots\":{},\"partitions\":{},\"heals\":{},\"delivered_intact\":{},\"delivered_disrupted\":{},\"disrupted_flows\":{},\"recovered_flows\":{},\"unrecovered_flows\":{}",
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
            [("disruption_mean_ms", r.disruption_mean_ms), ("reroute_mean_ms", r.reroute_mean_ms)],
            push_f64_or_null,
        );
        out.push('}');
    }
    out.push('}');
}

fn cell<P>(
    out: &mut String,
    plan: &SweepPlan<P>,
    index: usize,
    c: &SweepCell<P>,
    label: &dyn Fn(&P) -> String,
) {
    out.push_str("{\"protocol\":");
    push_string(out, &label(&c.protocol));
    push_members(out, [("speed_kmh", c.speed_kmh)], push_f64_or_null);
    let _ = write!(out, ",\"nodes\":{}", c.nodes);
    push_members(out, plan.cell_labels(index), |out, entry| push_string(out, &entry));
    let _ = write!(out, ",\"aggregate\":{{\"trials\":{}", c.aggregate.trials);
    push_members(
        out,
        [
            ("delay_ms", &c.aggregate.delay_ms),
            ("delivery_pct", &c.aggregate.delivery_pct),
            ("overhead_kbps", &c.aggregate.overhead_kbps),
            ("link_throughput_kbps", &c.aggregate.link_throughput_kbps),
            ("hops", &c.aggregate.hops),
        ],
        welford,
    );
    push_members(
        out,
        [("collisions", c.aggregate.collisions), ("link_breaks", c.aggregate.link_breaks)],
        push_f64_or_null,
    );
    out.push_str(",\"throughput_kbps\":");
    push_array(out, c.aggregate.throughput_kbps.iter().copied(), push_f64_or_null);
    out.push_str("},\"trial_summaries\":");
    push_array(out, &c.trials, trial);
    out.push('}');
}

/// Renders a sweep result as a JSON document.
///
/// `label` names a protocol for the artifact (e.g. `|k| k.name().into()`);
/// `meta` is a free-form `(key, value)` string map recorded under
/// `"meta"` (scale name, load, git revision, …).
pub fn sweep_json<P>(
    result: &SweepResult<P>,
    label: impl Fn(&P) -> String,
    meta: &[(&str, String)],
) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(out, "{{\"schema\":{SWEEP_JSON_SCHEMA},\"meta\":");
    push_object(&mut out, meta.iter().map(|(k, v)| (k, v.as_str())), push_string);
    let _ = write!(out, ",\"workers\":{}", result.workers);
    push_members(&mut out, [("wall_secs", result.wall_secs)], push_f64_or_null);
    let _ = write!(
        out,
        ",\"plan\":{{\"trials\":{},\"base_seed\":{},\"speeds_kmh\":",
        result.plan.trials, result.plan.base_seed
    );
    push_array(&mut out, result.plan.speeds_kmh.iter().copied(), push_f64_or_null);
    out.push_str(",\"node_counts\":");
    push_array(&mut out, result.plan.node_counts.iter().map(|&n| n as u64), push_u64);
    out.push_str(",\"protocols\":");
    push_array(&mut out, &result.plan.protocols, |out, p| push_string(out, &label(p)));
    // Only widened axes are named, so artifacts pinned before an axis
    // existed keep their bytes.
    let widened = result.plan.axes().into_iter().filter(|a| a.widened());
    push_members(&mut out, widened.map(|axis| (axis.plan_key(), axis)), |out, axis| {
        push_array(out, 0..axis.entries(), |out, entry| push_string(out, &axis.label(entry)))
    });
    out.push_str("},\"cells\":");
    let label_dyn: &dyn Fn(&P) -> String = &label;
    push_array(&mut out, result.cells.iter().enumerate(), |out, (i, c)| {
        cell(out, &result.plan, i, c, label_dyn)
    });
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ExecOptions;
    use rica_metrics::Metrics;
    use rica_sim::SimDuration;

    fn toy_result() -> SweepResult<u8> {
        let plan = SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0], vec![10], 2, 5);
        plan.run(&ExecOptions::serial(), |job| {
            let mut m = Metrics::new();
            for _ in 0..(job.seed + job.protocol as u64) {
                m.on_generated();
            }
            m.finish(SimDuration::from_secs(4))
        })
    }

    #[test]
    fn json_is_well_formed_enough() {
        let doc = sweep_json(&toy_result(), |p| format!("P{p}"), &[("scale", "toy".into())]);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"schema\":1"));
        assert!(doc.contains("\"scale\":\"toy\""));
        assert!(doc.contains("\"protocol\":\"P1\""));
        assert!(doc.contains("\"cells\":["));
        // Balanced braces/brackets (no string content interferes here).
        let braces: i64 = doc
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        let brackets: i64 = doc
            .chars()
            .map(|c| match c {
                '[' => 1,
                ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
        assert_eq!(brackets, 0);
    }

    #[test]
    fn only_widened_axes_are_named_in_the_artifact() {
        use rica_channel::ChannelFidelity;
        use rica_faults::FaultPlan;
        use rica_traffic::{ArrivalSpec, SizeSpec, WorkloadSpec};
        let base = SweepPlan::new(vec![1u8], vec![0.0], vec![10], 1, 5);
        let cbr = WorkloadSpec { arrival: ArrivalSpec::Cbr, size: SizeSpec::Fixed };
        let churn = FaultPlan::none().with_churn(40.0, 8.0, 0.0);
        let cases = [
            (
                base.clone().with_workloads(vec![WorkloadSpec::default(), cbr]),
                [
                    "\"workloads\":[\"poisson+fixed\",\"cbr+fixed\"]",
                    "\"workload\":\"poisson+fixed\"",
                    "\"workload\":\"cbr+fixed\"",
                ],
            ),
            (
                base.clone().with_fidelities(vec![ChannelFidelity::Exact, ChannelFidelity::Approx]),
                [
                    "\"fidelities\":[\"exact\",\"approx\"]",
                    "\"fidelity\":\"exact\"",
                    "\"fidelity\":\"approx\"",
                ],
            ),
            (
                base.clone().with_faults(vec![FaultPlan::none(), churn]),
                [
                    "\"faults\":[\"none\",\"churn(up40s,down8s)\"]",
                    "\"faults\":\"none\"",
                    "\"faults\":\"churn(up40s,down8s)\"",
                ],
            ),
        ];
        for (plan, names) in cases {
            let r = plan
                .run(&ExecOptions::serial(), |_| Metrics::new().finish(SimDuration::from_secs(4)));
            let doc = sweep_json(&r, |p| format!("P{p}"), &[]);
            for name in names {
                assert!(doc.contains(name), "{name} missing: {doc}");
            }
            // The two axes left at their default stay unnamed.
            let named =
                ["\"workload", "\"fidelit", "\"faults"].iter().filter(|k| doc.contains(*k)).count();
            assert_eq!(named, 1, "{doc}");
        }
    }

    #[test]
    fn default_axes_render_no_axis_fields() {
        // A plan that widens no axis renders none of their fields —
        // golden artifact hashes from before each axis depend on it.
        let doc = sweep_json(&toy_result(), |p| format!("P{p}"), &[]);
        for field in ["workload", "fidelit", "fault", "recovery"] {
            assert!(!doc.contains(field), "unexpected {field} fields: {doc}");
        }
    }

    /// FNV-1a pins of a plan that widens all three sweep axes: its
    /// content hash and its artifact bytes (meta strings exercise the
    /// escaper). Every manifest and artifact of a widened plan depends
    /// on these encodings. To regenerate after an intentional change:
    ///
    /// ```text
    /// GOLDEN_PRINT=1 cargo test -q -p rica-exec widened_encodings -- --nocapture
    /// ```
    #[test]
    fn widened_encodings_are_pinned() {
        use rica_channel::ChannelFidelity;
        use rica_faults::{FaultPlan, NodeId};
        use rica_traffic::{ArrivalSpec, SizeSpec, WorkloadSpec};
        const WANT_PLAN_HASH: u64 = 0xce35_11b6_1955_633f;
        const WANT_DOC_HASH: u64 = 0x9e8a_0367_552b_931b;
        let plan = SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0], vec![10], 2, 5)
            .with_workloads(vec![
                WorkloadSpec::default(),
                WorkloadSpec {
                    arrival: ArrivalSpec::Cbr,
                    size: SizeSpec::Uniform { lo: 64, hi: 1460 },
                },
            ])
            .with_fidelities(vec![ChannelFidelity::Exact, ChannelFidelity::Approx])
            .with_faults(vec![
                FaultPlan::none(),
                FaultPlan::none().with_crash(NodeId(3), 10.0, Some(5.0)),
            ]);
        let mut r = plan.run(&ExecOptions::serial(), |job| {
            let mut m = Metrics::new();
            for _ in 0..(job.seed + job.protocol as u64 + job.trial as u64) {
                m.on_generated();
            }
            if job.workload == 1 {
                m.enable_workload(1);
                m.on_generated_flow(0, 4288 + job.seed);
            }
            if job.faults == 1 {
                m.enable_recovery(1);
                m.on_fault(rica_metrics::FaultKind::Crash, rica_sim::SimTime::ZERO);
            }
            m.finish(SimDuration::from_secs(4))
        });
        r.wall_secs = 0.0;
        let label = |p: &u8| format!("P{p}");
        let plan_hash = plan.content_hash(label);
        let doc = sweep_json(&r, label, &[("note", "q\"b\\n\nt\tc\u{1}".into())]);
        let doc_hash = crate::plan::fnv1a(doc.as_bytes());
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT_PLAN_HASH = 0x{plan_hash:016x}; WANT_DOC_HASH = 0x{doc_hash:016x};");
            return;
        }
        assert_eq!(plan_hash, WANT_PLAN_HASH, "widened plan-hash encoding drifted");
        assert_eq!(doc_hash, WANT_DOC_HASH, "widened artifact bytes drifted:\n{doc}");
    }
}
