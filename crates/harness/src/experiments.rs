//! The paper's experiments: one function per figure.
//!
//! Every figure of §III is regenerated here ([`FIGURE_IDS`] is the index;
//! the README's "Quickstart" section shows the CLI). [`Scale`] controls
//! fidelity: [`Scale::full`] is the paper's exact environment (50 nodes,
//! 500 s, 25 trials — minutes of wall time), [`Scale::quick`] is a
//! reduced version for CI and `cargo bench`.

use rica_exec::{ExecOptions, SweepPlan, SweepResult};
use rica_metrics::{format_table, Aggregate, Align};

use crate::{sweep, ProtocolKind, Scenario};

/// Experiment fidelity: how large and how often.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Terminals in the field.
    pub nodes: usize,
    /// Concurrent flows.
    pub flows: usize,
    /// Simulated seconds per trial.
    pub duration_secs: f64,
    /// Seeded trials averaged per data point.
    pub trials: usize,
    /// Mean-speed sweep points (km/h).
    pub speeds: Vec<f64>,
    /// Base seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's full environment (§III.A): 50 nodes, 10 flows, 500 s,
    /// 25 trials, speeds 0–72 km/h.
    pub fn full() -> Scale {
        Scale {
            nodes: 50,
            flows: 10,
            duration_secs: 500.0,
            trials: 25,
            speeds: vec![0.0, 18.0, 36.0, 54.0, 72.0],
            seed: 1,
        }
    }

    /// A scaled-down environment for CI / benches: same node density and
    /// traffic shape, shorter runs, fewer trials.
    pub fn quick() -> Scale {
        Scale {
            nodes: 50,
            flows: 10,
            duration_secs: 60.0,
            trials: 3,
            speeds: vec![0.0, 36.0, 72.0],
            seed: 1,
        }
    }

    /// A minimal smoke-test scale.
    pub fn smoke() -> Scale {
        Scale {
            nodes: 20,
            flows: 4,
            duration_secs: 15.0,
            trials: 2,
            speeds: vec![0.0, 72.0],
            seed: 1,
        }
    }

    fn scenario(&self, mean_speed_kmh: f64, rate_pps: f64) -> Scenario {
        Scenario::builder()
            .nodes(self.nodes)
            .flows(self.flows)
            .duration_secs(self.duration_secs)
            .mean_speed_kmh(mean_speed_kmh)
            .rate_pps(rate_pps)
            .seed(self.seed)
            .build()
    }
}

/// Result of a speed sweep: one [`Aggregate`] per (protocol, speed) —
/// the raw material of Figures 2, 3 and 4.
#[derive(Debug, Clone)]
pub struct SpeedSweep {
    /// Offered load (packets/s per flow).
    pub rate_pps: f64,
    /// The swept mean speeds (km/h).
    pub speeds: Vec<f64>,
    /// Aggregates per protocol, aligned with `speeds`.
    pub results: Vec<(ProtocolKind, Vec<Aggregate>)>,
    /// The raw executed sweep (per-trial summaries included) — the
    /// machine-readable artifact source.
    pub raw: SweepResult<ProtocolKind>,
}

impl SpeedSweep {
    fn table_of<F: Fn(&Aggregate) -> f64>(&self, caption: &str, metric: F) -> String {
        let mut headers: Vec<String> = vec!["speed(km/h)".into()];
        headers.extend(self.results.iter().map(|(k, _)| k.name().to_string()));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let aligns = vec![Align::Right; headers.len()];
        let rows: Vec<Vec<String>> = self
            .speeds
            .iter()
            .enumerate()
            .map(|(i, speed)| {
                // rica-lint: allow(float-fmt, "paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics")
                let mut row = vec![format!("{speed:.0}")];
                // rica-lint: allow(float-fmt, "paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics")
                row.extend(self.results.iter().map(|(_, aggs)| format!("{:.2}", metric(&aggs[i]))));
                row
            })
            .collect();
        format!("{caption}\n{}", format_table(&header_refs, &aligns, &rows))
    }

    /// Figure 2 view: average end-to-end delay (ms) vs speed.
    pub fn delay_table(&self) -> String {
        self.table_of(
            &format!("Average end-to-end delay (ms), {} pkt/s per flow", self.rate_pps),
            |a| a.delay_ms.mean(),
        )
    }

    /// Figure 3 view: successful delivery percentage vs speed.
    pub fn delivery_table(&self) -> String {
        self.table_of(
            &format!("Successful packet delivery (%), {} pkt/s per flow", self.rate_pps),
            |a| a.delivery_pct.mean(),
        )
    }

    /// Figure 4 view: routing overhead (kbps) vs speed.
    pub fn overhead_table(&self) -> String {
        self.table_of(&format!("Routing overhead (kbps), {} pkt/s per flow", self.rate_pps), |a| {
            a.overhead_kbps.mean()
        })
    }

    /// CSV rendering of one metric (columns: speed, then one per protocol;
    /// values are `mean` and `std` columns interleaved).
    pub fn csv_of<F: Fn(&rica_metrics::Welford) -> (f64, f64)>(
        &self,
        metric: impl Fn(&Aggregate) -> rica_metrics::Welford,
        fmt: F,
    ) -> String {
        let mut headers: Vec<String> = vec!["speed_kmh".into()];
        for (k, _) in &self.results {
            headers.push(format!("{}_mean", k.name()));
            headers.push(format!("{}_std", k.name()));
        }
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .speeds
            .iter()
            .enumerate()
            .map(|(i, speed)| {
                let mut row = vec![format!("{speed}")];
                for (_, aggs) in &self.results {
                    let w = metric(&aggs[i]);
                    let (m, s) = fmt(&w);
                    // rica-lint: allow(float-fmt, "paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics")
                    row.push(format!("{m:.4}"));
                    // rica-lint: allow(float-fmt, "paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics")
                    row.push(format!("{s:.4}"));
                }
                row
            })
            .collect();
        rica_metrics::csv_document(&header_refs, &rows)
    }

    /// CSV of the delay metric (Figure 2 data).
    pub fn delay_csv(&self) -> String {
        self.csv_of(|a| a.delay_ms, |w| (w.mean(), w.sample_std()))
    }

    /// CSV of the delivery metric (Figure 3 data).
    pub fn delivery_csv(&self) -> String {
        self.csv_of(|a| a.delivery_pct, |w| (w.mean(), w.sample_std()))
    }

    /// CSV of the overhead metric (Figure 4 data).
    pub fn overhead_csv(&self) -> String {
        self.csv_of(|a| a.overhead_kbps, |w| (w.mean(), w.sample_std()))
    }
}

/// Runs the Figure 2/3/4 sweep at the given load for all five protocols.
pub fn speed_sweep(rate_pps: f64, scale: &Scale) -> SpeedSweep {
    speed_sweep_for(rate_pps, scale, &ProtocolKind::ALL)
}

/// Runs the speed sweep for a subset of protocols over the default
/// worker pool.
pub fn speed_sweep_for(rate_pps: f64, scale: &Scale, kinds: &[ProtocolKind]) -> SpeedSweep {
    speed_sweep_with(rate_pps, scale, kinds, &ExecOptions::default())
}

/// Runs the speed sweep with explicit execution options: the whole
/// protocols × speeds × trials grid becomes one `rica-exec` job grid, so
/// every trial — not just trials within one data point — runs in
/// parallel.
pub fn speed_sweep_with(
    rate_pps: f64,
    scale: &Scale,
    kinds: &[ProtocolKind],
    opts: &ExecOptions,
) -> SpeedSweep {
    let plan = SweepPlan::new(
        kinds.to_vec(),
        scale.speeds.clone(),
        vec![scale.nodes],
        scale.trials,
        scale.seed,
    );
    let raw = sweep::run_plan(&plan, &scale.scenario(0.0, rate_pps), opts);
    let results = kinds
        .iter()
        .map(|&kind| {
            let aggs = raw.cells_for(kind).iter().map(|c| c.aggregate.clone()).collect();
            (kind, aggs)
        })
        .collect();
    SpeedSweep { rate_pps, speeds: scale.speeds.clone(), results, raw }
}

/// Figure 5: route quality (average traversed-link throughput and hop
/// count) at 72 km/h.
#[derive(Debug, Clone)]
pub struct RouteQuality {
    /// One aggregate per protocol at the testing speed.
    pub results: Vec<(ProtocolKind, Aggregate)>,
    /// The raw executed sweep behind the aggregates.
    pub raw: SweepResult<ProtocolKind>,
}

impl RouteQuality {
    /// Figure 5(a) view.
    pub fn link_throughput_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            // rica-lint: allow(float-fmt, "paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics")
            .map(|(k, a)| vec![k.name().into(), format!("{:.1}", a.link_throughput_kbps.mean())])
            .collect();
        format!(
            "Average link throughput (kbps) @ 72 km/h\n{}",
            format_table(&["protocol", "kbps"], &[Align::Left, Align::Right], &rows)
        )
    }

    /// Figure 5(b) view.
    pub fn hops_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            // rica-lint: allow(float-fmt, "paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics")
            .map(|(k, a)| vec![k.name().into(), format!("{:.2}", a.hops.mean())])
            .collect();
        format!(
            "Average number of hops @ 72 km/h\n{}",
            format_table(&["protocol", "hops"], &[Align::Left, Align::Right], &rows)
        )
    }
}

/// Runs the Figure 5 experiment (72 km/h, 10 pkt/s).
pub fn route_quality(scale: &Scale) -> RouteQuality {
    route_quality_with(scale, &ExecOptions::default())
}

/// [`route_quality`] with explicit execution options.
pub fn route_quality_with(scale: &Scale, opts: &ExecOptions) -> RouteQuality {
    let plan = SweepPlan::new(
        ProtocolKind::ALL.to_vec(),
        vec![72.0],
        vec![scale.nodes],
        scale.trials,
        scale.seed,
    );
    let raw = sweep::run_plan(&plan, &scale.scenario(72.0, 10.0), opts);
    let results = raw.cells.iter().map(|c| (c.protocol, c.aggregate.clone())).collect();
    RouteQuality { results, raw }
}

/// Figure 6: aggregate delivered throughput per 4-second bin.
#[derive(Debug, Clone)]
pub struct ThroughputSeries {
    /// Offered load (packets/s per flow).
    pub rate_pps: f64,
    /// Mean kbps per 4 s bin, per protocol.
    pub results: Vec<(ProtocolKind, Vec<f64>)>,
    /// The raw executed sweep behind the series.
    pub raw: SweepResult<ProtocolKind>,
}

impl ThroughputSeries {
    /// Text rendering of the series (one row per bin).
    pub fn table(&self) -> String {
        let mut headers: Vec<String> = vec!["t(s)".into()];
        headers.extend(self.results.iter().map(|(k, _)| k.name().to_string()));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let aligns = vec![Align::Right; headers.len()];
        let bins = self.results.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let rows: Vec<Vec<String>> = (0..bins)
            .map(|b| {
                let mut row = vec![format!("{}", (b + 1) * 4)];
                row.extend(
                    self.results
                        .iter()
                        // rica-lint: allow(float-fmt, "paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics")
                        .map(|(_, v)| v.get(b).map_or("-".into(), |x| format!("{x:.1}"))),
                );
                row
            })
            .collect();
        format!(
            "Aggregate network throughput (kbps per 4 s bin), {} pkt/s per flow\n{}",
            self.rate_pps,
            format_table(&header_refs, &aligns, &rows)
        )
    }

    /// CSV of the throughput series (Figure 6 data): `t_secs` then one
    /// column per protocol.
    pub fn csv(&self) -> String {
        let mut headers: Vec<String> = vec!["t_secs".into()];
        headers.extend(self.results.iter().map(|(k, _)| k.name().to_string()));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let bins = self.results.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let rows: Vec<Vec<String>> = (0..bins)
            .map(|b| {
                let mut row = vec![format!("{}", (b + 1) * 4)];
                row.extend(
                    self.results
                        .iter()
                        // rica-lint: allow(float-fmt, "figure-6 CSV is a plotting input at fixed precision, not a resumable artifact; exact results stream through rica_metrics")
                        .map(|(_, v)| v.get(b).map_or(String::new(), |x| format!("{x:.4}"))),
                );
                row
            })
            .collect();
        rica_metrics::csv_document(&header_refs, &rows)
    }

    /// Mean over the second half of the run (steady state), per protocol —
    /// a scalar view of Fig. 6 for assertions and summaries.
    pub fn steady_state_mean(&self) -> Vec<(ProtocolKind, f64)> {
        self.results
            .iter()
            .map(|(k, v)| {
                let half = v.len() / 2;
                let tail = &v[half.min(v.len().saturating_sub(1))..];
                let mean = if tail.is_empty() {
                    0.0
                } else {
                    tail.iter().sum::<f64>() / tail.len() as f64
                };
                (*k, mean)
            })
            .collect()
    }
}

/// Runs the Figure 6 experiment at the given per-flow load (the paper plots
/// 20 pkt/s and 60 pkt/s aggregate-equivalents) at 36 km/h mean speed.
pub fn throughput_timeseries(rate_pps: f64, scale: &Scale) -> ThroughputSeries {
    throughput_timeseries_with(rate_pps, scale, &ExecOptions::default())
}

/// [`throughput_timeseries`] with explicit execution options.
pub fn throughput_timeseries_with(
    rate_pps: f64,
    scale: &Scale,
    opts: &ExecOptions,
) -> ThroughputSeries {
    let plan = SweepPlan::new(
        ProtocolKind::ALL.to_vec(),
        vec![36.0],
        vec![scale.nodes],
        scale.trials,
        scale.seed,
    );
    let raw = sweep::run_plan(&plan, &scale.scenario(36.0, rate_pps), opts);
    let results =
        raw.cells.iter().map(|c| (c.protocol, c.aggregate.throughput_kbps.clone())).collect();
    ThroughputSeries { rate_pps, results, raw }
}

/// Regenerates a figure by its id (`fig2a` … `fig6b`), returning the text
/// report. Unknown ids return an error message listing valid ids.
pub fn figure(id: &str, scale: &Scale) -> String {
    figure_with(id, scale, &ExecOptions::default())
}

/// [`figure`] with explicit execution options.
pub fn figure_with(id: &str, scale: &Scale, opts: &ExecOptions) -> String {
    let all = &ProtocolKind::ALL;
    match id {
        "fig2a" => speed_sweep_with(10.0, scale, all, opts).delay_table(),
        "fig2b" => speed_sweep_with(20.0, scale, all, opts).delay_table(),
        "fig3a" => speed_sweep_with(10.0, scale, all, opts).delivery_table(),
        "fig3b" => speed_sweep_with(20.0, scale, all, opts).delivery_table(),
        "fig4a" => speed_sweep_with(10.0, scale, all, opts).overhead_table(),
        "fig4b" => speed_sweep_with(20.0, scale, all, opts).overhead_table(),
        "fig5a" => route_quality_with(scale, opts).link_throughput_table(),
        "fig5b" => route_quality_with(scale, opts).hops_table(),
        "fig6a" => throughput_timeseries_with(20.0, scale, opts).table(),
        "fig6b" => throughput_timeseries_with(60.0, scale, opts).table(),
        other => format!(
            "unknown figure id {other:?}; valid: fig2a fig2b fig3a fig3b fig4a fig4b fig5a fig5b fig6a fig6b"
        ),
    }
}

/// All valid figure ids, in paper order.
pub const FIGURE_IDS: [&str; 10] =
    ["fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b"];

/// Everything one full experiment run produces: the rendered figures and
/// the raw sweeps behind them (for the JSON artifact).
#[derive(Debug, Clone)]
pub struct FigureSet {
    /// `(figure id, rendered table)` pairs in paper order.
    pub figures: Vec<(&'static str, String)>,
    /// The labeled raw sweeps the figures were rendered from.
    pub sweeps: Vec<(String, SweepResult<ProtocolKind>)>,
}

impl FigureSet {
    /// Renders the raw sweeps as the `sweep_results.json` artifact.
    pub fn sweeps_json(&self, meta: &[(&str, String)]) -> String {
        sweep::sweeps_json(&self.sweeps, meta)
    }
}

/// Regenerates *every* figure, sharing the underlying sweeps (figures 2/3/4
/// at one load come from a single sweep; 5a/5b from one experiment).
/// Returns `(figure id, rendered table)` pairs in paper order.
pub fn run_all(scale: &Scale) -> Vec<(&'static str, String)> {
    run_all_with(scale, &ExecOptions::default()).figures
}

/// [`run_all`] with explicit execution options, also returning the raw
/// sweeps for the machine-readable artifact.
pub fn run_all_with(scale: &Scale, opts: &ExecOptions) -> FigureSet {
    let sweep10 = speed_sweep_with(10.0, scale, &ProtocolKind::ALL, opts);
    let sweep20 = speed_sweep_with(20.0, scale, &ProtocolKind::ALL, opts);
    let quality = route_quality_with(scale, opts);
    let ts20 = throughput_timeseries_with(20.0, scale, opts);
    let ts60 = throughput_timeseries_with(60.0, scale, opts);
    let figures = vec![
        ("fig2a", sweep10.delay_table()),
        ("fig2b", sweep20.delay_table()),
        ("fig3a", sweep10.delivery_table()),
        ("fig3b", sweep20.delivery_table()),
        ("fig4a", sweep10.overhead_table()),
        ("fig4b", sweep20.overhead_table()),
        ("fig5a", quality.link_throughput_table()),
        ("fig5b", quality.hops_table()),
        ("fig6a", ts20.table()),
        ("fig6b", ts60.table()),
    ];
    let sweeps = vec![
        ("speed_sweep_10pps".to_string(), sweep10.raw),
        ("speed_sweep_20pps".to_string(), sweep20.raw),
        ("route_quality_72kmh".to_string(), quality.raw),
        ("throughput_20pps".to_string(), ts20.raw),
        ("throughput_60pps".to_string(), ts60.raw),
    ];
    FigureSet { figures, sweeps }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            nodes: 10,
            flows: 2,
            duration_secs: 8.0,
            trials: 1,
            speeds: vec![0.0, 36.0],
            seed: 11,
        }
    }

    #[test]
    fn sweep_tables_render() {
        let sweep = speed_sweep_for(10.0, &tiny_scale(), &[ProtocolKind::Rica, ProtocolKind::Aodv]);
        for table in [sweep.delay_table(), sweep.delivery_table(), sweep.overhead_table()] {
            assert!(table.contains("RICA"));
            assert!(table.contains("AODV"));
            assert!(table.lines().count() >= 4, "caption + header + rule + 2 rows:\n{table}");
        }
    }

    #[test]
    fn figure_dispatch_handles_unknown() {
        let msg = figure("fig9z", &tiny_scale());
        assert!(msg.contains("unknown figure id"));
        assert!(msg.contains("fig6b"));
    }

    #[test]
    fn throughput_series_shapes() {
        let mut scale = tiny_scale();
        scale.speeds = vec![36.0];
        let ts = throughput_timeseries(10.0, &scale);
        assert_eq!(ts.results.len(), 5);
        // 8 s / 4 s bins = 2 bins.
        for (_, v) in &ts.results {
            assert_eq!(v.len(), 2);
        }
        assert_eq!(ts.steady_state_mean().len(), 5);
        assert!(ts.table().contains("t(s)"));
    }
}
