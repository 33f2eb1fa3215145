//! The paper's experiments: one function per experiment, one table of
//! figures.
//!
//! Every figure of §III is regenerated here, and so is the
//! design-parameter ablation: [`run_figures`] runs any set of figure ids
//! ([`FIGURE_IDS`] lists the paper's; the README's "Quickstart" section
//! shows the CLI). [`Scale`] controls fidelity: [`Scale::full`] is the
//! paper's exact environment (50 nodes, 500 s, 25 trials — minutes of
//! wall time), [`Scale::quick`] is a reduced version and [`Scale::smoke`]
//! the one CI runs.

use rica_exec::{ExecOptions, SweepPlan, SweepResult};
use rica_metrics::{format_table, Aggregate, Align};
use rica_net::ProtocolConfig;
use rica_sim::SimDuration;

use crate::{run_aggregate_with, sweep, ProtocolKind, Scenario};

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

    /// A scaled-down environment (the `figures` binary's default): same
    /// node density and traffic shape, shorter runs, fewer trials.
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

    /// Runs all five protocols over `speeds` at `rate_pps` per flow as one
    /// `rica-exec` job grid, so every trial — not just the trials of one
    /// data point — runs in parallel.
    fn sweep(
        &self,
        speeds: Vec<f64>,
        rate_pps: f64,
        opts: &ExecOptions,
    ) -> SweepResult<ProtocolKind> {
        let plan = SweepPlan::new(
            ProtocolKind::ALL.to_vec(),
            speeds,
            vec![self.nodes],
            self.trials,
            self.seed,
        );
        // The plan's speeds override the template's.
        sweep::run_plan(&plan, &self.scenario(0.0, rate_pps), opts)
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
                // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
                let mut row = vec![format!("{speed:.0}")];
                // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
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
}

/// Runs the Figure 2/3/4 sweep at the given load for all five protocols
/// over `scale`'s speeds.
pub fn speed_sweep_with(rate_pps: f64, scale: &Scale, opts: &ExecOptions) -> SpeedSweep {
    let raw = scale.sweep(scale.speeds.clone(), rate_pps, opts);
    let results = ProtocolKind::ALL
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
            // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
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
            // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
            .map(|(k, a)| vec![k.name().into(), format!("{:.2}", a.hops.mean())])
            .collect();
        format!(
            "Average number of hops @ 72 km/h\n{}",
            format_table(&["protocol", "hops"], &[Align::Left, Align::Right], &rows)
        )
    }
}

/// Runs the Figure 5 experiment (72 km/h, 10 pkt/s).
pub fn route_quality_with(scale: &Scale, opts: &ExecOptions) -> RouteQuality {
    let raw = scale.sweep(vec![72.0], 10.0, opts);
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
                        // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
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
}

/// Runs the Figure 6 experiment at the given per-flow load (the paper plots
/// 20 pkt/s and 60 pkt/s aggregate-equivalents) at 36 km/h mean speed.
pub fn throughput_timeseries_with(
    rate_pps: f64,
    scale: &Scale,
    opts: &ExecOptions,
) -> ThroughputSeries {
    let raw = scale.sweep(vec![36.0], rate_pps, opts);
    let results =
        raw.cells.iter().map(|c| (c.protocol, c.aggregate.throughput_kbps.clone())).collect();
    ThroughputSeries { rate_pps, results, raw }
}

/// How one figure is made: the experiment it needs and its view of it.
#[derive(Clone, Copy)]
enum Figure {
    /// Figures 2–4: a view of the speed sweep at this load (pkt/s per flow).
    Speed(f64, fn(&SpeedSweep) -> String),
    /// Figure 5: a view of the 72 km/h route-quality run.
    Quality(fn(&RouteQuality) -> String),
    /// Figure 6: the 36 km/h throughput series at this load.
    Throughput(f64),
    /// The design-parameter ablation; it runs no sweep.
    Ablation,
}

/// Every figure id and how it is made: the paper's figures in paper
/// order, then the ablation, which `all` leaves out.
const FIGURES: [(&str, Figure); 11] = [
    ("fig2a", Figure::Speed(10.0, SpeedSweep::delay_table)),
    ("fig2b", Figure::Speed(20.0, SpeedSweep::delay_table)),
    ("fig3a", Figure::Speed(10.0, SpeedSweep::delivery_table)),
    ("fig3b", Figure::Speed(20.0, SpeedSweep::delivery_table)),
    ("fig4a", Figure::Speed(10.0, SpeedSweep::overhead_table)),
    ("fig4b", Figure::Speed(20.0, SpeedSweep::overhead_table)),
    ("fig5a", Figure::Quality(RouteQuality::link_throughput_table)),
    ("fig5b", Figure::Quality(RouteQuality::hops_table)),
    ("fig6a", Figure::Throughput(20.0)),
    ("fig6b", Figure::Throughput(60.0)),
    ("ablation", Figure::Ablation),
];

/// The paper's figure ids, in paper order: what `all` runs.
pub const FIGURE_IDS: [&str; FIGURES.len() - 1] = {
    let mut ids = [""; FIGURES.len() - 1];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = FIGURES[i].0;
        i += 1;
    }
    ids
};

/// Everything one experiment run produces: the rendered figures and the
/// raw sweeps behind them (for the JSON artifact).
#[derive(Debug, Clone)]
pub struct FigureSet {
    /// `(figure id, rendered table)` pairs in request order.
    pub figures: Vec<(&'static str, String)>,
    /// The labeled raw sweeps the figures were rendered from, in first-use
    /// order.
    pub sweeps: Vec<(String, SweepResult<ProtocolKind>)>,
}

impl FigureSet {
    /// Renders the raw sweeps as the `sweep_results.json` artifact.
    pub fn sweeps_json(&self, meta: &[(&str, String)]) -> String {
        sweep::sweeps_json(&self.sweeps, meta)
    }
}

/// Runs the figures `ids` names (`all` stands for [`FIGURE_IDS`]) and
/// renders each once, in request order. Each sweep they need runs once:
/// figures 2/3/4 at one load share a sweep, and so do 5a/5b. An unknown id
/// is an error, returned before anything runs.
pub fn run_figures(ids: &[&str], scale: &Scale, opts: &ExecOptions) -> Result<FigureSet, String> {
    let mut wanted: Vec<(&'static str, Figure)> = Vec::new();
    for requested in ids {
        let expanded =
            if *requested == "all" { &FIGURE_IDS[..] } else { std::slice::from_ref(requested) };
        for &id in expanded {
            let &(id, figure) =
                FIGURES.iter().find(|(known, _)| *known == id).ok_or_else(|| {
                    let known: Vec<&str> = FIGURES.iter().map(|(known, _)| *known).collect();
                    format!("unknown figure id {id:?}; valid: all {}", known.join(" "))
                })?;
            if !wanted.iter().any(|(seen, _)| *seen == id) {
                wanted.push((id, figure));
            }
        }
    }
    let mut set = FigureSet { figures: Vec::new(), sweeps: Vec::new() };
    let (mut speed, mut quality, mut series) = (Vec::new(), None, Vec::new());
    for (id, figure) in wanted {
        let table = match figure {
            Figure::Speed(rate, view) => view(first_use(
                &mut speed,
                |s: &SpeedSweep| s.rate_pps == rate,
                || {
                    let s = speed_sweep_with(rate, scale, opts);
                    set.sweeps.push((format!("speed_sweep_{rate}pps"), s.raw.clone()));
                    s
                },
            )),
            Figure::Quality(view) => view(quality.get_or_insert_with(|| {
                let q = route_quality_with(scale, opts);
                set.sweeps.push(("route_quality_72kmh".to_string(), q.raw.clone()));
                q
            })),
            Figure::Throughput(rate) => first_use(
                &mut series,
                |t: &ThroughputSeries| t.rate_pps == rate,
                || {
                    let t = throughput_timeseries_with(rate, scale, opts);
                    set.sweeps.push((format!("throughput_{rate}pps"), t.raw.clone()));
                    t
                },
            )
            .table(),
            Figure::Ablation => ablation(scale, opts),
        };
        set.figures.push((id, table));
    }
    Ok(set)
}

/// The entry of `done` that `is` picks, made by `run` on first use.
fn first_use<T>(done: &mut Vec<T>, is: impl Fn(&T) -> bool, run: impl FnOnce() -> T) -> &T {
    match done.iter().position(is) {
        Some(i) => &done[i],
        None => {
            done.push(run());
            &done[done.len() - 1]
        }
    }
}

/// One design-parameter ablation: a caption, the protocol it runs, and its
/// settings, each a label and a change to the paper's [`ProtocolConfig`].
type Ablation = (&'static str, ProtocolKind, &'static [(&'static str, fn(&mut ProtocolConfig))]);

/// The ablations. Each varies one knob of the RICA or BGCA design to
/// quantify a trade-off the paper states only qualitatively, e.g. "the
/// amount of routing overhead is greater due to the periodical broadcast
/// CSI checking packets" (§I).
const ABLATIONS: [Ablation; 5] = [
    (
        "Ablation: RICA CSI-check period (paper: 1 s; §II.C 'decided by the change speed of the link CSI')",
        ProtocolKind::Rica,
        &[
            ("period 0.25 s", |c| c.csi_check_period = SimDuration::from_secs_f64(0.25)),
            ("period 0.5 s", |c| c.csi_check_period = SimDuration::from_secs_f64(0.5)),
            ("period 1 s", |c| c.csi_check_period = SimDuration::from_secs_f64(1.0)),
            ("period 2 s", |c| c.csi_check_period = SimDuration::from_secs_f64(2.0)),
            ("period 4 s", |c| c.csi_check_period = SimDuration::from_secs_f64(4.0)),
        ],
    ),
    (
        "Ablation: RICA CSI-check TTL margin (paper: 0 — TTL = known hop distance)",
        ProtocolKind::Rica,
        &[
            ("margin 0", |c| c.csi_ttl_margin = 0),
            ("margin 1", |c| c.csi_ttl_margin = 1),
            ("margin 2", |c| c.csi_ttl_margin = 2),
            ("margin 4", |c| c.csi_ttl_margin = 4),
        ],
    ),
    (
        "Ablation: RICA possible-route promotion window (paper's strict PN detection: 0.1 s)",
        ProtocolKind::Rica,
        &[
            ("window 0.1 s", |c| c.rica_promotion_window = SimDuration::from_secs_f64(0.1)),
            ("window 0.5 s", |c| c.rica_promotion_window = SimDuration::from_secs_f64(0.5)),
            ("window 1 s", |c| c.rica_promotion_window = SimDuration::from_secs_f64(1.0)),
            ("window 2 s", |c| c.rica_promotion_window = SimDuration::from_secs_f64(2.0)),
        ],
    ),
    (
        "Ablation: BGCA bandwidth guard factor (default: 1.5 x offered rate)",
        ProtocolKind::Bgca,
        &[
            ("guard x1", |c| c.bgca_guard_factor = 1.0),
            ("guard x1.5", |c| c.bgca_guard_factor = 1.5),
            ("guard x2", |c| c.bgca_guard_factor = 2.0),
            ("guard x3", |c| c.bgca_guard_factor = 3.0),
        ],
    ),
    (
        "Ablation: source combining window (paper: 40 ms, §II.D)",
        ProtocolKind::Rica,
        &[
            ("window 10 ms", |c| c.selection_window = SimDuration::from_millis(10)),
            ("window 40 ms", |c| c.selection_window = SimDuration::from_millis(40)),
            ("window 100 ms", |c| c.selection_window = SimDuration::from_millis(100)),
            ("window 250 ms", |c| c.selection_window = SimDuration::from_millis(250)),
        ],
    ),
];

/// Runs every [`ABLATIONS`] setting at `scale`, 36 km/h and 10 pkt/s per
/// flow, and renders one delay / delivery / overhead table per ablation.
fn ablation(scale: &Scale, opts: &ExecOptions) -> String {
    let tables: Vec<String> = ABLATIONS
        .iter()
        .map(|&(caption, kind, settings)| {
            let rows: Vec<Vec<String>> = settings
                .iter()
                .map(|&(label, set)| {
                    let mut scenario = scale.scenario(36.0, 10.0);
                    set(&mut scenario.protocol);
                    let agg = run_aggregate_with(&scenario, kind, scale.trials, opts);
                    let means =
                        [agg.delay_ms.mean(), agg.delivery_pct.mean(), agg.overhead_kbps.mean()];
                    let mut row = vec![label.to_string()];
                    // float-fmt: ablation table, deliberately rounded presentation output; exact results stream through rica_metrics
                    row.extend(means.iter().map(|m| format!("{m:.1}")));
                    row
                })
                .collect();
            let table = format_table(
                &["setting", "delay(ms)", "delivery(%)", "overhead(kbps)"],
                &[Align::Left, Align::Right, Align::Right, Align::Right],
                &rows,
            );
            format!("{caption}\n{table}")
        })
        .collect();
    tables.join("\n")
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
        let sweep = speed_sweep_with(10.0, &tiny_scale(), &ExecOptions::serial());
        for table in [sweep.delay_table(), sweep.delivery_table(), sweep.overhead_table()] {
            assert!(table.contains("RICA"));
            assert!(table.contains("AODV"));
            assert!(table.lines().count() >= 4, "caption + header + rule + 2 rows:\n{table}");
        }
    }

    #[test]
    fn unknown_figure_ids_are_errors() {
        let err = run_figures(&["fig2a", "fig9z"], &tiny_scale(), &ExecOptions::serial())
            .expect_err("fig9z is not a figure");
        assert!(err.contains("unknown figure id \"fig9z\""), "{err}");
        for valid in ["all", "fig6b", "ablation"] {
            assert!(err.contains(valid), "{err}");
        }
    }

    #[test]
    fn figure_sets_hold_the_sweeps_they_ran_in_first_use_order() {
        let run = |ids: &[&str]| {
            let set = run_figures(ids, &tiny_scale(), &ExecOptions::serial()).unwrap();
            let figures: Vec<&str> = set.figures.iter().map(|(id, _)| *id).collect();
            let sweeps: Vec<String> = set.sweeps.into_iter().map(|(label, _)| label).collect();
            (figures, sweeps)
        };
        assert_eq!(run(&["fig3a"]), (vec!["fig3a"], vec!["speed_sweep_10pps".to_string()]));
        assert_eq!(run(&["fig2a", "fig3a", "fig4a"]).1, ["speed_sweep_10pps"]);
        assert_eq!(
            run(&["fig6b", "fig2a", "fig6b"]),
            (vec!["fig6b", "fig2a"], vec!["throughput_60pps".into(), "speed_sweep_10pps".into()])
        );
    }

    #[test]
    fn ablation_renders_one_table_per_knob() {
        let set = run_figures(&["ablation"], &tiny_scale(), &ExecOptions::serial()).unwrap();
        assert!(set.sweeps.is_empty(), "the ablation runs no sweep");
        let [(id, out)] = &set.figures[..] else { panic!("one figure, got {}", set.figures.len()) };
        assert_eq!(*id, "ablation");
        assert_eq!(out.matches("Ablation: ").count(), ABLATIONS.len(), "{out}");
        let rows: usize = ABLATIONS.iter().map(|(_, _, settings)| settings.len()).sum();
        // Caption, header and rule per table, one row per setting, and a
        // blank line between tables.
        assert_eq!(out.lines().count(), 3 * ABLATIONS.len() + rows + ABLATIONS.len() - 1, "{out}");
    }

    /// The figure-set pins: the ten tables as the `figures` binary prints
    /// them, and the five-sweep `sweep_results.json` with its
    /// non-deterministic `wall_secs`/`workers` zeroed.
    #[test]
    fn figure_set_output_is_pinned() {
        const WANT_TABLES: u64 = 0x30d64f700900bb8a;
        const WANT_SWEEPS: u64 = 0x5d1e0b791413dfa0;
        let scale = tiny_scale();
        let mut set = run_figures(&["all"], &scale, &ExecOptions::serial()).unwrap();
        let tables: String =
            set.figures.iter().map(|(id, out)| format!("== {id} ==\n{out}\n")).collect();
        for (_, sweep) in &mut set.sweeps {
            sweep.wall_secs = 0.0;
            sweep.workers = 0;
        }
        let meta = [
            ("scale", "tiny".to_string()),
            ("trials", scale.trials.to_string()),
            ("nodes", scale.nodes.to_string()),
        ];
        let sweeps = set.sweeps_json(&meta);
        let (tables_hash, sweeps_hash) =
            (rica_exec::fnv1a(tables.as_bytes()), rica_exec::fnv1a(sweeps.as_bytes()));
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT_TABLES = 0x{tables_hash:016x}; WANT_SWEEPS = 0x{sweeps_hash:016x};");
            return;
        }
        assert_eq!(tables_hash, WANT_TABLES, "figure tables changed:\n{tables}");
        assert_eq!(sweeps_hash, WANT_SWEEPS, "sweep artifact changed:\n{sweeps}");
    }

    #[test]
    fn throughput_series_shapes() {
        let mut scale = tiny_scale();
        scale.speeds = vec![36.0];
        let ts = throughput_timeseries_with(10.0, &scale, &ExecOptions::serial());
        assert_eq!(ts.results.len(), 5);
        // 8 s / 4 s bins = 2 bins.
        for (_, v) in &ts.results {
            assert_eq!(v.len(), 2);
        }
        assert!(ts.table().contains("t(s)"));
    }
}
