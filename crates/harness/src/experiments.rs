//! The paper's experiments: one table of figures, each a view of the
//! sweep it runs.
//!
//! Every figure of §III is regenerated here, and so is the
//! design-parameter ablation: [`run_figures`] runs any set of figure ids
//! ([`FIGURE_IDS`] lists the paper's; the README's "Quickstart" section
//! shows the CLI). Every batch of trials is a [`SweepPlan`] run through
//! [`sweep::run_plan`], and a figure renders straight from the labelled
//! [`SweepResult`] it ran. [`Scale`] controls fidelity: [`Scale::full`] is the
//! paper's exact environment (50 nodes, 500 s, 25 trials — minutes of
//! wall time), [`Scale::quick`] is a reduced version and [`Scale::smoke`]
//! the one CI runs.

use rica_exec::{ExecOptions, SweepPlan, SweepResult};
use rica_metrics::{format_table, Aggregate, Align};
use rica_net::ProtocolConfig;
use rica_sim::SimDuration;

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

    /// The template every batch of this scale runs at `rate_pps` per
    /// flow; a plan's speeds, node counts and seeds override its own.
    fn scenario(&self, rate_pps: f64) -> Scenario {
        Scenario::builder()
            .nodes(self.nodes)
            .flows(self.flows)
            .duration_secs(self.duration_secs)
            .rate_pps(rate_pps)
            .seed(self.seed)
            .build()
    }

    /// Runs `protocols` over `speeds` on `base` as one `rica-exec` job
    /// grid at this scale's node count, trials and seed, so every trial —
    /// not just the trials of one data point — runs in parallel, and
    /// every protocol runs the same seeds.
    fn run(
        &self,
        protocols: Vec<ProtocolKind>,
        speeds: Vec<f64>,
        base: &Scenario,
        opts: &ExecOptions,
    ) -> SweepResult<ProtocolKind> {
        let plan = SweepPlan::new(protocols, speeds, vec![self.nodes], self.trials, self.seed);
        sweep::run_plan(&plan, base, opts)
    }
}

/// The sweep a figure renders: all five protocols at one load (pkt/s per
/// flow) over one or more mean speeds.
#[derive(Clone, Copy)]
enum Sweep {
    /// Figures 2–4: the scale's speeds at this load.
    Speeds(f64),
    /// Figure 5: 72 km/h at 10 pkt/s.
    RouteQuality,
    /// Figure 6: 36 km/h at this load.
    Throughput(f64),
}

impl Sweep {
    /// The sweep's label in [`FigureSet::sweeps`] and the artifact, its
    /// mean speeds (km/h) and its load.
    fn spec(self, scale: &Scale) -> (String, Vec<f64>, f64) {
        match self {
            Sweep::Speeds(rate) => (format!("speed_sweep_{rate}pps"), scale.speeds.clone(), rate),
            Sweep::RouteQuality => ("route_quality_72kmh".to_string(), vec![72.0], 10.0),
            Sweep::Throughput(rate) => (format!("throughput_{rate}pps"), vec![36.0], rate),
        }
    }
}

/// A figure's rendering of the sweep it ran, given that sweep's load.
type View = fn(&SweepResult<ProtocolKind>, f64) -> String;

/// One row per speed, one column per protocol: `metric`'s cross-trial
/// mean in each cell.
fn speed_table(
    sweep: &SweepResult<ProtocolKind>,
    caption: &str,
    metric: fn(&Aggregate) -> f64,
) -> String {
    let (protocols, speeds) = (&sweep.plan.protocols, &sweep.plan.speeds_kmh);
    let mut headers = vec!["speed(km/h)"];
    headers.extend(protocols.iter().map(|k| k.name()));
    let rows: Vec<Vec<String>> = speeds
        .iter()
        .enumerate()
        .map(|(i, speed)| {
            // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
            let mut row = vec![format!("{speed:.0}")];
            row.extend(protocols.iter().map(|&k| {
                // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
                format!("{:.2}", metric(&sweep.cells_for(k)[i].aggregate))
            }));
            row
        })
        .collect();
    format!("{caption}\n{}", format_table(&headers, &vec![Align::Right; headers.len()], &rows))
}

/// Figure 2: average end-to-end delay (ms) vs speed.
fn delay_table(sweep: &SweepResult<ProtocolKind>, rate_pps: f64) -> String {
    let caption = format!("Average end-to-end delay (ms), {rate_pps} pkt/s per flow");
    speed_table(sweep, &caption, |a| a.delay_ms.mean())
}

/// Figure 3: successful delivery percentage vs speed.
fn delivery_table(sweep: &SweepResult<ProtocolKind>, rate_pps: f64) -> String {
    let caption = format!("Successful packet delivery (%), {rate_pps} pkt/s per flow");
    speed_table(sweep, &caption, |a| a.delivery_pct.mean())
}

/// Figure 4: routing overhead (kbps) vs speed.
fn overhead_table(sweep: &SweepResult<ProtocolKind>, rate_pps: f64) -> String {
    let caption = format!("Routing overhead (kbps), {rate_pps} pkt/s per flow");
    speed_table(sweep, &caption, |a| a.overhead_kbps.mean())
}

/// One row per protocol of a one-speed sweep: `cell` renders its
/// aggregate under the column `header`.
fn protocol_table(
    sweep: &SweepResult<ProtocolKind>,
    caption: &str,
    header: &str,
    cell: fn(&Aggregate) -> String,
) -> String {
    let rows: Vec<Vec<String>> =
        sweep.cells.iter().map(|c| vec![c.protocol.name().into(), cell(&c.aggregate)]).collect();
    let table = format_table(&["protocol", header], &[Align::Left, Align::Right], &rows);
    format!("{caption}\n{table}")
}

/// Figure 5(a): average traversed-link throughput.
fn link_throughput_table(sweep: &SweepResult<ProtocolKind>, _rate_pps: f64) -> String {
    protocol_table(sweep, "Average link throughput (kbps) @ 72 km/h", "kbps", |a| {
        // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
        format!("{:.1}", a.link_throughput_kbps.mean())
    })
}

/// Figure 5(b): average hop count.
fn hops_table(sweep: &SweepResult<ProtocolKind>, _rate_pps: f64) -> String {
    protocol_table(sweep, "Average number of hops @ 72 km/h", "hops", |a| {
        // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
        format!("{:.2}", a.hops.mean())
    })
}

/// Figure 6: aggregate delivered throughput, one row per 4 s bin and one
/// column per protocol.
fn throughput_table(sweep: &SweepResult<ProtocolKind>, rate_pps: f64) -> String {
    let mut headers = vec!["t(s)"];
    headers.extend(sweep.cells.iter().map(|c| c.protocol.name()));
    let series: Vec<&[f64]> =
        sweep.cells.iter().map(|c| &c.aggregate.throughput_kbps[..]).collect();
    let bins = series.iter().map(|v| v.len()).max().unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..bins)
        .map(|b| {
            let mut row = vec![format!("{}", (b + 1) * 4)];
            // float-fmt: paper-figure table, deliberately rounded presentation output; exact results stream through rica_metrics
            row.extend(series.iter().map(|v| v.get(b).map_or("-".into(), |x| format!("{x:.1}"))));
            row
        })
        .collect();
    format!(
        "Aggregate network throughput (kbps per 4 s bin), {rate_pps} pkt/s per flow\n{}",
        format_table(&headers, &vec![Align::Right; headers.len()], &rows)
    )
}

/// How one figure is made.
#[derive(Clone, Copy)]
enum Figure {
    /// A view of the sweep it renders.
    Of(Sweep, View),
    /// The design-parameter ablation; it runs no sweep.
    Ablation,
}

/// Every figure id and how it is made: the paper's figures in paper
/// order, then the ablation, which `all` leaves out.
const FIGURES: [(&str, Figure); 11] = [
    ("fig2a", Figure::Of(Sweep::Speeds(10.0), delay_table)),
    ("fig2b", Figure::Of(Sweep::Speeds(20.0), delay_table)),
    ("fig3a", Figure::Of(Sweep::Speeds(10.0), delivery_table)),
    ("fig3b", Figure::Of(Sweep::Speeds(20.0), delivery_table)),
    ("fig4a", Figure::Of(Sweep::Speeds(10.0), overhead_table)),
    ("fig4b", Figure::Of(Sweep::Speeds(20.0), overhead_table)),
    ("fig5a", Figure::Of(Sweep::RouteQuality, link_throughput_table)),
    ("fig5b", Figure::Of(Sweep::RouteQuality, hops_table)),
    ("fig6a", Figure::Of(Sweep::Throughput(20.0), throughput_table)),
    ("fig6b", Figure::Of(Sweep::Throughput(60.0), throughput_table)),
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
/// sweeps they were rendered from (the JSON artifact renders these
/// through [`sweep::sweeps_json`]).
#[derive(Debug, Clone)]
pub struct FigureSet {
    /// `(figure id, rendered table)` pairs in request order.
    pub figures: Vec<(&'static str, String)>,
    /// The labeled sweeps the figures were rendered from, in first-use
    /// order.
    pub sweeps: Vec<(String, SweepResult<ProtocolKind>)>,
}

/// Runs the figures `ids` names (`all` stands for [`FIGURE_IDS`]) and
/// renders each once, in request order. A figure finds the sweep it
/// renders in [`FigureSet::sweeps`] by label and runs it only if it is
/// not there yet: figures 2/3/4 at one load share a sweep, and so do
/// 5a/5b. An unknown id is an error, returned before anything runs.
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
    for (id, figure) in wanted {
        let table = match figure {
            Figure::Of(sweep, view) => {
                let (label, speeds, rate) = sweep.spec(scale);
                let ran = match set.sweeps.iter().position(|(ran, _)| *ran == label) {
                    Some(ran) => ran,
                    None => {
                        let base = scale.scenario(rate);
                        let result = scale.run(ProtocolKind::ALL.to_vec(), speeds, &base, opts);
                        set.sweeps.push((label, result));
                        set.sweeps.len() - 1
                    }
                };
                view(&set.sweeps[ran].1, rate)
            }
            Figure::Ablation => ablation(scale, opts),
        };
        set.figures.push((id, table));
    }
    Ok(set)
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

/// Runs every [`ABLATIONS`] setting as a one-cell plan at `scale`,
/// 36 km/h and 10 pkt/s per flow, and renders one delay / delivery /
/// overhead table per ablation.
fn ablation(scale: &Scale, opts: &ExecOptions) -> String {
    let tables: Vec<String> = ABLATIONS
        .iter()
        .map(|&(caption, kind, settings)| {
            let rows: Vec<Vec<String>> = settings
                .iter()
                .map(|&(label, set)| {
                    let mut base = scale.scenario(10.0);
                    set(&mut base.protocol);
                    let setting = scale.run(vec![kind], vec![36.0], &base, opts);
                    let agg = &setting.cells_for(kind)[0].aggregate;
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
        const WANT_ABLATION: u64 = 0x32b72dd4516f98ca;
        let hash = rica_exec::fnv1a(out.as_bytes());
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT_ABLATION = 0x{hash:016x};");
            return;
        }
        assert_eq!(hash, WANT_ABLATION, "ablation tables changed:\n{out}");
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
        for (_, ran) in &mut set.sweeps {
            ran.wall_secs = 0.0;
            ran.workers = 0;
        }
        let meta = [
            ("scale", "tiny".to_string()),
            ("trials", scale.trials.to_string()),
            ("nodes", scale.nodes.to_string()),
        ];
        let sweeps = sweep::sweeps_json(&set.sweeps, &meta);
        let (tables_hash, sweeps_hash) =
            (rica_exec::fnv1a(tables.as_bytes()), rica_exec::fnv1a(sweeps.as_bytes()));
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT_TABLES = 0x{tables_hash:016x}; WANT_SWEEPS = 0x{sweeps_hash:016x};");
            return;
        }
        assert_eq!(tables_hash, WANT_TABLES, "figure tables changed:\n{tables}");
        assert_eq!(sweeps_hash, WANT_SWEEPS, "sweep artifact changed:\n{sweeps}");
    }
}
