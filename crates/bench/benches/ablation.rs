//! Ablation sweeps over the design parameters of RICA and BGCA (PAPER.md).
//!
//! Each ablation perturbs exactly one knob of the RICA/BGCA design and
//! reports the delay / delivery / overhead trade-off, quantifying the
//! paper's qualitative claims (e.g. "the price to paid is that the amount
//! of routing overhead is greater due to the periodical broadcast CSI
//! checking packets", §I).

use rica_bench::bench_scenario;
use rica_harness::{run_aggregate, ProtocolKind};
use rica_metrics::{format_table, Align};
use rica_net::ProtocolConfig;
use rica_sim::SimDuration;

const TRIALS: usize = 2;

fn row(label: String, cfg: ProtocolConfig, kind: ProtocolKind) -> Vec<String> {
    let scenario = bench_scenario().duration_secs(30.0).protocol(cfg).build();
    let agg = run_aggregate(&scenario, kind, TRIALS);
    vec![
        label,
        format!("{:.1}", agg.delay_ms.mean()),
        format!("{:.1}", agg.delivery_pct.mean()),
        format!("{:.1}", agg.overhead_kbps.mean()),
    ]
}

fn print_table(caption: &str, rows: Vec<Vec<String>>) {
    println!(
        "{caption}\n{}",
        format_table(
            &["setting", "delay(ms)", "delivery(%)", "overhead(kbps)"],
            &[Align::Left, Align::Right, Align::Right, Align::Right],
            &rows,
        )
    );
}

fn csi_period_sweep() {
    let rows = [0.25, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&secs| {
            let cfg = ProtocolConfig {
                csi_check_period: SimDuration::from_secs_f64(secs),
                ..ProtocolConfig::default()
            };
            row(format!("period {secs} s"), cfg, ProtocolKind::Rica)
        })
        .collect();
    print_table(
        "Ablation: RICA CSI-check period (paper: 1 s; §II.C 'decided by the change speed of the link CSI')",
        rows,
    );
}

fn ttl_margin_sweep() {
    let rows = [0u8, 1, 2, 4]
        .iter()
        .map(|&m| {
            let cfg = ProtocolConfig { csi_ttl_margin: m, ..ProtocolConfig::default() };
            row(format!("margin {m}"), cfg, ProtocolKind::Rica)
        })
        .collect();
    print_table("Ablation: RICA CSI-check TTL margin (paper: 0 — TTL = known hop distance)", rows);
}

fn promotion_window_sweep() {
    let rows = [0.1, 0.5, 1.0, 2.0]
        .iter()
        .map(|&secs| {
            let cfg = ProtocolConfig {
                rica_promotion_window: SimDuration::from_secs_f64(secs),
                ..ProtocolConfig::default()
            };
            row(format!("window {secs} s"), cfg, ProtocolKind::Rica)
        })
        .collect();
    print_table(
        "Ablation: RICA possible-route promotion window (paper's strict PN detection: 0.1 s)",
        rows,
    );
}

fn guard_factor_sweep() {
    let rows = [1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|&g| {
            let cfg = ProtocolConfig { bgca_guard_factor: g, ..ProtocolConfig::default() };
            row(format!("guard x{g}"), cfg, ProtocolKind::Bgca)
        })
        .collect();
    print_table("Ablation: BGCA bandwidth guard factor (default: 1.5 x offered rate)", rows);
}

fn selection_window_sweep() {
    let rows = [10u64, 40, 100, 250]
        .iter()
        .map(|&ms| {
            let cfg = ProtocolConfig {
                selection_window: SimDuration::from_millis(ms),
                ..ProtocolConfig::default()
            };
            row(format!("window {ms} ms"), cfg, ProtocolKind::Rica)
        })
        .collect();
    print_table("Ablation: source combining window (paper: 40 ms, §II.D)", rows);
}

fn main() {
    let t0 = std::time::Instant::now();
    csi_period_sweep();
    ttl_margin_sweep();
    promotion_window_sweep();
    guard_factor_sweep();
    selection_window_sweep();
    println!("# ablation bench completed in {:.1} s", t0.elapsed().as_secs_f64());
}
