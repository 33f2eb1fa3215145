//! Visualise the 4-class ABICM channel model (§II.A): sample the class of
//! three links — short, medium, and range-edge — over a minute and print
//! them as class traces.
//!
//! ```text
//! cargo run --release --example channel_playground
//! ```

use rica_repro::channel::{
    ChannelClass, ChannelConfig, ChannelModel, FADE_TAU_S, SHADOW_TAU_S, TX_RANGE_M,
};
use rica_repro::mobility::Vec2;
use rica_repro::sim::{Rng, SimTime};

fn trace(model: &mut ChannelModel, pair: u32, d: f64, secs: usize) -> Vec<ChannelClass> {
    (0..secs)
        .map(|s| {
            model
                .class_between(
                    pair * 2,
                    pair * 2 + 1,
                    Vec2::new(0.0, pair as f64 * 300.0),
                    Vec2::new(d, pair as f64 * 300.0),
                    SimTime::from_secs_f64(s as f64),
                )
                .expect("within range")
        })
        .collect()
}

fn render(label: &str, classes: &[ChannelClass]) {
    let line: String = classes
        .iter()
        .map(|c| match c {
            ChannelClass::A => '█',
            ChannelClass::B => '▓',
            ChannelClass::C => '▒',
            ChannelClass::D => '░',
        })
        .collect();
    let a = classes.iter().filter(|&&c| c == ChannelClass::A).count();
    let d = classes.iter().filter(|&&c| c == ChannelClass::D).count();
    println!("{label:<18} {line}  (A {a:>2}%, D {d:>2}%)");
}

fn main() {
    let cfg = ChannelConfig::default();
    println!("ABICM classes: █ = A (250 kbps)  ▓ = B (150)  ▒ = C (75)  ░ = D (50)");
    println!("one character per second, 100 seconds, defaults: {TX_RANGE_M:.0} m range,");
    println!(
        "shadowing σ {} dB / τ {SHADOW_TAU_S} s, fading σ {} dB / τ {FADE_TAU_S} s\n",
        cfg.shadow_sigma_db, cfg.fade_sigma_db
    );

    let mut model = ChannelModel::new(cfg, Rng::new(2026));
    render("  40 m apart", &trace(&mut model, 0, 40.0, 100));
    render(" 110 m apart", &trace(&mut model, 1, 110.0, 100));
    render(" 230 m apart", &trace(&mut model, 2, 230.0, 100));

    println!("\nThe medium link hops between all four classes on ~second timescales —");
    println!("exactly the dynamics RICA's 1 s CSI checking period is built to track.");
}
