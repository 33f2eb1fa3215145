//! The paper's motivating workload (§I): "a network consisting of personal
//! digital assistants, notebook computers, and cell phones is formed in an
//! ad hoc manner to perform file swapping".
//!
//! Two pairs of devices swap a 1 MiB file each across a 30-terminal mobile
//! network; we compare how long the transfer takes (effective goodput)
//! under RICA vs AODV.
//!
//! ```text
//! cargo run --release --example file_swapping
//! ```

use rica_repro::harness::{Flow, ProtocolKind, Scenario};
use rica_repro::net::{NodeId, DATA_PAYLOAD_BYTES};

const FILE_BYTES: u64 = 1 << 20; // 1 MiB per direction

fn main() {
    // Two bidirectional swaps: (3 ⇄ 27) and (11 ⇄ 40), each direction a
    // 20 pkt/s stream of 512-byte chunks.
    let flows = vec![
        Flow::new(NodeId(3), NodeId(27), 20.0),
        Flow::new(NodeId(27), NodeId(3), 20.0),
        Flow::new(NodeId(11), NodeId(40), 20.0),
        Flow::new(NodeId(40), NodeId(11), 20.0),
    ];
    let packets_needed = FILE_BYTES / u64::from(DATA_PAYLOAD_BYTES);

    println!("file swap: 4 unidirectional streams, {FILE_BYTES} bytes each");
    println!("({packets_needed} packets of {DATA_PAYLOAD_BYTES} B per stream)\n");

    for kind in [ProtocolKind::Rica, ProtocolKind::Aodv] {
        let scenario = Scenario::builder()
            .nodes(45)
            .explicit_flows(flows.clone())
            .mean_speed_kmh(10.0) // people walking around a room/campus
            .duration_secs(180.0)
            .seed(12)
            .build();
        let report = scenario.run(kind);
        let delivered_bytes = report.delivered * u64::from(DATA_PAYLOAD_BYTES);
        let per_stream = delivered_bytes as f64 / flows.len() as f64;
        let goodput_kbps = per_stream * 8.0 / 180.0 / 1e3;
        let eta_secs = FILE_BYTES as f64 / (per_stream / 180.0);
        println!("{:<6} delivered {:>5.1}% of chunks | goodput {:>6.1} kbps/stream | est. transfer {:>6.0} s | delay {:>5.0} ms",
            kind.name(),
            report.delivery_pct(),
            goodput_kbps,
            eta_secs,
            report.delay_mean_ms,
        );
    }
    println!("\nChannel-adaptive routing sustains higher goodput on the same radios —");
    println!("the point of the paper's introduction.");
}
