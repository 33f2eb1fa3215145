//! # rica-traffic — declarative workload generation
//!
//! The paper evaluates every protocol under a single traffic shape:
//! fixed-rate Poisson flows of fixed-size packets (§III.A). Related MANET
//! studies show workload shape materially changes protocol rankings, so
//! this crate opens that axis: a [`WorkloadSpec`] crosses an *arrival
//! process* ([`ArrivalSpec`]: CBR, Poisson, on/off bursts with
//! exponential or Pareto dwells, weighted mixes) with a *packet-size
//! distribution* ([`SizeSpec`]: fixed, uniform, small-ack/large-data
//! bimodal, truncated Pareto), and [`WorkloadSpec::build`] instantiates
//! it as a stateful per-flow [`FlowTraffic`] that owns the flow's
//! seed-forked RNG and yields `(next gap, packet size)` pairs.
//!
//! Three properties are load-bearing:
//!
//! * **Determinism** — a flow's packet stream is a pure function of
//!   `(seed, flow index, spec)`; sweeps through `rica-exec` stay
//!   bit-identical for any worker count.
//! * **Default transparency** — the default spec (Poisson + fixed size)
//!   reproduces the legacy harness stream *bit for bit*, so every golden
//!   fixed-seed metric pinned before this crate existed stays valid.
//! * **Equal mean offered load** — every arrival variant preserves the
//!   flow's configured mean rate (bursty flows raise their burst rate to
//!   compensate for silence), so workloads are comparable apples-to-apples.
//!
//! ```
//! use rica_sim::Rng;
//! use rica_traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};
//!
//! let spec = WorkloadSpec {
//!     arrival: ArrivalSpec::OnOffBurst {
//!         on_mean_secs: 0.5,
//!         off_mean_secs: 1.5,
//!         dwell: Dwell::Exponential,
//!     },
//!     size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
//! };
//! spec.validate().unwrap();
//! let mut flow = spec.build(10.0, 512, Rng::new(1)); // 10 pkt/s mean
//! let bytes = flow.packet_bytes();
//! assert!(bytes == 40 || bytes == 1460);
//! assert!(flow.next_gap().as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]

mod model;
mod spec;

pub use model::{FlowTraffic, SATURATED_GAP};
pub use spec::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};
