//! The four benchmark workloads: a template scenario plus the sweep axes
//! of one round.
//!
//! Every workload is a closed batch per round: all of a round's jobs are
//! queued at once and each of the two workers pulls the next trial when
//! its last one finishes. Rounds repeat with fresh seeds (see
//! [`Workload::plan`]) until the run's time is up.

use rica_channel::ChannelFidelity;
use rica_exec::SweepPlan;
use rica_faults::{FaultPlan, NodeGroup};
use rica_harness::{ProtocolKind, Scenario};
use rica_traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper_grid", "dense200", "overload_burst", "churn_partition"];

/// One benchmark workload.
pub struct Workload {
    /// The template every job of the plan overrides with its axes.
    pub base: Scenario,
    protocols: Vec<ProtocolKind>,
    speeds_kmh: Vec<f64>,
    nodes: usize,
    traffic: WorkloadSpec,
    fidelities: Vec<ChannelFidelity>,
    faults: Vec<FaultPlan>,
    /// Trials per cell in one round.
    trials_per_round: usize,
}

impl Workload {
    /// Looks a workload up by name; `smoke` shrinks it to one trial per
    /// cell and 5 simulated seconds.
    pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
        let mut w = match name {
            // The paper's own grid (§III.A): many short, uneven trials, so
            // protocol handlers and per-trial fleet/exec/codec overhead do
            // most of the work.
            "paper_grid" => Workload {
                base: template(50, 10, 10.0, 100.0),
                protocols: ProtocolKind::ALL.to_vec(),
                speeds_kmh: vec![0.0, 18.0, 36.0, 54.0, 72.0],
                nodes: 50,
                traffic: WorkloadSpec::default(),
                fidelities: vec![ChannelFidelity::Exact],
                faults: vec![FaultPlan::none()],
                trials_per_round: 1,
            },
            // 16x the node pairs and 4x the neighbours of the paper grid:
            // channel sampling, spatial-grid fan-out and RREQ floods
            // dominate, on both channel classification paths.
            "dense200" => Workload {
                base: template(200, 20, 10.0, 20.0),
                protocols: vec![ProtocolKind::Rica, ProtocolKind::Aodv],
                speeds_kmh: vec![36.0],
                nodes: 200,
                traffic: WorkloadSpec::default(),
                fidelities: vec![ChannelFidelity::Exact, ChannelFidelity::Approx],
                faults: vec![FaultPlan::none()],
                trials_per_round: 2,
            },
            // The paper grid's MAC, queue and traffic code, saturated:
            // backoff retries, queue drops and the bursty generator work.
            "overload_burst" => Workload {
                base: template(50, 10, 20.0, 250.0),
                protocols: vec![
                    ProtocolKind::Rica,
                    ProtocolKind::Bgca,
                    ProtocolKind::Abr,
                    ProtocolKind::Aodv,
                ],
                speeds_kmh: vec![36.0],
                nodes: 50,
                traffic: WorkloadSpec {
                    arrival: ArrivalSpec::OnOffBurst {
                        on_mean_secs: 0.5,
                        off_mean_secs: 1.5,
                        dwell: Dwell::Exponential,
                    },
                    size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
                },
                fidelities: vec![ChannelFidelity::Exact],
                faults: vec![FaultPlan::none()],
                trials_per_round: 2,
            },
            // The only workload where fault injection and protocol repair
            // (reboot, rediscovery) run.
            "churn_partition" => Workload {
                base: template(50, 10, 10.0, 100.0),
                protocols: ProtocolKind::ALL.to_vec(),
                speeds_kmh: vec![36.0],
                nodes: 50,
                traffic: WorkloadSpec::default(),
                fidelities: vec![ChannelFidelity::Exact],
                faults: vec![
                    FaultPlan::none().with_churn(40.0, 10.0, 5.0),
                    FaultPlan::none().with_partition(30.0, 60.0, NodeGroup::IdBelow(25)),
                ],
                trials_per_round: 1,
            },
            _ => return None,
        };
        if smoke {
            w.base.duration = rica_sim::SimDuration::from_secs(5);
            w.trials_per_round = 1;
        }
        Some(w)
    }

    /// The plan of one round. Round seeds never overlap: trial `i` of
    /// round `r` under run seed `s` uses `s * 2^32 + r * trials + i`.
    pub fn plan(&self, seed: u64, round: usize) -> SweepPlan<ProtocolKind> {
        let base_seed = seed.wrapping_shl(32).wrapping_add((round * self.trials_per_round) as u64);
        SweepPlan::new(
            self.protocols.clone(),
            self.speeds_kmh.clone(),
            vec![self.nodes],
            self.trials_per_round,
            base_seed,
        )
        .with_workloads(vec![self.traffic.clone()])
        .with_fidelities(self.fidelities.clone())
        .with_faults(self.faults.clone())
    }
}

fn template(nodes: usize, flows: usize, rate_pps: f64, secs: f64) -> Scenario {
    Scenario::builder().nodes(nodes).flows(flows).rate_pps(rate_pps).duration_secs(secs).build()
}
