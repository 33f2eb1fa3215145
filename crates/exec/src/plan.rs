//! Declarative sweep plans and their execution results.

use rica_channel::ChannelFidelity;
use rica_faults::FaultPlan;
use rica_metrics::{Aggregate, TrialSummary};
use rica_traffic::WorkloadSpec;

use crate::axis::DynAxis;
use crate::pool::{dispatch, effective_workers, ExecOptions};

/// A declarative experiment grid: protocols × speeds × node counts ×
/// the sweep axes (workloads × fidelities × fault plans), with `trials`
/// seeded repetitions per cell.
///
/// The plan is pure data; [`SweepPlan::jobs`] derives the flat job grid
/// (with per-trial seeds) and [`SweepPlan::run`] executes it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan<P> {
    /// The protocol axis (any label type; the runner interprets it).
    pub protocols: Vec<P>,
    /// The mean-speed axis (km/h).
    pub speeds_kmh: Vec<f64>,
    /// The node-count axis.
    pub node_counts: Vec<usize>,
    /// The workload axis ([`SweepPlan::new`] defaults it to the single
    /// paper workload; widen it with [`SweepPlan::with_workloads`]).
    /// Jobs reference entries by index ([`TrialJob::workload`]).
    pub workloads: Vec<WorkloadSpec>,
    /// The channel-fidelity axis ([`SweepPlan::new`] defaults it to
    /// `[Exact]`; widen it with [`SweepPlan::with_fidelities`] to compare
    /// tiers under common random numbers in one artifact).
    pub fidelities: Vec<ChannelFidelity>,
    /// The fault-injection axis ([`SweepPlan::new`] defaults it to the
    /// single empty plan — no faults; widen it with
    /// [`SweepPlan::with_faults`] to compare fault regimes under common
    /// random numbers). Jobs reference entries by index
    /// ([`TrialJob::faults`]).
    pub faults: Vec<FaultPlan>,
    /// Seeded repetitions per grid cell.
    pub trials: usize,
    /// Base seed; trial `i` of every cell runs with `base_seed + i`, so
    /// all cells share common random numbers across the protocol axis
    /// (paired comparison, as the paper's 25-trial averages do).
    pub base_seed: u64,
}

/// One executable unit: a single seeded trial of a single grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialJob<P> {
    /// Flat job index (plan order; stable across worker counts).
    pub index: usize,
    /// Index of the owning grid cell in plan order.
    pub cell: usize,
    /// Protocol label of the cell.
    pub protocol: P,
    /// Mean speed (km/h) of the cell.
    pub speed_kmh: f64,
    /// Node count of the cell.
    pub nodes: usize,
    /// Index into [`SweepPlan::workloads`] (kept as an index so the job
    /// stays `Copy`; resolve it against the plan).
    pub workload: usize,
    /// Channel fidelity tier of the cell (already `Copy`, so carried by
    /// value rather than by index).
    pub fidelity: ChannelFidelity,
    /// Index into [`SweepPlan::faults`] (kept as an index so the job
    /// stays `Copy`; resolve it against the plan).
    pub faults: usize,
    /// Trial number within the cell (`0..trials`).
    pub trial: usize,
    /// Derived seed for this trial — a pure function of the plan.
    pub seed: u64,
}

/// One grid cell after execution: the per-trial summaries (in trial
/// order) and their aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell<P> {
    /// Protocol label.
    pub protocol: P,
    /// Mean speed (km/h).
    pub speed_kmh: f64,
    /// Node count.
    pub nodes: usize,
    /// The workload the cell ran under.
    pub workload: WorkloadSpec,
    /// The channel fidelity tier the cell ran under.
    pub fidelity: ChannelFidelity,
    /// The fault plan the cell ran under (empty for fault-free cells).
    pub faults: FaultPlan,
    /// Per-trial summaries, in trial order (deterministic).
    pub trials: Vec<TrialSummary>,
    /// Cross-trial aggregate, folded in trial order.
    pub aggregate: Aggregate,
}

/// The executed sweep: every cell in plan order plus execution metadata.
#[derive(Debug, Clone)]
pub struct SweepResult<P> {
    /// The plan that produced this result.
    pub plan: SweepPlan<P>,
    /// Cells in plan order (protocol-major, then speed, then nodes, then
    /// the sweep axes).
    pub cells: Vec<SweepCell<P>>,
    /// Worker threads actually used (never more than the job count).
    pub workers: usize,
    /// Wall-clock execution time in seconds (informational; not part of
    /// the deterministic payload).
    pub wall_secs: f64,
}

impl<P: Copy> SweepPlan<P> {
    /// Builds a plan; every axis must be non-empty and `trials > 0`.
    pub fn new(
        protocols: Vec<P>,
        speeds_kmh: Vec<f64>,
        node_counts: Vec<usize>,
        trials: usize,
        base_seed: u64,
    ) -> SweepPlan<P> {
        let plan = SweepPlan {
            protocols,
            speeds_kmh,
            node_counts,
            workloads: vec![WorkloadSpec::default()],
            fidelities: vec![ChannelFidelity::default()],
            faults: vec![FaultPlan::default()],
            trials,
            base_seed,
        };
        assert!(plan.cell_count() > 0, "sweep plan has an empty axis");
        assert!(plan.trials > 0, "sweep plan needs at least one trial per cell");
        plan
    }

    /// Replaces the workload axis (a first-class sweep dimension: every
    /// `(protocol, speed, nodes)` cell is repeated once per workload).
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or any spec fails validation.
    pub fn with_workloads(mut self, workloads: Vec<WorkloadSpec>) -> SweepPlan<P> {
        assert!(!workloads.is_empty(), "sweep plan has an empty axis");
        for w in &workloads {
            w.validate().expect("invalid workload spec in sweep axis");
        }
        self.workloads = workloads;
        self
    }

    /// Replaces the channel-fidelity axis (a first-class sweep dimension:
    /// every `(protocol, speed, nodes, workload)` cell is repeated once
    /// per tier, under common random numbers — paired comparison across
    /// tiers, exactly like the protocol axis).
    ///
    /// # Panics
    ///
    /// Panics if `fidelities` is empty.
    pub fn with_fidelities(mut self, fidelities: Vec<ChannelFidelity>) -> SweepPlan<P> {
        assert!(!fidelities.is_empty(), "sweep plan has an empty axis");
        self.fidelities = fidelities;
        self
    }

    /// Replaces the fault-injection axis (a first-class sweep dimension:
    /// every `(protocol, speed, nodes, workload, fidelity)` cell is
    /// repeated once per fault plan, under common random numbers — the
    /// fault-free baseline and the faulted regimes are paired trial by
    /// trial). Plans are validated against each node count lazily when
    /// the runner builds the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `faults` is empty.
    pub fn with_faults(mut self, faults: Vec<FaultPlan>) -> SweepPlan<P> {
        assert!(!faults.is_empty(), "sweep plan has an empty axis");
        self.faults = faults;
        self
    }

    /// Derives the flat job grid, protocol-major then speed then nodes
    /// then workload then fidelity then fault plan then trial. Job order
    /// — and every seed in it — is a pure function of the plan, which is
    /// what makes execution results independent of scheduling.
    pub fn jobs(&self) -> Vec<TrialJob<P>> {
        (0..self.job_count()).map(|i| self.job_at(i)).collect()
    }

    /// Trial `trial` of grid cell `cell` (plan order) — the job
    /// constructor [`SweepPlan::job_at`] and every runner build their jobs
    /// with. `trial` may exceed the plan's `trials` (adaptive runs grow
    /// cells past it); `index` is then not a grid index.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= self.cell_count()`.
    pub fn job(&self, cell: usize, trial: usize) -> TrialJob<P> {
        let [protocol, speed, nodes, workload, fidelity, faults] = self.coords(cell);
        TrialJob {
            index: cell * self.trials + trial,
            cell,
            protocol: self.protocols[protocol],
            speed_kmh: self.speeds_kmh[speed],
            nodes: self.node_counts[nodes],
            workload,
            fidelity: self.fidelities[fidelity],
            faults,
            trial,
            seed: self.base_seed + trial as u64,
        }
    }

    /// The job at flat index `index` of the grid — identical to
    /// `self.jobs()[index]` but O(1), so a fleet pass can derive its
    /// shards' jobs of a million-job plan without materialising the rest
    /// (seeds included: they are a pure function of the plan, so any
    /// shard assignment reproduces the exact single-shot trial stream).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.job_count()`.
    pub fn job_at(&self, index: usize) -> TrialJob<P> {
        assert!(index < self.job_count(), "job {index} out of range ({})", self.job_count());
        self.job(index / self.trials, index % self.trials)
    }

    /// Assembles one summary per job, in job order, into the plan's
    /// cells, each folding its trials into its aggregate — how
    /// [`SweepPlan::run`] and a fleet merge both build cells, so their
    /// results agree.
    ///
    /// # Panics
    ///
    /// Panics if `summaries.len() != self.job_count()`.
    pub fn cells(&self, summaries: Vec<TrialSummary>) -> Vec<SweepCell<P>> {
        assert_eq!(summaries.len(), self.job_count(), "one summary per job");
        let mut summaries = summaries.into_iter();
        (0..self.cell_count())
            .map(|cell| {
                let job = self.job(cell, 0);
                let trials: Vec<TrialSummary> = summaries.by_ref().take(self.trials).collect();
                SweepCell {
                    protocol: job.protocol,
                    speed_kmh: job.speed_kmh,
                    nodes: job.nodes,
                    workload: self.workloads[job.workload].clone(),
                    fidelity: job.fidelity,
                    faults: self.faults[job.faults].clone(),
                    aggregate: Aggregate::from_trials(&trials),
                    trials,
                }
            })
            .collect()
    }

    /// Executes the plan: fans the job grid out over `opts.workers`
    /// threads, then reassembles cells in plan order.
    ///
    /// `runner` executes one trial; it must be a pure function of the job
    /// (same job → same summary) for the determinism guarantee to hold.
    pub fn run<F>(&self, opts: &ExecOptions, runner: F) -> SweepResult<P>
    where
        P: Send + Sync,
        F: Fn(&TrialJob<P>) -> TrialSummary + Sync,
    {
        #[expect(
            clippy::disallowed_types,
            reason = "diagnostics-only: wall_secs reports sweep wall time in artifact meta; fleet merges normalise it and no sim state ever reads it"
        )]
        let t0 = std::time::Instant::now();
        let mut summaries = Vec::with_capacity(self.job_count());
        let Ok(()) = self.stream(
            self.job_count(),
            |i| self.job_at(i),
            opts,
            &runner,
            |_, s| {
                summaries.push(s);
                Ok::<(), std::convert::Infallible>(())
            },
        );
        SweepResult {
            plan: self.clone(),
            cells: self.cells(summaries),
            workers: effective_workers(opts.workers, self.job_count()),
            wall_secs: t0.elapsed().as_secs_f64(),
        }
    }

    /// Runs `total` of the plan's jobs, `job(i)` being the `i`-th, on the
    /// shared dispatcher and hands each job with its summary to `commit`
    /// in `i` order on the calling thread — the one path
    /// [`SweepPlan::run`], adaptive rounds and fleet passes execute
    /// through.
    ///
    /// A job's cost group is its protocol index: the plan's slowest axis,
    /// and the one trial costs split on (a link-state trial pops several
    /// times the events of an on-demand one). After one probe per
    /// protocol, a free worker takes a job of the protocol with the
    /// longest mean measured trial time, looking at most 64 jobs past the
    /// oldest unfinished one, so at most `64 + workers` summaries wait for
    /// `commit`. Run times decide only when a job starts, never what
    /// `commit` receives; with one worker, jobs run inline in order and
    /// no clock is read.
    ///
    /// # Errors
    ///
    /// Returns the first error `commit` returns; no job starts after it.
    pub fn stream<E>(
        &self,
        total: usize,
        job: impl Fn(usize) -> TrialJob<P> + Sync,
        opts: &ExecOptions,
        runner: &(impl Fn(&TrialJob<P>) -> TrialSummary + Sync),
        mut commit: impl FnMut(TrialJob<P>, TrialSummary) -> Result<(), E>,
    ) -> Result<(), E> {
        let protocol = |i| self.coords(job(i).cell)[0];
        dispatch(total, protocol, opts, &|i| runner(&job(i)), |i, s| commit(job(i), s))
    }
}

impl<P> SweepPlan<P> {
    /// The sweep axes in cell order (outermost first): the one list the
    /// grid decode, the content hash and the artifacts walk. A new axis
    /// is appended here.
    pub(crate) fn axes(&self) -> [&dyn DynAxis; 3] {
        [&self.workloads, &self.fidelities, &self.faults]
    }

    /// Entries per grid dimension, outermost first: protocols, speeds,
    /// node counts, then the sweep axes.
    fn dims(&self) -> [usize; 6] {
        let [workloads, fidelities, faults] = self.axes().map(|a| a.entries());
        let (protocols, speeds) = (self.protocols.len(), self.speeds_kmh.len());
        [protocols, speeds, self.node_counts.len(), workloads, fidelities, faults]
    }

    /// Cell `cell`'s entry index on every grid dimension, in `dims`
    /// order (mixed radix, innermost dimension fastest): the grid's one
    /// decode.
    fn coords(&self, cell: usize) -> [usize; 6] {
        assert!(cell < self.cell_count(), "cell {cell} out of range ({})", self.cell_count());
        let mut rest = cell;
        let mut coords = [0; 6];
        for (coord, len) in coords.iter_mut().zip(self.dims()).rev() {
            *coord = rest % len;
            rest /= len;
        }
        coords
    }

    /// Number of grid cells (protocols × speeds × node counts × workloads
    /// × fidelities × fault plans).
    pub fn cell_count(&self) -> usize {
        self.dims().iter().product()
    }

    /// Total number of jobs (cells × trials).
    pub fn job_count(&self) -> usize {
        self.cell_count() * self.trials
    }

    /// `(key, label)` of cell `cell`'s entry on every *widened* sweep
    /// axis, in axis order — how artifacts name a cell's axes. An axis
    /// still at its single default entry is not named, which keeps
    /// artifacts from before the axis existed byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= self.cell_count()`.
    pub fn cell_labels(&self, cell: usize) -> Vec<(&'static str, String)> {
        let coords = self.coords(cell);
        self.axes()
            .into_iter()
            .zip(&coords[3..])
            .filter(|(axis, _)| axis.widened())
            .map(|(axis, &entry)| (axis.cell_key(), axis.label(entry)))
            .collect()
    }

    /// A stable content hash of everything that determines the plan's
    /// results: protocol labels (via `label`), speeds (exact f64 bits),
    /// node counts, trials, base seed and the sweep axes' entry labels.
    ///
    /// Shard manifests and fleet artifacts stamp this hash so a resumed
    /// sweep can prove its shard files came from the same plan; the
    /// pinned-value test in `tests/fleet.rs` catches accidental
    /// plan-schema drift. Each sweep axis contributes a
    /// `;<plan key>|<label>|…` segment, in axis order; an axis whose
    /// [`Axis::HASHES_DEFAULT`](crate::Axis::HASHES_DEFAULT) is false
    /// contributes only when widened, so plans from before that axis
    /// keep their pinned hashes (the encoding stays injective: the
    /// segment's key is unique).
    pub fn content_hash(&self, label: impl Fn(&P) -> String) -> u64 {
        use std::fmt::Write as _;
        let mut enc = String::from("rica-sweep-plan-v1;protocols");
        for p in &self.protocols {
            let _ = write!(enc, "|{}", label(p));
        }
        enc.push_str(";speeds");
        for v in &self.speeds_kmh {
            let _ = write!(enc, "|{:016x}", v.to_bits());
        }
        enc.push_str(";nodes");
        for n in &self.node_counts {
            let _ = write!(enc, "|{n}");
        }
        let _ = write!(enc, ";trials|{};seed|{}", self.trials, self.base_seed);
        for axis in self.axes().into_iter().filter(|a| a.hashed()) {
            let _ = write!(enc, ";{}", axis.plan_key());
            for entry in 0..axis.entries() {
                let _ = write!(enc, "|{}", axis.label(entry));
            }
        }
        fnv1a(enc.as_bytes())
    }
}

/// FNV-1a over raw bytes — the workspace's standard content hash (the
/// golden tests pin the same function over Debug renderings).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl<P: Copy + PartialEq> SweepResult<P> {
    /// All cells for one protocol, in plan (speed-major) order.
    pub fn cells_for(&self, protocol: P) -> Vec<&SweepCell<P>> {
        self.cells.iter().filter(|c| c.protocol == protocol).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_metrics::Metrics;
    use rica_sim::SimDuration;

    fn toy_runner(job: &TrialJob<u8>) -> TrialSummary {
        let mut m = Metrics::new();
        let n = (job.seed % 5) + job.trial as u64 + job.protocol as u64;
        for _ in 0..n {
            m.on_generated();
        }
        m.finish(SimDuration::from_secs(1))
    }

    #[test]
    fn job_grid_shape_and_seeds() {
        let plan = SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0, 72.0], vec![10, 50], 4, 100);
        assert_eq!(plan.cell_count(), 12);
        assert_eq!(plan.job_count(), 48);
        let jobs = plan.jobs();
        assert_eq!(jobs.len(), 48);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
            assert_eq!(j.seed, 100 + j.trial as u64);
            assert_eq!(j.cell, i / 4);
        }
        // Protocol-major order: first half is protocol 1.
        assert!(jobs[..24].iter().all(|j| j.protocol == 1));
        assert!(jobs[24..].iter().all(|j| j.protocol == 2));
    }

    #[test]
    fn run_reassembles_in_plan_order() {
        let plan = SweepPlan::new(vec![3u8, 9], vec![0.0], vec![5], 2, 7);
        let r = plan.run(&ExecOptions::serial(), toy_runner);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.cells[0].protocol, 3);
        assert_eq!(r.cells[1].protocol, 9);
        for cell in &r.cells {
            assert_eq!(cell.trials.len(), 2);
            assert_eq!(cell.aggregate.trials, 2);
        }
    }

    #[test]
    fn cell_lookup() {
        let plan = SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0], vec![5], 1, 0);
        let r = plan.run(&ExecOptions::serial(), toy_runner);
        let speeds: Vec<f64> = r.cells_for(2).iter().map(|c| c.speed_kmh).collect();
        assert_eq!(speeds, vec![0.0, 36.0]);
    }

    #[test]
    #[should_panic(expected = "empty axis")]
    fn empty_axis_panics() {
        SweepPlan::<u8>::new(vec![], vec![0.0], vec![5], 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        SweepPlan::new(vec![1u8], vec![0.0], vec![5], 0, 0);
    }

    #[test]
    fn job_at_matches_materialised_grid() {
        use rica_traffic::{ArrivalSpec, SizeSpec, WorkloadSpec};
        let plan = SweepPlan::new(vec![1u8, 2, 3], vec![0.0, 36.0], vec![10, 50], 3, 100)
            .with_workloads(vec![
                WorkloadSpec::default(),
                WorkloadSpec { arrival: ArrivalSpec::Cbr, size: SizeSpec::Fixed },
            ])
            .with_fidelities(vec![ChannelFidelity::Exact, ChannelFidelity::Approx])
            .with_faults(vec![FaultPlan::none(), FaultPlan::none().with_churn(40.0, 8.0, 10.0)]);
        let jobs = plan.jobs();
        assert_eq!(jobs.len(), plan.job_count());
        for (i, want) in jobs.iter().enumerate() {
            assert_eq!(plan.job_at(i), *want, "job_at({i}) diverged from jobs()");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn job_at_rejects_out_of_range() {
        let plan = SweepPlan::new(vec![1u8], vec![0.0], vec![5], 2, 0);
        let _ = plan.job_at(2);
    }

    #[test]
    fn content_hash_tracks_every_axis() {
        let base = SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0], vec![10], 4, 100);
        let label = |p: &u8| format!("P{p}");
        let h = base.content_hash(label);
        // Every results-relevant axis moves the hash.
        let mut speeds = base.clone();
        speeds.speeds_kmh[1] = 37.0;
        assert_ne!(speeds.content_hash(label), h);
        let mut trials = base.clone();
        trials.trials = 5;
        assert_ne!(trials.content_hash(label), h);
        let mut seed = base.clone();
        seed.base_seed = 101;
        assert_ne!(seed.content_hash(label), h);
        let widened =
            base.clone().with_fidelities(vec![ChannelFidelity::Exact, ChannelFidelity::Approx]);
        assert_ne!(widened.content_hash(label), h);
        // A widened fault axis moves the hash; the default axis does not
        // (legacy plans keep their pinned pre-fault hash values).
        let faulted = base.clone().with_faults(vec![
            FaultPlan::none(),
            FaultPlan::none().with_crash(rica_faults::NodeId(3), 100.0, None),
        ]);
        assert_ne!(faulted.content_hash(label), h);
        assert_eq!(base.clone().with_faults(vec![FaultPlan::none()]).content_hash(label), h);
        // And the label function matters (protocol identity).
        assert_ne!(base.content_hash(|p| format!("Q{p}")), h);
    }

    #[test]
    fn sweep_axes_multiply_the_grid() {
        use rica_traffic::{ArrivalSpec, SizeSpec, WorkloadSpec};
        let workloads = vec![
            WorkloadSpec::default(),
            WorkloadSpec { arrival: ArrivalSpec::Cbr, size: SizeSpec::Fixed },
        ];
        let fidelities = vec![ChannelFidelity::Exact, ChannelFidelity::Approx];
        let faults = vec![FaultPlan::none(), FaultPlan::none().with_churn(40.0, 8.0, 10.0)];
        let plan = SweepPlan::new(vec![1u8], vec![0.0], vec![5], 2, 9)
            .with_workloads(workloads.clone())
            .with_fidelities(fidelities.clone())
            .with_faults(faults.clone());
        assert!(plan.axes().iter().all(|a| a.widened()));
        assert_eq!(plan.cell_count(), 8);
        assert_eq!(plan.job_count(), 16);
        // Workload-major, then fidelity, then fault plan, then trial.
        let jobs = plan.jobs();
        for (i, j) in jobs.iter().enumerate() {
            let want = (i / 8, fidelities[i / 4 % 2], i / 2 % 2, i % 2);
            assert_eq!((j.workload, j.fidelity, j.faults, j.trial), want, "job {i}");
        }
        // Common random numbers along every axis: trial i shares its
        // seed across all entries (paired comparison).
        assert!(jobs.iter().all(|j| j.seed == 9 + j.trial as u64));
        let r = plan.run(&ExecOptions::serial(), toy_runner);
        for (cell, c) in r.cells.iter().enumerate() {
            assert_eq!(c.workload, workloads[cell / 4]);
            assert_eq!(c.fidelity, fidelities[cell / 2 % 2]);
            assert_eq!(c.faults, faults[cell % 2]);
        }
    }

    #[test]
    fn new_plans_widen_no_axis() {
        use rica_traffic::{ArrivalSpec, SizeSpec, WorkloadSpec};
        let plan = SweepPlan::new(vec![1u8], vec![0.0], vec![5], 1, 0);
        assert!(plan.axes().iter().all(|a| !a.widened()));
        let job = plan.jobs()[0];
        assert_eq!((job.workload, job.fidelity, job.faults), (0, ChannelFidelity::Exact, 0));
        // A single *non-default* entry widens its axis: artifacts must
        // name it.
        let widened = [
            plan.clone().with_workloads(vec![WorkloadSpec {
                arrival: ArrivalSpec::Cbr,
                size: SizeSpec::Fixed,
            }]),
            plan.clone().with_fidelities(vec![ChannelFidelity::Approx]),
            plan.clone().with_faults(vec![FaultPlan::none().with_churn(40.0, 8.0, 0.0)]),
        ];
        for (axis, p) in widened.iter().enumerate() {
            let flags: Vec<bool> = p.axes().iter().map(|a| a.widened()).collect();
            assert_eq!(flags, (0..3).map(|i| i == axis).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "empty axis")]
    fn empty_fault_axis_panics() {
        let _ = SweepPlan::new(vec![1u8], vec![0.0], vec![5], 1, 0).with_faults(vec![]);
    }

    #[test]
    #[should_panic(expected = "empty axis")]
    fn empty_fidelity_axis_panics() {
        let _ = SweepPlan::new(vec![1u8], vec![0.0], vec![5], 1, 0).with_fidelities(vec![]);
    }

    #[test]
    #[should_panic(expected = "empty axis")]
    fn empty_workload_axis_panics() {
        let _ = SweepPlan::new(vec![1u8], vec![0.0], vec![5], 1, 0).with_workloads(vec![]);
    }
}
