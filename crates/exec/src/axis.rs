//! Sweep axes: the dimensions a plan adds to the paper's grid.
//!
//! The paper sweeps protocols × speeds (§III). A `SweepPlan` also sweeps
//! node counts and three *sweep axes* — workload, channel fidelity and
//! fault plan — each a `Vec` of entries whose type implements [`Axis`].
//! The trait is the one place that says how an axis is keyed, labelled,
//! defaulted and hashed; `SweepPlan::axes` lists the axes in cell order,
//! and every encoding (the content hash, the artifact's plan block and
//! cell names, the adaptive report) walks that list.

use rica_channel::ChannelFidelity;
use rica_faults::FaultPlan;
use rica_traffic::WorkloadSpec;

/// The entry type of one sweep axis.
///
/// A plan starts each axis as the single entry `Default::default()`,
/// which [`Axis::is_default`] accepts. Artifacts name an axis (plan
/// array and per-cell entry) only when a plan *widens* it past one
/// default entry.
pub trait Axis: Default {
    /// Key of the plan-level array of entry labels (`"workloads"`).
    const PLAN_KEY: &'static str;
    /// Key of one cell's entry label (`"workload"`).
    const CELL_KEY: &'static str;
    /// Whether [`SweepPlan::content_hash`](crate::SweepPlan::content_hash)
    /// spells the axis out even when it is not widened. Frozen per axis:
    /// axes that existed when the hash was introduced always appear in
    /// it, later ones only when widened, so older plans keep their pinned
    /// hashes.
    const HASHES_DEFAULT: bool;

    /// Whether this entry is the axis default.
    fn is_default(&self) -> bool;

    /// The entry's label in artifacts and in the content hash.
    fn label(&self) -> String;
}

impl Axis for WorkloadSpec {
    const PLAN_KEY: &'static str = "workloads";
    const CELL_KEY: &'static str = "workload";
    const HASHES_DEFAULT: bool = true;

    fn is_default(&self) -> bool {
        self.is_paper_default()
    }

    fn label(&self) -> String {
        WorkloadSpec::label(self)
    }
}

impl Axis for ChannelFidelity {
    const PLAN_KEY: &'static str = "fidelities";
    const CELL_KEY: &'static str = "fidelity";
    const HASHES_DEFAULT: bool = true;

    fn is_default(&self) -> bool {
        *self == ChannelFidelity::Exact
    }

    fn label(&self) -> String {
        self.name().to_string()
    }
}

impl Axis for FaultPlan {
    const PLAN_KEY: &'static str = "faults";
    const CELL_KEY: &'static str = "faults";
    const HASHES_DEFAULT: bool = false;

    fn is_default(&self) -> bool {
        self.is_empty()
    }

    fn label(&self) -> String {
        FaultPlan::label(self)
    }
}

/// One axis of a plan with its entry type erased, so a plan can list
/// axes of different entry types in one array.
pub(crate) trait DynAxis {
    fn plan_key(&self) -> &'static str;
    fn cell_key(&self) -> &'static str;
    fn entries(&self) -> usize;
    fn label(&self, entry: usize) -> String;
    /// Anything but the single default entry.
    fn widened(&self) -> bool;
    /// Whether the content hash encodes the axis.
    fn hashed(&self) -> bool;
}

impl<A: Axis> DynAxis for Vec<A> {
    fn plan_key(&self) -> &'static str {
        A::PLAN_KEY
    }

    fn cell_key(&self) -> &'static str {
        A::CELL_KEY
    }

    fn entries(&self) -> usize {
        self.len()
    }

    fn label(&self, entry: usize) -> String {
        self[entry].label()
    }

    fn widened(&self) -> bool {
        self.len() != 1 || !self[0].is_default()
    }

    fn hashed(&self) -> bool {
        A::HASHES_DEFAULT || self.widened()
    }
}
