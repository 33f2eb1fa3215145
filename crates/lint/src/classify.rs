//! Crate/path classification: which lint regime a file falls under.
//!
//! **Sim-deterministic** code is everything that executes inside (or
//! produces the artifacts of) a simulation trial: iteration order,
//! wall-clock reads and seed provenance there are correctness bugs, not
//! style. **Host-side** code observes simulations from outside — bench
//! harnesses, dev-dependency shims, CLI binaries, integration tests —
//! where wall clocks and hash maps are fine.
//!
//! Unknown crates default to **sim-deterministic** (fail closed): a new
//! crate must opt *out* by being added to [`HOST_SIDE_CRATES`], not
//! opt in.

use std::path::Path;

/// The lint regime of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Determinism rules apply in full.
    SimDeterministic,
    /// Only universal rules (e.g. `unsafe-undocumented`) apply.
    HostSide,
}

/// Crates that never execute inside a simulation trial.
pub const HOST_SIDE_CRATES: &[&str] = &["bench", "proptest-shim", "lint"];

/// Sim-deterministic crates (documentation of the current split; any
/// crate *not* in [`HOST_SIDE_CRATES`] gets the same treatment).
pub const SIM_DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "sim",
    "channel",
    "mac",
    "net",
    "mobility",
    "protocols",
    "harness",
    "traffic",
    "faults",
    "metrics",
    "trace",
    "exec",
    "fleet",
];

/// Classifies a workspace-relative path.
///
/// Within any crate, `tests/`, `benches/`, `examples/` and `src/bin/`
/// are host-side (integration tests and binaries drive simulations from
/// outside). In-crate `#[cfg(test)]` modules are **not** exempt: unit
/// tests share the crate's source files and the same hazards (an
/// order-dependent assertion is still a flaky test), so they carry
/// allow-annotations instead.
pub fn classify(rel_path: &Path) -> CrateClass {
    let comps: Vec<&str> = rel_path.iter().filter_map(|c| c.to_str()).collect();
    match comps.as_slice() {
        ["crates", name, rest @ ..] => {
            if HOST_SIDE_CRATES.contains(name) {
                return CrateClass::HostSide;
            }
            match rest {
                ["tests", ..] | ["benches", ..] | ["examples", ..] => CrateClass::HostSide,
                ["src", "bin", ..] => CrateClass::HostSide,
                _ => CrateClass::SimDeterministic,
            }
        }
        // Workspace root: the facade lib is sim-deterministic; root
        // integration tests / examples / tools are host-side.
        ["src", ..] => CrateClass::SimDeterministic,
        _ => CrateClass::HostSide,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_crate_sources_are_deterministic() {
        for p in [
            "crates/sim/src/rng.rs",
            "crates/harness/src/world.rs",
            "crates/fleet/src/lib.rs",
            "src/lib.rs",
            "crates/brand-new-crate/src/lib.rs", // fail closed
        ] {
            assert_eq!(classify(Path::new(p)), CrateClass::SimDeterministic, "{p}");
        }
    }

    #[test]
    fn host_side_paths() {
        for p in [
            "crates/bench/src/bin/hotloop.rs",
            "crates/proptest-shim/src/lib.rs",
            "crates/lint/src/classify.rs",
            "crates/lint/src/main.rs",
            "crates/harness/src/bin/inspect.rs",
            "crates/fleet/src/bin/fleet.rs",
            "crates/protocols/tests/behavior.rs",
            "tests/golden_metrics.rs",
            "examples/fleet_sweep.rs",
        ] {
            assert_eq!(classify(Path::new(p)), CrateClass::HostSide, "{p}");
        }
    }
}
