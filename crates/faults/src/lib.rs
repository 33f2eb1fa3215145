//! Declarative, deterministic fault injection.
//!
//! A [`FaultPlan`] composes three schedule families:
//!
//! * **crash–reboot** ([`CrashSpec`]) — a terminal dies at a fixed time,
//!   losing all protocol and queue state, and optionally reboots cold
//!   after a fixed delay (it must re-join routing from nothing);
//! * **churn** ([`ChurnSpec`]) — a per-node renewal process of
//!   exponential up/down cycles on every terminal, seed-forked per node so
//!   churn intensity is a sweepable axis with paired randomness;
//! * **partition-and-heal** ([`PartitionSpec`]) — timed link-level
//!   blackouts between deterministic node groups, enforced in the
//!   channel/medium path so both the MAC and routing see the cut.
//!
//! Plans are *declarative*: nothing here touches a simulator. The
//! harness calls [`FaultPlan::resolve`] once at world construction,
//! turning the plan into a [`FaultSchedule`] of concrete `(time, node)`
//! crash/reboot points and partition episodes, all drawn from RNG
//! streams forked off the trial master seed (stream ids `5_000 + node`,
//! untouched by any other subsystem). An empty plan resolves to an
//! empty schedule and draws **no** randomness, so default trials stay
//! bit-identical to the pre-fault world — the same conditional-axis
//! discipline `rica-traffic` workloads and the channel fidelity tier
//! established.

use rica_sim::{Rng, SimTime};
use std::fmt::Write as _;

pub use rica_net::NodeId;

/// The RNG stream family faults fork from the trial master seed: node
/// `i`'s churn renewal process uses `master.fork(FAULT_STREAM_BASE + i)`.
/// Streams 1/3/1000+/2000+/4000+ belong to the channel, flows, mobility,
/// node and traffic subsystems; 5000+ is reserved for faults.
pub const FAULT_STREAM_BASE: u64 = 5_000;

/// Partition episodes one plan may hold: the world gives each episode
/// one bit of a `u32` partition signature.
const MAX_PARTITIONS: usize = 32;

/// One explicit crash (and optional cold reboot) of a terminal.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// The terminal that crashes.
    pub node: NodeId,
    /// Crash instant (seconds into the trial).
    pub at_secs: f64,
    /// Delay from crash to cold reboot; `None` = the crash is permanent
    /// (the terminal stays dark, and so do flows it sources, to the end of
    /// the trial).
    pub reboot_after_secs: Option<f64>,
}

/// A per-node renewal process of crash/reboot cycles on every terminal:
/// up-times and down-times drawn from independent exponentials, one
/// forked RNG stream per node, so the whole churn history is fixed by the
/// trial seed before the first event fires. Flows sourced at a crashed
/// terminal stop generating and resume at its reboot.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Mean up-time before a crash (seconds, exponential).
    pub mean_up_secs: f64,
    /// Mean down-time before the reboot (seconds, exponential).
    pub mean_down_secs: f64,
    /// Churn starts after this warm-up (seconds; 0 = immediately).
    pub start_secs: f64,
}

/// Which terminals a partition episode separates from the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeGroup {
    /// Terminals with id `< k` form one side, the rest the other — the
    /// cheap deterministic split for sweeps.
    IdBelow(u32),
}

/// One timed link-level blackout: every link crossing the group
/// boundary is cut at `start_secs` and restored at `heal_secs`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Blackout start (seconds).
    pub start_secs: f64,
    /// Heal instant (seconds; must be after the start).
    pub heal_secs: f64,
    /// The separated group.
    pub group: NodeGroup,
}

/// A declarative fault schedule for one scenario.
///
/// The default (empty) plan injects nothing, draws nothing, and keeps
/// every existing golden byte-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Explicit crash (and optional reboot) events.
    pub crashes: Vec<CrashSpec>,
    /// Churn renewal process, if any.
    pub churn: Option<ChurnSpec>,
    /// Partition-and-heal episodes.
    pub partitions: Vec<PartitionSpec>,
}

impl FaultPlan {
    /// The empty plan (no faults; the sweep-axis default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing — the axis default that
    /// keeps artifacts and hashes byte-identical to pre-fault plans.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.churn.is_none() && self.partitions.is_empty()
    }

    /// Adds one explicit crash–reboot event.
    pub fn with_crash(
        mut self,
        node: NodeId,
        at_secs: f64,
        reboot_after_secs: Option<f64>,
    ) -> Self {
        self.crashes.push(CrashSpec { node, at_secs, reboot_after_secs });
        self
    }

    /// Installs a whole-population churn process.
    pub fn with_churn(mut self, mean_up_secs: f64, mean_down_secs: f64, start_secs: f64) -> Self {
        self.churn = Some(ChurnSpec { mean_up_secs, mean_down_secs, start_secs });
        self
    }

    /// Adds one partition-and-heal episode.
    pub fn with_partition(mut self, start_secs: f64, heal_secs: f64, group: NodeGroup) -> Self {
        self.partitions.push(PartitionSpec { start_secs, heal_secs, group });
        self
    }

    /// A compact deterministic label for sweep axes, artifacts and plan
    /// content hashes (e.g. `none`, `churn(up40s,down8s)`,
    /// `crash(n3@10s,reboot+5s)+part(50s..90s,below25)`). Distinct plans
    /// produce distinct labels, which is what lets the label stand in
    /// for the plan in `SweepPlan::content_hash`.
    pub fn label(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            if !out.is_empty() {
                out.push('+');
            }
        };
        for c in &self.crashes {
            sep(&mut out);
            let _ = write!(out, "crash(n{}@{}s", c.node.0, c.at_secs);
            if let Some(after) = c.reboot_after_secs {
                let _ = write!(out, ",reboot+{after}s");
            }
            out.push(')');
        }
        if let Some(ch) = &self.churn {
            sep(&mut out);
            let _ = write!(out, "churn(up{}s,down{}s", ch.mean_up_secs, ch.mean_down_secs);
            if ch.start_secs > 0.0 {
                let _ = write!(out, ",from{}s", ch.start_secs);
            }
            out.push(')');
        }
        for p in &self.partitions {
            sep(&mut out);
            let NodeGroup::IdBelow(k) = p.group;
            let _ = write!(out, "part({}s..{}s,below{k})", p.start_secs, p.heal_secs);
        }
        out
    }

    /// Validates the plan against a scenario's node count, returning a
    /// human-readable complaint if any parameter is out of range.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        for c in &self.crashes {
            if !(c.at_secs.is_finite() && c.at_secs >= 0.0) {
                return Err(format!("bad crash time {}", c.at_secs));
            }
            if c.node.index() >= nodes {
                return Err(format!("crash for unknown node {}", c.node));
            }
            if let Some(after) = c.reboot_after_secs {
                if !(after.is_finite() && after > 0.0) {
                    return Err(format!("reboot delay must be finite and > 0, got {after}"));
                }
            }
        }
        if let Some(ch) = &self.churn {
            for (name, v) in [("up", ch.mean_up_secs), ("down", ch.mean_down_secs)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("churn mean {name}-time must be finite and > 0, got {v}"));
                }
            }
            if !(ch.start_secs.is_finite() && ch.start_secs >= 0.0) {
                return Err(format!("bad churn start {}", ch.start_secs));
            }
        }
        if self.partitions.len() > MAX_PARTITIONS {
            return Err(format!(
                "{} partition episodes, at most {MAX_PARTITIONS} allowed",
                self.partitions.len()
            ));
        }
        for p in &self.partitions {
            if !(p.start_secs.is_finite() && p.start_secs >= 0.0) {
                return Err(format!("bad partition start {}", p.start_secs));
            }
            if !(p.heal_secs.is_finite() && p.heal_secs > p.start_secs) {
                return Err(format!(
                    "partition must heal after it starts, got {}s..{}s",
                    p.start_secs, p.heal_secs
                ));
            }
            let NodeGroup::IdBelow(k) = p.group;
            if k == 0 || k as usize >= nodes {
                return Err(format!(
                    "partition split below {k} leaves an empty side (nodes = {nodes})"
                ));
            }
        }
        Ok(())
    }

    /// Resolves the plan into concrete pre-scheduled fault points for a
    /// trial of `nodes` terminals lasting `duration_secs`, drawing churn
    /// cycles from per-node streams forked off `master` (stream ids
    /// [`FAULT_STREAM_BASE`]` + node`). Events at or beyond the trial end
    /// are discarded here, so the world schedules exactly what can fire.
    ///
    /// An empty plan returns an empty schedule without forking anything.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not [`validate`](FaultPlan::validate).
    pub fn resolve(&self, nodes: usize, duration_secs: f64, master: &Rng) -> FaultSchedule {
        self.validate(nodes).expect("invalid fault plan");
        let mut schedule = FaultSchedule::default();
        if self.is_empty() {
            return schedule;
        }
        for c in &self.crashes {
            if c.at_secs >= duration_secs {
                continue;
            }
            schedule.crashes.push((SimTime::from_secs_f64(c.at_secs), c.node.0));
            if let Some(after) = c.reboot_after_secs {
                let up_at = c.at_secs + after;
                if up_at < duration_secs {
                    schedule.reboots.push((SimTime::from_secs_f64(up_at), c.node.0));
                }
            }
        }
        if let Some(ch) = &self.churn {
            for node in 0..nodes as u32 {
                let mut rng = master.fork(FAULT_STREAM_BASE + node as u64);
                let mut t = ch.start_secs;
                loop {
                    t += rng.exp(ch.mean_up_secs);
                    if t >= duration_secs {
                        break;
                    }
                    schedule.crashes.push((SimTime::from_secs_f64(t), node));
                    t += rng.exp(ch.mean_down_secs);
                    if t >= duration_secs {
                        break;
                    }
                    schedule.reboots.push((SimTime::from_secs_f64(t), node));
                }
            }
        }
        for p in &self.partitions {
            if p.start_secs >= duration_secs {
                continue;
            }
            let NodeGroup::IdBelow(k) = p.group;
            schedule.partitions.push(PartitionEpisode {
                start: SimTime::from_secs_f64(p.start_secs),
                heal: SimTime::from_secs_f64(p.heal_secs.min(duration_secs)),
                group: (0..nodes as u32).map(|i| i < k).collect(),
            });
        }
        schedule
    }
}

/// One resolved partition episode: the blackout window plus per-node
/// group membership (`true` = separated side).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionEpisode {
    /// Blackout start.
    pub start: SimTime,
    /// Heal instant (clamped to the trial end).
    pub heal: SimTime,
    /// `group[i]` — whether node `i` is on the separated side.
    pub group: Vec<bool>,
}

/// A [`FaultPlan`] resolved against one trial: concrete crash/reboot
/// points and partition episodes, ready to schedule as sim events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// `(time, node)` crash points, in plan order (explicit crashes
    /// first, then churn cycles per node).
    pub crashes: Vec<(SimTime, u32)>,
    /// `(time, node)` cold-reboot points.
    pub reboots: Vec<(SimTime, u32)>,
    /// Partition episodes, in plan order.
    pub partitions: Vec<PartitionEpisode>,
}

impl FaultSchedule {
    /// `true` when nothing was scheduled (the plan was empty or every
    /// event fell beyond the trial end).
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.reboots.is_empty() && self.partitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_labels_none() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.label(), "none");
        let schedule = plan.resolve(50, 100.0, &Rng::new(7));
        assert!(schedule.is_empty());
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        let crash = FaultPlan::none().with_crash(NodeId(3), 10.0, Some(5.0));
        assert_eq!(crash.label(), "crash(n3@10s,reboot+5s)");
        let churn = FaultPlan::none().with_churn(40.0, 8.0, 0.0);
        assert_eq!(churn.label(), "churn(up40s,down8s)");
        let part = FaultPlan::none().with_partition(50.0, 90.0, NodeGroup::IdBelow(25));
        assert_eq!(part.label(), "part(50s..90s,below25)");
        let combined = FaultPlan::none()
            .with_crash(NodeId(0), 1.0, None)
            .with_churn(4.0, 1.0, 2.5)
            .with_partition(2.0, 3.0, NodeGroup::IdBelow(2));
        assert_eq!(
            combined.label(),
            "crash(n0@1s)+churn(up4s,down1s,from2.5s)+part(2s..3s,below2)"
        );
    }

    #[test]
    fn resolve_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::none().with_churn(20.0, 5.0, 10.0);
        let a = plan.resolve(10, 200.0, &Rng::new(42));
        let b = plan.resolve(10, 200.0, &Rng::new(42));
        assert_eq!(a, b, "same master seed must yield the same schedule");
        let c = plan.resolve(10, 200.0, &Rng::new(43));
        assert_ne!(a, c, "different seeds must churn differently");
        assert!(!a.crashes.is_empty(), "200 s at mean-up 20 s must produce crashes");
        assert!(!a.reboots.is_empty());
    }

    #[test]
    fn churn_cycles_alternate_within_duration() {
        let plan = FaultPlan::none().with_churn(10.0, 2.0, 0.0);
        let s = plan.resolve(8, 100.0, &Rng::new(1));
        let end = SimTime::from_secs_f64(100.0);
        assert!(s.crashes.iter().chain(&s.reboots).all(|&(t, n)| n < 8 && t < end));
        for node in 0..8 {
            let crashes: Vec<SimTime> =
                s.crashes.iter().filter(|&&(_, n)| n == node).map(|&(t, _)| t).collect();
            let reboots: Vec<SimTime> =
                s.reboots.iter().filter(|&&(_, n)| n == node).map(|&(t, _)| t).collect();
            assert!(!crashes.is_empty(), "node {node}: 100 s at mean-up 10 s must crash");
            // Each reboot follows its crash and precedes the next crash;
            // cycle counts differ by at most one.
            assert!(crashes.len() - reboots.len() <= 1, "node {node}");
            for (i, &reboot) in reboots.iter().enumerate() {
                assert!(reboot > crashes[i], "node {node}: reboot {i} precedes its crash");
                if let Some(&next) = crashes.get(i + 1) {
                    assert!(next > reboot, "node {node}: crash {} precedes reboot {i}", i + 1);
                }
            }
        }
    }

    #[test]
    fn explicit_crashes_and_partitions_resolve_literally() {
        let plan = FaultPlan::none()
            .with_crash(NodeId(2), 10.0, Some(5.0))
            .with_crash(NodeId(3), 999.0, None)
            .with_partition(20.0, 400.0, NodeGroup::IdBelow(2));
        let s = plan.resolve(4, 100.0, &Rng::new(0));
        assert_eq!(s.crashes, vec![(SimTime::from_secs_f64(10.0), 2)]);
        assert_eq!(s.reboots, vec![(SimTime::from_secs_f64(15.0), 2)]);
        assert_eq!(s.partitions.len(), 1);
        let ep = &s.partitions[0];
        assert_eq!(ep.start, SimTime::from_secs_f64(20.0));
        assert_eq!(ep.heal, SimTime::from_secs_f64(100.0), "heal clamps to the trial end");
        assert_eq!(ep.group, vec![true, true, false, false]);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let bad = [
            FaultPlan::none().with_crash(NodeId(9), 1.0, None),
            FaultPlan::none().with_crash(NodeId(0), f64::NAN, None),
            FaultPlan::none().with_crash(NodeId(0), 1.0, Some(0.0)),
            FaultPlan::none().with_churn(0.0, 5.0, 0.0),
            FaultPlan::none().with_churn(5.0, f64::INFINITY, 0.0),
            FaultPlan::none().with_partition(10.0, 5.0, NodeGroup::IdBelow(1)),
            FaultPlan::none().with_partition(1.0, 2.0, NodeGroup::IdBelow(0)),
            FaultPlan::none().with_partition(1.0, 2.0, NodeGroup::IdBelow(4)),
        ];
        for plan in bad {
            assert!(plan.validate(4).is_err(), "plan {plan:?} must be rejected");
        }
        assert!(FaultPlan::none().validate(4).is_ok());
    }

    #[test]
    fn at_most_32_partition_episodes() {
        // Episodes 0 and 32 would share a signature bit: with both active
        // and splitting at 5 and at 10 nodes, nodes 2 and 7 would stay
        // connected although episode 0 separates them.
        let plan = |episodes: usize| {
            (0..episodes).fold(FaultPlan::none(), |plan, e| {
                let k = if e == 0 { 5 } else { 10 };
                plan.with_partition(1.0, 2.0, NodeGroup::IdBelow(k))
            })
        };
        assert!(plan(32).validate(12).is_ok());
        let err = plan(33).validate(12).expect_err("a 33rd episode must be rejected");
        assert!(err.contains("33 partition episodes") && err.contains("at most 32"), "{err}");
    }
}
