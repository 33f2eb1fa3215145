//! The rule catalogue.
//!
//! Every rule is line-oriented: it inspects the masked views of one
//! [`SourceFile`] and emits findings with a fix hint. Rules are
//! deliberately **conservative where static proof is impossible** — R1
//! for instance fires on every `HashMap`/`HashSet` in sim-deterministic
//! code, because "this map is never iterated" is a whole-program
//! property a line scanner cannot establish; the allow-annotation with
//! its mandatory justification *is* the proof obligation, discharged by
//! a human and reviewed like code.
//!
//! # Adding a rule
//!
//! 1. Implement [`Rule`] (id, summary, hint, class gate, line check).
//! 2. Register it in [`all_rules`].
//! 3. Add a firing fixture and a suppressed fixture under `fixtures/`
//!    and list the rule in `tests/fixtures.rs` — the fixture test
//!    enforces one of each per rule.

use crate::classify::CrateClass;
use crate::report::Finding;
use crate::scan::{has_ident, SourceFile};

/// Rule id of the misuse meta-finding (malformed/unknown/empty allows).
pub const MALFORMED_ALLOW: &str = "malformed-allow";
/// Rule id of the stale-suppression meta-finding.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// One static check.
pub trait Rule {
    /// Stable id used in findings and `allow(...)` clauses.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Fix hint appended to every finding.
    fn hint(&self) -> &'static str;
    /// Whether the rule runs on files of `class`.
    fn applies(&self, class: CrateClass) -> bool;
    /// Scans `file`, pushing findings.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The registered rule set, in catalogue order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(HashIter),
        Box::new(WallClock),
        Box::new(UnorderedCollect),
        Box::new(UnsafeUndocumented),
        Box::new(FloatFmt),
        Box::new(NondeterministicSeed),
    ]
}

/// Ids of every registered rule plus the meta rules (the `allow(...)`
/// namespace).
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
    ids.push(MALFORMED_ALLOW);
    ids.push(UNUSED_ALLOW);
    ids
}

fn sim_only(class: CrateClass) -> bool {
    class == CrateClass::SimDeterministic
}

// --------------------------------------------------------------- R1

/// R1: `HashMap`/`HashSet` in sim-deterministic crates.
struct HashIter;

impl Rule for HashIter {
    fn id(&self) -> &'static str {
        "hash-iter"
    }
    fn summary(&self) -> &'static str {
        "HashMap/HashSet in sim-deterministic code (iteration order is nondeterministic)"
    }
    fn hint(&self) -> &'static str {
        "use rica_net::{IdMap, KeyMap} (deterministic iteration), or allow-annotate with a \
         justification that the collection is keyed-only (never iterated)"
    }
    fn applies(&self, class: CrateClass) -> bool {
        sim_only(class)
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        const ITER_TOKENS: &[&str] = &[
            "iter",
            "iter_mut",
            "keys",
            "values",
            "values_mut",
            "drain",
            "into_iter",
            "retain",
            "extend",
        ];
        for (idx, line) in file.lines.iter().enumerate() {
            let which = if has_ident(&line.code, "HashMap") {
                "HashMap"
            } else if has_ident(&line.code, "HashSet") {
                "HashSet"
            } else {
                continue;
            };
            let iterated = ITER_TOKENS.iter().any(|t| has_ident(&line.code, t))
                || has_ident(&line.code, "for");
            let message = if iterated {
                format!("order-sensitive iteration over a `{which}` in sim-deterministic code")
            } else {
                format!("`{which}` in sim-deterministic code")
            };
            out.push(Finding::new(file, idx + 1, self, message));
        }
    }
}

// --------------------------------------------------------------- R2

/// R2: wall-clock types in sim-deterministic code.
struct WallClock;

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "wall-clock"
    }
    fn summary(&self) -> &'static str {
        "std::time::{Instant, SystemTime} in sim-deterministic code"
    }
    fn hint(&self) -> &'static str {
        "simulation state must derive all time from SimTime; allow-annotate uses that are \
         provably diagnostics-only (never feed back into sim state or artifacts)"
    }
    fn applies(&self, class: CrateClass) -> bool {
        sim_only(class)
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (idx, line) in file.lines.iter().enumerate() {
            for ty in ["Instant", "SystemTime"] {
                if has_ident(&line.code, ty) {
                    let message = format!("wall-clock `{ty}` in sim-deterministic code");
                    out.push(Finding::new(file, idx + 1, self, message));
                    break;
                }
            }
        }
    }
}

// --------------------------------------------------------------- R3

/// R3: channel receives whose fold order is scheduling-dependent.
struct UnorderedCollect;

impl Rule for UnorderedCollect {
    fn id(&self) -> &'static str {
        "unordered-collect"
    }
    fn summary(&self) -> &'static str {
        "mpsc/channel receive in sim-deterministic code (completion order is scheduling-dependent)"
    }
    fn hint(&self) -> &'static str {
        "commit received results into plan-indexed slots before any observable fold, then \
         allow-annotate the receive site naming the commit step"
    }
    fn applies(&self, class: CrateClass) -> bool {
        sim_only(class)
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (idx, line) in file.lines.iter().enumerate() {
            let recv =
                ["recv", "try_recv", "recv_timeout"].iter().any(|t| has_ident(&line.code, t));
            let construct = has_ident(&line.code, "mpsc") && has_ident(&line.code, "channel");
            if recv || construct {
                let message = if recv {
                    "channel receive in sim-deterministic code".to_owned()
                } else {
                    "channel construction in sim-deterministic code".to_owned()
                };
                out.push(Finding::new(file, idx + 1, self, message));
            }
        }
    }
}

// --------------------------------------------------------------- R4

/// R4: `unsafe` without a `// SAFETY:` comment (all crates).
struct UnsafeUndocumented;

impl Rule for UnsafeUndocumented {
    fn id(&self) -> &'static str {
        "unsafe-undocumented"
    }
    fn summary(&self) -> &'static str {
        "unsafe block/fn without a SAFETY: comment"
    }
    fn hint(&self) -> &'static str {
        "state the invariant that makes the unsafe sound in a `// SAFETY:` comment directly \
         above (or trailing) the unsafe"
    }
    fn applies(&self, _class: CrateClass) -> bool {
        true
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (idx, line) in file.lines.iter().enumerate() {
            if !has_ident(&line.code, "unsafe") {
                continue;
            }
            if line.comment.contains("SAFETY:") || documented_above(file, idx) {
                continue;
            }
            out.push(Finding::new(
                file,
                idx + 1,
                self,
                "`unsafe` without a `// SAFETY:` comment".to_owned(),
            ));
        }
    }
}

/// Whether the contiguous run of comment/blank/attribute lines directly
/// above line `idx` contains `SAFETY:`.
fn documented_above(file: &SourceFile, idx: usize) -> bool {
    for line in file.lines[..idx].iter().rev() {
        let code = line.code.trim();
        if line.comment.contains("SAFETY:") {
            return true;
        }
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !(code.is_empty() || is_attr) {
            return false;
        }
    }
    false
}

// --------------------------------------------------------------- R5

/// R5: float formatting outside the pinned artifact codec.
struct FloatFmt;

/// The one place float→text is pinned (shortest-roundtrip codec).
const PINNED_CODEC: &str = "crates/metrics/src/json.rs";

impl Rule for FloatFmt {
    fn id(&self) -> &'static str {
        "float-fmt"
    }
    fn summary(&self) -> &'static str {
        "float formatting outside the pinned shortest-roundtrip codec (rica_metrics::json)"
    }
    fn hint(&self) -> &'static str {
        "artifact floats must round-trip exactly: route them through \
         rica_metrics::json::push_f64/fmt_f64, or allow-annotate output that is \
         presentation-only (human display, deliberately rounded)"
    }
    fn applies(&self, class: CrateClass) -> bool {
        sim_only(class)
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.rel_path == PINNED_CODEC {
            return;
        }
        // Panic/assert messages are never artifacts.
        const EXEMPT: &[&str] = &[
            "assert",
            "assert_eq",
            "assert_ne",
            "debug_assert",
            "debug_assert_eq",
            "debug_assert_ne",
            "panic",
            "unreachable",
            "todo",
            "unimplemented",
            "expect",
        ];
        const FMT_MACROS: &[&str] =
            &["format", "write", "writeln", "print", "println", "eprint", "eprintln"];
        // Exemption spans the whole macro call: a multi-line `assert!(…,
        // "{:.1}", …)` keeps its format string on a later line than the
        // macro name, so track paren depth from the exempt token on.
        let mut exempt_depth: i32 = 0;
        for (idx, line) in file.lines.iter().enumerate() {
            let opens = line.code.matches('(').count() as i32;
            let closes = line.code.matches(')').count() as i32;
            if exempt_depth > 0 {
                exempt_depth = (exempt_depth + opens - closes).max(0);
                continue;
            }
            if EXEMPT.iter().any(|t| has_ident(&line.code, t)) {
                exempt_depth = (opens - closes).max(0);
                continue;
            }
            let lossy_spec = has_lossy_float_spec(&line.string);
            let display_float = (line.string.contains("{}") || line.string.contains("{:?}"))
                && FMT_MACROS.iter().any(|t| has_ident(&line.code, t))
                && (has_ident(&line.code, "f64") || has_ident(&line.code, "f32"));
            if lossy_spec || display_float {
                let message = if lossy_spec {
                    "precision-truncated float formatting (lossy; cannot round-trip)".to_owned()
                } else {
                    "float formatted with `{}`/`{:?}` outside the pinned codec".to_owned()
                };
                out.push(Finding::new(file, idx + 1, self, message));
            }
        }
    }
}

/// Whether a masked string view contains a format spec with a precision
/// (`{:.2}`, `{:6.1}`) or exponent (`{:e}`) — lossy float renderings.
fn has_lossy_float_spec(string: &str) -> bool {
    let b = string.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'{' {
            i += 1;
            continue;
        }
        if b.get(i + 1) == Some(&b'{') {
            i += 2; // escaped `{{`
            continue;
        }
        let Some(close) = b[i + 1..].iter().position(|&c| c == b'}') else {
            return false;
        };
        let segment = &string[i + 1..i + 1 + close];
        if let Some(colon) = segment.find(':') {
            let spec = &segment[colon + 1..];
            if spec.contains('.') || spec.ends_with('e') || spec.ends_with('E') {
                return true;
            }
        }
        i += 1 + close + 1;
    }
    false
}

// --------------------------------------------------------------- R6

/// R6: seed material from nondeterministic sources.
struct NondeterministicSeed;

impl Rule for NondeterministicSeed {
    fn id(&self) -> &'static str {
        "nondeterministic-seed"
    }
    fn summary(&self) -> &'static str {
        "RNG/seed material from entropy, hashes or the wall clock"
    }
    fn hint(&self) -> &'static str {
        "all randomness must flow from the scenario seed via Rng::fork / plan-derived seed \
         streams; there is no legitimate entropy source inside a trial"
    }
    fn applies(&self, class: CrateClass) -> bool {
        sim_only(class)
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        const ENTROPY: &[&str] = &[
            "thread_rng",
            "from_entropy",
            "getrandom",
            "OsRng",
            "RandomState",
            "DefaultHasher",
            "SipHasher",
        ];
        const CLOCK: &[&str] =
            &["now", "elapsed", "as_nanos", "subsec_nanos", "duration_since", "UNIX_EPOCH"];
        for (idx, line) in file.lines.iter().enumerate() {
            if let Some(tok) = ENTROPY.iter().find(|t| has_ident(&line.code, t)) {
                let message =
                    format!("entropy/hash-keyed source `{tok}` in sim-deterministic code");
                out.push(Finding::new(file, idx + 1, self, message));
                continue;
            }
            let seeds_rng = has_ident(&line.code, "Rng") && has_ident(&line.code, "new");
            if seeds_rng && CLOCK.iter().any(|t| has_ident(&line.code, t)) {
                out.push(Finding::new(
                    file,
                    idx + 1,
                    self,
                    "RNG seeded from wall-clock material".to_owned(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_spec_detection() {
        assert!(has_lossy_float_spec("delivery {:.1}%"));
        assert!(has_lossy_float_spec("x {:6.2} y"));
        assert!(has_lossy_float_spec("sci {:e}"));
        assert!(!has_lossy_float_spec("plain {} and {:?} and {:>8} and {:04x}"));
        assert!(!has_lossy_float_spec("escaped {{:.2}} braces"));
        assert!(!has_lossy_float_spec("no specs at all"));
    }

    #[test]
    fn rule_ids_are_unique() {
        let mut ids = known_rule_ids();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate rule id registered");
    }
}
