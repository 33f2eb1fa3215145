//! # rica-lint — offline determinism/correctness lints
//!
//! Every headline guarantee of this workspace is *byte-determinism*:
//! merged fleet artifacts identical to single-shot sweeps, trace-on ⇔
//! trace-off bit-identity, goldens green across worker counts. The
//! hazards that historically broke it — `HashMap` iteration order,
//! wall-clock reads leaking into sim state, scheduling-dependent result
//! folds — are cheap to write and expensive to debug after the fact.
//! `rica-lint` rejects those patterns at CI time.
//!
//! The engine is registry-free and offline (no `syn`, no `regex`): a
//! byte-level lexer ([`scan`]) masks comments and strings, a rule
//! framework ([`rules`]) matches hazard tokens per line, and per-site
//! suppression comments ([`suppress`]) with **mandatory justifications**
//! discharge the findings static analysis cannot prove safe:
//!
//! ```text
//! // rica-lint: allow(hash-iter, "keyed-only: probed by NodeId, never iterated")
//! ```
//!
//! Files are classified ([`classify()`]) into **sim-deterministic** crates
//! (the full rule set) and **host-side** code — benches, shims, CLI
//! binaries, integration tests — where only universal rules apply.
//!
//! The `rica-lint` binary walks the workspace (`--workspace`), prints
//! findings as `file:line [rule] message` (or `--json`), and exits
//! non-zero on any unsuppressed finding.

pub mod classify;
pub mod report;
pub mod rules;
pub mod scan;
pub mod suppress;

use std::io;
use std::path::{Path, PathBuf};

pub use classify::{classify, CrateClass};
pub use report::{Finding, Report};
pub use rules::{all_rules, known_rule_ids, Rule};
use scan::SourceFile;
use suppress::Suppressions;

/// Lints one source text under an explicit classification.
///
/// This is the whole per-file pipeline: lex/mask, run every applicable
/// rule, resolve suppressions, then append suppression-misuse findings.
/// Findings come back sorted by (line, rule).
pub fn lint_source(rel_path: &str, class: CrateClass, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, class, src);
    let mut findings = Vec::new();
    for rule in all_rules() {
        if rule.applies(class) {
            rule.check(&file, &mut findings);
        }
    }
    let ids = known_rule_ids();
    let mut sup = Suppressions::parse(&file, &ids);
    for f in &mut findings {
        f.suppressed = sup.suppress(f.rule, f.line);
    }
    findings.extend(sup.finish(rel_path));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Directories never descended into. `fixtures` holds deliberate rule
/// violations for the lint tests; `crates/lint` itself is wall-to-wall
/// hazard-token and directive literals (the linter does not lint
/// itself, like every self-hosting linter's own test corpus).
fn skip_dir(rel: &Path) -> bool {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    matches!(comps.as_slice(), ["target", ..] | [".git", ..] | ["crates", "lint", ..])
        || comps.contains(&"fixtures")
}

/// Collects every `.rs` file under `root` (workspace-relative, sorted —
/// the walk order is part of the deterministic output contract).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let rel_child =
                if rel.as_os_str().is_empty() { PathBuf::from(&name) } else { rel.join(&name) };
            let ty = entry.file_type()?;
            if ty.is_dir() {
                if !skip_dir(&rel_child) {
                    stack.push(rel_child);
                }
            } else if ty.is_file() && rel_child.extension().is_some_and(|e| e == "rs") {
                out.push(rel_child);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints a set of workspace-relative files, classifying each by path.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let class = classify(rel);
        report.findings.extend(lint_source(&rel_str, class, &src));
        report.files_checked += 1;
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Lints every `.rs` file of the workspace at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = workspace_files(root)?;
    lint_files(root, &files)
}

/// Finds the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_suppression_roundtrip() {
        let src = "use std::collections::HashMap; // rica-lint: allow(hash-iter, \"import for a keyed-only map\")\n";
        let fs = lint_source("crates/net/src/x.rs", CrateClass::SimDeterministic, src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "hash-iter");
        assert_eq!(fs[0].suppressed.as_deref(), Some("import for a keyed-only map"));
    }

    #[test]
    fn host_side_skips_sim_rules_but_not_unsafe() {
        let src = "use std::collections::HashMap;\nlet p = unsafe { *ptr };\n";
        let fs = lint_source("crates/bench/src/bin/hotloop.rs", CrateClass::HostSide, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "unsafe-undocumented");
    }

    #[test]
    fn skip_dirs() {
        assert!(skip_dir(Path::new("target")));
        assert!(skip_dir(Path::new("crates/lint/src")));
        assert!(skip_dir(Path::new("crates/lint/fixtures")));
        assert!(skip_dir(Path::new("crates/foo/fixtures")));
        assert!(!skip_dir(Path::new("crates/net/src")));
    }
}
