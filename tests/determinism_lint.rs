//! The determinism rules clippy cannot check (README "Determinism
//! lint"): `float-fmt` over the simulator crates' library sources,
//! `SAFETY:` comments on `unsafe` in `perfbench/src` (outside the
//! workspace, so neither clippy nor `unsafe_code = "forbid"` reaches it),
//! a reason of at least 15 characters on every lint attribute, and
//! fixtures for the `clippy.toml` paths that have no live site.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The shortest justification a suppression may carry.
const MIN_REASON: usize = 15;

/// The one place float→text is pinned (shortest round-trip codec).
const PINNED_CODEC: &str = "crates/metrics/src/json.rs";

/// Macros whose messages never reach an artifact.
const EXEMPT: &str = "assert assert_eq assert_ne debug_assert debug_assert_eq debug_assert_ne \
                      panic unreachable todo unimplemented expect";

const FMT_MACROS: &str = "format write writeln print println eprint eprintln";

const CODE: usize = 0;
const COMMENT: usize = 1;
const STRING: usize = 2;

/// `src` as its code, comment and string views, one `String` per line,
/// each with the raw line's byte layout: the code view blanks comments
/// and string and char contents, the others keep only those.
fn mask(src: &str) -> [Vec<String>; 3] {
    let b = src.as_bytes();
    let mut views = [Vec::new(), Vec::new(), Vec::new()];
    // Copies `b[from..to]` into `view` and spaces into the other views;
    // newlines go to all three, so the lines stay aligned.
    let mut put = |from: usize, to: usize, view: usize| {
        for &c in &b[from..to] {
            for (v, out) in views.iter_mut().enumerate() {
                out.push(if c == b'\n' || v == view { c } else { b' ' });
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let (open, close, end, view) = token(src, i);
        put(i, open, CODE);
        put(open, close, view);
        put(close, end, CODE);
        i = end;
    }
    // Views change only at ASCII delimiters, so each stays UTF-8.
    views.map(|v| String::from_utf8(v).unwrap().split('\n').map(str::to_owned).collect())
}

/// The token at `i`: where its contents start, where they end, where it
/// ends and which view its contents belong to. A comment is all
/// contents; the delimiters of a string, raw string or char literal are
/// code. A `'` that opens no char literal starts a lifetime or a label.
fn token(src: &str, i: usize) -> (usize, usize, usize, usize) {
    let b = src.as_bytes();
    let plain = (i + 1, i + 1, i + 1, CODE);
    // The first `pat` at or after `from`, else the end of the source.
    let find = |from: usize, pat: &[u8]| {
        let hit = b.get(from..).and_then(|t| t.windows(pat.len()).position(|w| w == pat));
        hit.map_or(b.len(), |p| from + p)
    };
    let (open, close, delimiter) = match b[i] {
        b'/' if matches!(b.get(i + 1), Some(b'/' | b'*')) => {
            let end = if b[i + 1] == b'/' { find(i, b"\n") } else { block_comment_end(b, i) };
            return (i, end, end, COMMENT);
        }
        b'"' => {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            (i + 1, j, 1)
        }
        b'\'' if b.get(i + 1) == Some(&b'\\') => (i + 1, find(i + 3, b"'"), 1),
        b'\'' => {
            let c = src[i + 1..].chars().next().unwrap_or('\'');
            let close = i + 1 + c.len_utf8();
            if c == '\'' || c == '\n' || b.get(close) != Some(&b'\'') {
                return plain;
            }
            (i + 1, close, 1)
        }
        b'r' | b'b' if i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') => {
            let r = if b[i] == b'b' { i + 1 } else { i };
            let hashes = b[b.len().min(r + 1)..].iter().take_while(|&&c| c == b'#').count();
            if b.get(r) != Some(&b'r') || b.get(r + 1 + hashes) != Some(&b'"') {
                return plain;
            }
            let closing = [b"\"".as_slice(), &vec![b'#'; hashes]].concat();
            (r + hashes + 2, find(r + hashes + 2, &closing), closing.len())
        }
        _ => return plain,
    };
    (open, close.min(b.len()), b.len().min(close + delimiter), STRING)
}

/// The end of the (nested) block comment that starts at `i`.
fn block_comment_end(b: &[u8], i: usize) -> usize {
    let (mut depth, mut j) = (0, i);
    while j + 1 < b.len() {
        match &b[j..j + 2] {
            b"/*" => depth += 1,
            b"*/" => depth -= 1,
            _ => {
                j += 1;
                continue;
            }
        }
        j += 2;
        if depth == 0 {
            return j;
        }
    }
    b.len()
}

fn has_ident(code: &str, words: &str) -> bool {
    let mut idents = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
    idents.any(|t| !t.is_empty() && words.split_whitespace().any(|w| w == t))
}

/// Whether a string view holds a precision (`{:.2}`, `{x:6.1}`) or an
/// exponent (`{:e}`) spec; `{{` is a literal brace.
fn lossy_spec(string: &str) -> bool {
    string.replace("{{", "").split('{').skip(1).any(|arg| {
        let spec = arg.split('}').next().unwrap().split_once(':').map_or("", |(_, spec)| spec);
        spec.contains('.') || spec.ends_with(['e', 'E'])
    })
}

/// The 1-based lines where `float-fmt` fires.
fn float_fmt_lines(code_view: &[String], string_view: &[String]) -> Vec<usize> {
    let mut out = Vec::new();
    // Parentheses an exempt call still has open: a multi-line
    // `assert!(…, "{:.1}", …)` is exempt on every line.
    let mut exempt_depth = 0i64;
    for (i, (code, string)) in code_view.iter().zip(string_view).enumerate() {
        let depth = code.matches('(').count() as i64 - code.matches(')').count() as i64;
        let displayed = (string.contains("{}") || string.contains("{:?}"))
            && has_ident(code, FMT_MACROS)
            && has_ident(code, "f64 f32");
        if exempt_depth > 0 {
            exempt_depth = (exempt_depth + depth).max(0);
        } else if has_ident(code, EXEMPT) {
            exempt_depth = depth.max(0);
        } else if lossy_spec(string) || displayed {
            out.push(i + 1);
        }
    }
    out
}

/// `float-fmt` problems in one file: a finding no `// float-fmt: <why>`
/// covers (on its line or the line above), a thin justification, and a
/// comment that covers no finding.
fn float_fmt(path: &str, src: &str) -> Vec<String> {
    let [code, comment, string] = mask(src);
    let found = float_fmt_lines(&code, &string);
    let allows: Vec<(usize, &str)> = (comment.iter().enumerate())
        .filter_map(|(i, c)| {
            let why = c.trim_start().strip_prefix("//")?.trim_start().strip_prefix("float-fmt:")?;
            Some((i + 1, why.trim()))
        })
        .collect();
    let covers = |allow: usize, line: usize| allow == line || allow + 1 == line;
    let mut problems = Vec::new();
    for &line in found.iter().filter(|&&l| !allows.iter().any(|&(a, _)| covers(a, l))) {
        problems.push(format!(
            "{path}:{line}: artifact floats must round-trip: use rica_metrics::json::push_f64, \
             or justify rounded presentation output with `// float-fmt: <why>`"
        ));
    }
    for &(a, why) in &allows {
        if why.chars().count() < MIN_REASON {
            problems.push(format!("{path}:{a}: float-fmt justification too thin: {why:?}"));
        }
        if !found.iter().any(|&line| covers(a, line)) {
            problems.push(format!("{path}:{a}: `// float-fmt:` covers no finding; delete it"));
        }
    }
    problems
}

/// The 1-based lines holding an `unsafe` with no `SAFETY:` on the line
/// or in the run of comment and attribute lines directly above.
fn undocumented_unsafe(src: &str) -> Vec<usize> {
    let [code, comment, _] = mask(src);
    let noted = |i: usize| comment[i].contains("SAFETY:");
    let comment_or_attribute = |i: usize| {
        let code = code[i].trim();
        (code.is_empty() && !comment[i].trim().is_empty()) || code.starts_with("#[")
    };
    (0..code.len())
        .filter(|&i| has_ident(&code[i], "unsafe"))
        .filter(|&i| !noted(i) && !(0..i).rev().take_while(|&j| comment_or_attribute(j)).any(noted))
        .map(|i| i + 1)
        .collect()
}

/// Every `expect` or `allow` lint attribute, inner ones too, as its
/// 1-based line and its `reason`, if it has one.
fn lint_attributes(src: &str) -> Vec<(usize, Option<String>)> {
    let [code, _, string] = mask(src).map(|view| view.join("\n"));
    let opens_lint_attribute = |at: usize| {
        let args = code[at + 1..].trim_start();
        code[..at].trim_end_matches('!').ends_with('#')
            && (args.starts_with("expect(") || args.starts_with("allow("))
    };
    (code.match_indices('[').map(|(at, _)| at).filter(|&at| opens_lint_attribute(at)))
        .map(|at| {
            // The reason is the attribute's one string literal.
            let end = code[at..].find(")]").map_or(code.len(), |e| at + e);
            let reason = code[at..end].contains("reason").then(|| string[at..end].trim().into());
            (code[..at].matches('\n').count() + 1, reason)
        })
        .collect()
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, sorted, skipping `target` and hidden
/// directories.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let entries: BTreeSet<PathBuf> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    let mut out = Vec::new();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            out.extend(rust_files(&path));
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out
}

/// `path` relative to the repository root, as `(path, source)`.
fn read(path: &Path) -> (String, String) {
    let rel = path.strip_prefix(repo_root()).unwrap().to_string_lossy().replace('\\', "/");
    (rel, std::fs::read_to_string(path).unwrap())
}

#[test]
fn simulator_sources_format_floats_only_through_the_codec() {
    let root = repo_root();
    let mut files = rust_files(&root.join("src"));
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if !(krate.ends_with("bench") || krate.ends_with("proptest-shim")) {
            files.extend(rust_files(&krate.join("src")));
        }
    }
    let sources: Vec<(String, String)> = files.iter().map(|f| read(f)).collect();
    let scope = sources.iter().filter(|(p, _)| !p.contains("src/bin/") && p != PINNED_CODEC);
    let problems: Vec<String> = scope.clone().flat_map(|(p, src)| float_fmt(p, src)).collect();
    assert!(scope.count() > 50, "too few library sources in scope");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn perfbench_unsafe_carries_a_safety_comment() {
    let sources: Vec<(String, String)> =
        rust_files(&repo_root().join("perfbench/src")).iter().map(|f| read(f)).collect();
    let code = |src: &str| mask(src)[CODE].concat();
    assert!(sources.iter().any(|(_, src)| has_ident(&code(src), "unsafe")), "no unsafe seen");
    let problems: Vec<String> = (sources.iter())
        .flat_map(|(p, src)| undocumented_unsafe(src).into_iter().map(move |l| format!("{p}:{l}")))
        .collect();
    assert!(problems.is_empty(), "`unsafe` without `// SAFETY:` at {problems:?}");
}

#[test]
fn every_lint_suppression_has_a_reason() {
    let (mut seen, mut problems) = (0, Vec::new());
    for (path, src) in rust_files(repo_root()).iter().map(|f| read(f)) {
        for (line, reason) in lint_attributes(&src) {
            seen += 1;
            if reason.as_ref().is_none_or(|r| r.chars().count() < MIN_REASON) {
                problems.push(format!("{path}:{line}: reason too thin: {reason:?}"));
            }
        }
    }
    assert!(seen >= 14, "only {seen} lint attributes seen");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// One use of each `clippy.toml` path that has no live site. A mistyped
/// path there only prints a warning, which `-D warnings` does not
/// promote; the `#[expect]` that then goes unfulfilled fails clippy.
#[test]
fn disallowed_paths_without_a_live_site_resolve() {
    #[expect(clippy::disallowed_types, reason = "fixture: the HashMap entry resolves")]
    let _map: std::collections::HashMap<u8, u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "fixture: the SystemTime entry resolves")]
    let _epoch = std::time::SystemTime::UNIX_EPOCH;
    #[expect(clippy::disallowed_types, reason = "fixture: the RandomState entry resolves")]
    let _state = std::hash::RandomState::new();
    #[expect(clippy::disallowed_types, reason = "fixture: the DefaultHasher entry resolves")]
    let _hasher = std::hash::DefaultHasher::new();
    #[expect(clippy::disallowed_methods, reason = "fixture: the sync_channel entry resolves")]
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    tx.send(7u8).unwrap();
    #[expect(clippy::disallowed_methods, reason = "fixture: the try_recv entry resolves")]
    let sent = rx.try_recv();
    #[expect(clippy::disallowed_methods, reason = "fixture: the recv_timeout entry resolves")]
    let empty = rx.recv_timeout(std::time::Duration::ZERO);
    assert!(sent == Ok(7) && empty.is_err());
}

#[test]
fn float_fmt_fires_unless_a_comment_on_the_line_or_above_covers_it() {
    let fire = "pub fn delay(ms: f64) -> String {\n    format!(\"{ms:.2}\")\n}\n\
                pub fn raw(v: f64) -> String { format!(\"{}\", v) }\n";
    let [code, _, string] = mask(fire);
    assert_eq!(float_fmt_lines(&code, &string), [2, 4]);
    assert_eq!(float_fmt("fire.rs", fire).len(), 2);
    let allowed = "pub fn delay(ms: f64) -> String {\n\
                   // float-fmt: human-facing table cell, deliberately rounded\n\
                   format!(\"{ms:.2}\")\n}\n\
                   pub fn raw(v: f64) -> String { format!(\"{}\", v) } // float-fmt: debug display only\n";
    assert_eq!(float_fmt("allow.rs", allowed), Vec::<String>::new());
    let stale = float_fmt("stale.rs", "// float-fmt: nothing below formats a float\nlet n = 1;\n");
    assert!(stale.len() == 1 && stale[0].contains("covers no finding"), "{stale:?}");
    let thin = float_fmt("thin.rs", "// float-fmt: rounded\nlet s = format!(\"{x:.1}\");\n");
    assert!(thin.len() == 1 && thin[0].contains("too thin"), "{thin:?}");
}

#[test]
fn float_fmt_skips_messages_comments_and_escaped_braces() {
    let src = "assert!(\n    ok,\n    \"delay {:.1} ms\",\n    delay\n);\n\
               // format!(\"{:.2}\") of an f64 in a comment\n\
               let s = format!(\"{{:.2}} {}\", n);\n";
    let [code, _, string] = mask(src);
    assert_eq!(float_fmt_lines(&code, &string), Vec::<usize>::new());
}

#[test]
fn masking_tells_raw_strings_chars_and_lifetimes_apart() {
    let src = "fn f<'a, 'b>(s: &'a str) -> char { r#\"x \" // y\"#; '\"' } /* a /* b */ c */ z";
    let [code, comment, string] = mask(src).map(|view| view.concat());
    assert!(has_ident(&code, "str") && has_ident(&code, "z") && !has_ident(&code, "y c"), "{code}");
    assert!(string.contains("x \" // y") && comment.contains("/* a /* b */ c */"), "{string}");
}

#[test]
fn unsafe_needs_safety_on_its_line_or_directly_above() {
    let src = "fn a(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n\
               // SAFETY: every call forwards to `System` unchanged.\n#[inline]\nunsafe fn b() {}\n";
    assert_eq!(undocumented_unsafe(src), [2]);
}

#[test]
fn lint_attributes_yield_their_reasons() {
    let src = "#![expect(dead_code, reason = \"crate-wide\")]\nlet y = x.expect(\"not one\");\n\
               #[expect(\n    unused,\n    reason = \"short\"\n)]\n#[expect(unused)]\n";
    let reasons = [(1, Some("crate-wide".into())), (3, Some("short".into())), (7, None)];
    assert_eq!(lint_attributes(src), reasons);
}
