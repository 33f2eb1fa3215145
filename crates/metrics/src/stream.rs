//! Per-trial streaming records — the JSONL schema fleet sweeps persist.
//!
//! A monolithic `sweep_results.json` holds every trial in memory until
//! the end of the sweep; million-trial fleets instead stream one JSON
//! line per finished trial ([`TrialRecord`]) and recombine aggregates
//! later. The codec here round-trips a [`TrialSummary`] **exactly**:
//! every `f64` is rendered with Rust's shortest-roundtrip formatting and
//! parsed back with the correctly-rounded `FromStr`, so the value that
//! comes out is bit-for-bit the value that went in. That exactness is
//! what lets a merged shard stream reproduce the legacy
//! `sweep_results.json` byte-identically (see `rica-fleet`).
//!
//! Record shape (one line, schema-stamped):
//!
//! ```json
//! {"schema":1,"job":12,"cell":3,"trial":0,"seed":107,"summary":{
//!   "duration_ns":30000000000,"generated":866,"delivered":258,
//!   "drops":{"NoRoute":4},"delay_mean_ms":512.25,…,
//!   "control_bits":{"Rreq":131072},…,"throughput_kbps":[10.5,…],…}}
//! ```
//!
//! The optional `workload` block mirrors [`WorkloadSummary`]. Profiling
//! diagnostics are deliberately **not** part of the schema: they are
//! wall-clock-dependent observability output, not results, and fleet
//! runs never enable them (a summary with diagnostics attached refuses
//! to serialise rather than silently dropping data).
//!
//! The module also exposes the workspace's offline mini JSON parser
//! ([`JsonValue`]) — the workspace builds with no registry access, so
//! artifact readers (fleet manifests, shard headers, this codec) share
//! this one implementation instead of growing ad-hoc scanners.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rica_net::{ControlKind, DropReason};
use rica_sim::SimDuration;

use crate::{FlowSummary, RecoverySummary, TrialSummary, WorkloadSummary};

/// Schema version stamped into every record line.
pub const TRIAL_RECORD_SCHEMA: u32 = 1;

/// One streamed trial result: the grid coordinates that place it in a
/// plan plus the full summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Flat job index in plan order (shards re-anchor merges on it). For
    /// adaptive streams, which run beyond the plan grid, this is the
    /// stream-unique `cell · max_trials + trial`.
    pub job: usize,
    /// Grid cell index in plan order.
    pub cell: usize,
    /// Trial number within the cell.
    pub trial: usize,
    /// The derived seed the trial ran with (plan-derived; recorded so a
    /// single trial can be reproduced without the plan in hand).
    pub seed: u64,
    /// The full frozen trial result.
    pub summary: TrialSummary,
}

impl TrialRecord {
    /// Renders the record as one JSON line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics if the summary carries profiling diagnostics — those are
    /// not part of the record schema (see the module docs).
    pub fn to_line(&self) -> String {
        assert!(
            self.summary.diagnostics.is_none(),
            "trial records do not carry profiling diagnostics; run fleet trials unprofiled"
        );
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"schema\":{TRIAL_RECORD_SCHEMA},\"job\":{},\"cell\":{},\"trial\":{},\"seed\":{},\
             \"summary\":",
            self.job, self.cell, self.trial, self.seed
        );
        summary_json(&mut out, &self.summary);
        out.push('}');
        out
    }

    /// Parses a record line produced by [`TrialRecord::to_line`].
    pub fn parse(line: &str) -> Result<TrialRecord, String> {
        let v = parse_json(line)?;
        let schema = v.get("schema").and_then(JsonValue::as_u64).ok_or("missing schema")?;
        if schema != TRIAL_RECORD_SCHEMA as u64 {
            return Err(format!("unsupported record schema {schema}"));
        }
        Ok(TrialRecord {
            job: v.get("job").and_then(JsonValue::as_u64).ok_or("missing job")? as usize,
            cell: v.get("cell").and_then(JsonValue::as_u64).ok_or("missing cell")? as usize,
            trial: v.get("trial").and_then(JsonValue::as_u64).ok_or("missing trial")? as usize,
            seed: v.get("seed").and_then(JsonValue::as_u64).ok_or("missing seed")?,
            summary: summary_from(v.get("summary").ok_or("missing summary")?)?,
        })
    }
}

// ------------------------------------------------------------ serialising

/// Appends `s` as a quoted JSON string literal: quote, backslash and
/// control characters escaped, everything else verbatim. The trial-record
/// codec and `rica-exec`'s sweep artifact share this one escaper.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shortest-roundtrip `f64` — **the** pinned float→text codec for every
/// artifact the workspace writes. `{}` always prints a representation
/// that parses back to the identical bits, which is the codec's whole
/// contract; `rica-lint`'s `float-fmt` rule points artifact writers
/// here. (Non-finite values never occur in summaries; they would render
/// as the extension tokens `NaN`/`inf`, which [`parse_json`] accepts
/// for robustness — callers with a different non-finite policy, e.g.
/// JSON `null`, branch on `is_finite` first.)
pub fn push_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{v}");
}

/// [`push_f64`] as a plain `String` (convenience for one-off renders).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

fn num(out: &mut String, v: f64) {
    push_f64(out, v);
}

fn f64_array(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        num(out, x);
    }
    out.push(']');
}

fn u64_map<K: std::fmt::Debug + Copy>(out: &mut String, map: &BTreeMap<K, u64>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, &format!("{k:?}"));
        let _ = write!(out, ":{v}");
    }
    out.push('}');
}

fn summary_json(out: &mut String, s: &TrialSummary) {
    let _ = write!(
        out,
        "{{\"duration_ns\":{},\"generated\":{},\"delivered\":{},\"drops\":",
        s.duration.as_nanos(),
        s.generated,
        s.delivered
    );
    u64_map(out, &s.drops);
    for (key, v) in [
        ("delay_mean_ms", s.delay_mean_ms),
        ("delay_std_ms", s.delay_std_ms),
        ("delay_p50_ms", s.delay_p50_ms),
        ("delay_p95_ms", s.delay_p95_ms),
        ("delay_max_ms", s.delay_max_ms),
    ] {
        let _ = write!(out, ",\"{key}\":");
        num(out, v);
    }
    out.push_str(",\"control_bits\":");
    u64_map(out, &s.control_bits);
    let _ = write!(out, ",\"control_tx_count\":{},\"ack_bits\":{}", s.control_tx_count, s.ack_bits);
    for (key, v) in [
        ("overhead_kbps", s.overhead_kbps),
        ("avg_link_throughput_kbps", s.avg_link_throughput_kbps),
        ("avg_hops", s.avg_hops),
    ] {
        let _ = write!(out, ",\"{key}\":");
        num(out, v);
    }
    out.push_str(",\"throughput_kbps\":");
    f64_array(out, &s.throughput_kbps);
    let _ = write!(
        out,
        ",\"collisions\":{},\"link_breaks\":{},\"ctrl_queue_drops\":{}",
        s.collisions, s.link_breaks, s.ctrl_queue_drops
    );
    if let Some(w) = &s.workload {
        let _ = write!(out, ",\"workload\":{{\"offered_bits\":{},\"flows\":[", w.offered_bits);
        for (i, f) in w.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"generated\":{},\"delivered\":{},\"offered_bits\":{},\"delivered_bits\":{},\
                 \"delay_mean_ms\":",
                f.generated, f.delivered, f.offered_bits, f.delivered_bits
            );
            num(out, f.delay_mean_ms);
            out.push('}');
        }
        out.push_str("]}");
    }
    if let Some(r) = &s.recovery {
        let _ = write!(
            out,
            ",\"recovery\":{{\"crashes\":{},\"reboots\":{},\"partitions\":{},\"heals\":{},\
             \"delivered_intact\":{},\"delivered_disrupted\":{},\"disrupted_flows\":{},\
             \"recovered_flows\":{},\"unrecovered_flows\":{}",
            r.crashes,
            r.reboots,
            r.partitions,
            r.heals,
            r.delivered_intact,
            r.delivered_disrupted,
            r.disrupted_flows,
            r.recovered_flows,
            r.unrecovered_flows
        );
        for (key, v) in [
            ("disruption_mean_ms", r.disruption_mean_ms),
            ("disruption_max_ms", r.disruption_max_ms),
            ("reroute_mean_ms", r.reroute_mean_ms),
            ("reroute_max_ms", r.reroute_max_ms),
        ] {
            let _ = write!(out, ",\"{key}\":");
            num(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

// -------------------------------------------------------------- parsing

fn drop_reason_from(name: &str) -> Option<DropReason> {
    DropReason::ALL.into_iter().find(|r| format!("{r:?}") == name)
}

fn control_kind_from(name: &str) -> Option<ControlKind> {
    ControlKind::ALL.into_iter().find(|k| format!("{k:?}") == name)
}

fn summary_from(v: &JsonValue) -> Result<TrialSummary, String> {
    let u = |key: &str| -> Result<u64, String> {
        v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("missing u64 {key}"))
    };
    let f = |key: &str| -> Result<f64, String> {
        v.get(key).and_then(JsonValue::as_f64).ok_or_else(|| format!("missing f64 {key}"))
    };
    let mut drops = BTreeMap::new();
    for (name, count) in v.get("drops").and_then(JsonValue::as_object).ok_or("missing drops")? {
        let reason = drop_reason_from(name).ok_or_else(|| format!("unknown drop {name}"))?;
        drops.insert(reason, count.as_u64().ok_or("bad drop count")?);
    }
    let mut control_bits = BTreeMap::new();
    for (name, bits) in
        v.get("control_bits").and_then(JsonValue::as_object).ok_or("missing control_bits")?
    {
        let kind = control_kind_from(name).ok_or_else(|| format!("unknown control {name}"))?;
        control_bits.insert(kind, bits.as_u64().ok_or("bad control bits")?);
    }
    let throughput_kbps = v
        .get("throughput_kbps")
        .and_then(JsonValue::as_array)
        .ok_or("missing throughput_kbps")?
        .iter()
        .map(|x| x.as_f64().ok_or("bad throughput element"))
        .collect::<Result<Vec<f64>, _>>()?;
    let workload = match v.get("workload") {
        None => None,
        Some(w) => {
            let flows = w
                .get("flows")
                .and_then(JsonValue::as_array)
                .ok_or("missing workload flows")?
                .iter()
                .map(|fl| -> Result<FlowSummary, String> {
                    let fu = |key: &str| {
                        fl.get(key)
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("missing flow {key}"))
                    };
                    Ok(FlowSummary {
                        generated: fu("generated")?,
                        delivered: fu("delivered")?,
                        offered_bits: fu("offered_bits")?,
                        delivered_bits: fu("delivered_bits")?,
                        delay_mean_ms: fl
                            .get("delay_mean_ms")
                            .and_then(JsonValue::as_f64)
                            .ok_or("missing flow delay")?,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Some(WorkloadSummary {
                offered_bits: w
                    .get("offered_bits")
                    .and_then(JsonValue::as_u64)
                    .ok_or("missing offered_bits")?,
                flows,
            })
        }
    };
    let recovery = match v.get("recovery") {
        None => None,
        Some(r) => {
            let ru = |key: &str| -> Result<u64, String> {
                r.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("missing recovery {key}"))
            };
            let rf = |key: &str| -> Result<f64, String> {
                r.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("missing recovery {key}"))
            };
            Some(RecoverySummary {
                crashes: ru("crashes")?,
                reboots: ru("reboots")?,
                partitions: ru("partitions")?,
                heals: ru("heals")?,
                delivered_intact: ru("delivered_intact")?,
                delivered_disrupted: ru("delivered_disrupted")?,
                disrupted_flows: ru("disrupted_flows")?,
                recovered_flows: ru("recovered_flows")?,
                unrecovered_flows: ru("unrecovered_flows")?,
                disruption_mean_ms: rf("disruption_mean_ms")?,
                disruption_max_ms: rf("disruption_max_ms")?,
                reroute_mean_ms: rf("reroute_mean_ms")?,
                reroute_max_ms: rf("reroute_max_ms")?,
            })
        }
    };
    Ok(TrialSummary {
        duration: SimDuration::from_nanos(u("duration_ns")?),
        generated: u("generated")?,
        delivered: u("delivered")?,
        drops,
        delay_mean_ms: f("delay_mean_ms")?,
        delay_std_ms: f("delay_std_ms")?,
        delay_p50_ms: f("delay_p50_ms")?,
        delay_p95_ms: f("delay_p95_ms")?,
        delay_max_ms: f("delay_max_ms")?,
        control_bits,
        control_tx_count: u("control_tx_count")?,
        ack_bits: u("ack_bits")?,
        overhead_kbps: f("overhead_kbps")?,
        avg_link_throughput_kbps: f("avg_link_throughput_kbps")?,
        avg_hops: f("avg_hops")?,
        throughput_kbps,
        collisions: u("collisions")?,
        link_breaks: u("link_breaks")?,
        ctrl_queue_drops: u("ctrl_queue_drops")?,
        workload,
        recovery,
        diagnostics: None,
    })
}

// ------------------------------------------------- the mini JSON parser

/// A parsed JSON value.
///
/// Numbers keep their **raw source token** instead of eagerly converting
/// to `f64`: `u64` counters above 2⁵³ and shortest-roundtrip floats both
/// survive exactly, each converted by the accessor that knows the target
/// type. As extensions, the parser accepts the non-finite tokens
/// `NaN` / `inf` / `-inf` (Rust's `{}` rendering of those floats).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (keys may repeat; first match wins).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integral number token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (exact for shortest-roundtrip tokens).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(tok) => match tok.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                t => t.parse().ok(),
            },
            JsonValue::Null => None,
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in source order.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses one JSON document (a full line/file; trailing garbage is an
/// error). This is the workspace's offline stand-in for a JSON crate —
/// complete enough for every artifact this repo writes, nothing more.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: src.as_bytes(), at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.keyword("true", JsonValue::Bool(true)),
            b'f' => self.keyword("false", JsonValue::Bool(false)),
            b'n' => self.keyword("null", JsonValue::Null),
            b'N' => self.keyword("NaN", JsonValue::Num("NaN".into())),
            b'i' => self.keyword("inf", JsonValue::Num("inf".into())),
            _ => self.number(),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad keyword at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
            // `-inf` extension token.
            if self.peek() == Some(b'i') {
                self.keyword("inf", JsonValue::Null)?;
                return Ok(JsonValue::Num("-inf".into()));
            }
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        if self.at == start {
            return Err(format!("expected a value at byte {start}"));
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.at]).unwrap().to_string();
        // Validate the token now so errors surface at parse time.
        tok.parse::<f64>().map_err(|_| format!("bad number {tok:?} at byte {start}"))?;
        Ok(JsonValue::Num(tok))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.at += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                    self.at += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unmodified).
                    let rest = std::str::from_utf8(&self.bytes[self.at..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn fiddly_summary() -> TrialSummary {
        let mut drops = BTreeMap::new();
        drops.insert(DropReason::NoRoute, 7);
        drops.insert(DropReason::LinkBreak, 2);
        let mut control_bits = BTreeMap::new();
        control_bits.insert(ControlKind::Rreq, 131_072);
        control_bits.insert(ControlKind::Beacon, 9);
        TrialSummary {
            duration: SimDuration::from_secs(30),
            generated: 866,
            delivered: 258,
            drops,
            // Deliberately awkward floats: denormal-ish fractions, values
            // needing 17 digits, and negative-zero-free exact thirds.
            delay_mean_ms: 512.250_000_000_000_1,
            delay_std_ms: 0.1 + 0.2,
            delay_p50_ms: 1.0 / 3.0,
            delay_p95_ms: 1e-300,
            delay_max_ms: 9_007_199_254_740_993.0,
            control_bits,
            control_tx_count: 4_219,
            ack_bits: u64::MAX - 1,
            overhead_kbps: 17.25,
            avg_link_throughput_kbps: 193.401,
            avg_hops: std::f64::consts::E,
            throughput_kbps: vec![0.0, 10.5, 1.0 / 7.0],
            collisions: 41,
            link_breaks: 3,
            ctrl_queue_drops: 1,
            workload: None,
            recovery: None,
            diagnostics: None,
        }
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn record_round_trips_exactly() {
        let rec = TrialRecord { job: 12, cell: 3, trial: 0, seed: 107, summary: fiddly_summary() };
        let line = rec.to_line();
        assert!(!line.contains('\n'), "records must be single lines");
        let back = TrialRecord::parse(&line).expect("parse back");
        assert_eq!(back, rec, "streamed record must round-trip bit-exactly");
        // And the line itself is stable under a second trip.
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn workload_block_round_trips() {
        let mut s = fiddly_summary();
        s.workload = Some(WorkloadSummary {
            offered_bits: 12_345_678,
            flows: vec![
                FlowSummary {
                    generated: 100,
                    delivered: 93,
                    offered_bits: 409_600,
                    delivered_bits: 380_928,
                    delay_mean_ms: 77.125,
                },
                FlowSummary::default(),
            ],
        });
        let rec = TrialRecord { job: 0, cell: 0, trial: 4, seed: 11, summary: s };
        let back = TrialRecord::parse(&rec.to_line()).expect("parse back");
        assert_eq!(back, rec);
    }

    #[test]
    fn recovery_block_round_trips() {
        let mut s = fiddly_summary();
        s.recovery = Some(RecoverySummary {
            crashes: 3,
            reboots: 2,
            partitions: 1,
            heals: 1,
            delivered_intact: 511,
            delivered_disrupted: 42,
            disrupted_flows: 6,
            recovered_flows: 5,
            unrecovered_flows: 1,
            disruption_mean_ms: 812.5,
            disruption_max_ms: 2_431.062_5,
            reroute_mean_ms: 1.0 / 3.0,
            reroute_max_ms: 9_007.25,
        });
        let rec = TrialRecord { job: 2, cell: 1, trial: 3, seed: 19, summary: s };
        let line = rec.to_line();
        assert!(line.contains("\"recovery\":{\"crashes\":3"));
        let back = TrialRecord::parse(&line).expect("parse back");
        assert_eq!(back, rec);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn u64_precision_survives() {
        // 2⁶⁴−2 is far beyond f64's 2⁵³ integer range: the raw-token
        // number representation is what keeps it exact.
        let rec = TrialRecord { job: 1, cell: 1, trial: 1, seed: 3, summary: fiddly_summary() };
        let back = TrialRecord::parse(&rec.to_line()).unwrap();
        assert_eq!(back.summary.ack_bits, u64::MAX - 1);
    }

    #[test]
    fn diagnostics_refuse_to_stream() {
        let mut s = fiddly_summary();
        s.diagnostics = Some(crate::WorldDiagnostics::default());
        let rec = TrialRecord { job: 0, cell: 0, trial: 0, seed: 0, summary: s };
        let panicked = std::panic::catch_unwind(|| rec.to_line());
        assert!(panicked.is_err(), "profiled summaries must not silently lose data");
    }

    #[test]
    fn parser_handles_plain_json() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"yA","c":null,"d":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{}extra").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn non_finite_extension_tokens_parse() {
        let v = parse_json("[NaN,inf,-inf]").unwrap();
        let xs = v.as_array().unwrap();
        assert!(xs[0].as_f64().unwrap().is_nan());
        assert_eq!(xs[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(xs[2].as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn bad_records_are_rejected_with_reasons() {
        let good =
            TrialRecord { job: 0, cell: 0, trial: 0, seed: 0, summary: fiddly_summary() }.to_line();
        assert!(TrialRecord::parse(&good[..good.len() - 2]).is_err(), "truncation detected");
        let wrong_schema = good.replacen("\"schema\":1", "\"schema\":99", 1);
        assert!(TrialRecord::parse(&wrong_schema).unwrap_err().contains("schema"));
        let bad_enum = good.replacen("NoRoute", "NoSuchReason", 1);
        assert!(TrialRecord::parse(&bad_enum).unwrap_err().contains("NoSuchReason"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary finite floats and counters round-trip bit-exactly
        /// through the record codec.
        #[test]
        fn summary_floats_round_trip(
            delay_bits in any::<u64>(),
            series in proptest::collection::vec(-1.0e12f64..1.0e12, 0..8),
            generated in any::<u64>(),
            delivered in any::<u64>(),
        ) {
            let raw = f64::from_bits(delay_bits);
            let delay = if raw.is_finite() { raw } else { 1.5 };
            let mut s = super::tests::fiddly_summary();
            s.delay_mean_ms = delay;
            s.throughput_kbps = series.clone();
            s.generated = generated;
            s.delivered = delivered;
            let rec = TrialRecord { job: 7, cell: 2, trial: 1, seed: 9, summary: s };
            let back = TrialRecord::parse(&rec.to_line()).unwrap();
            prop_assert_eq!(back.summary.delay_mean_ms.to_bits(), delay.to_bits());
            prop_assert_eq!(&back.summary.throughput_kbps, &series);
            prop_assert_eq!(back.summary.generated, generated);
        }
    }
}
