//! The shard manifest: a serialisable split of a sweep plan.
//!
//! A manifest pins three things a resumed or distributed sweep must
//! agree on: **which plan** (the [`SweepPlan::content_hash`]), **how it
//! was cut** (contiguous job sub-ranges, one per shard), and **where
//! each shard streams** (a file name relative to the fleet directory).
//! Every shard file header repeats the plan hash and its range, so a
//! shard can prove it belongs to the manifest — and a manifest can
//! reject artifacts from any other plan — without re-running anything.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rica_exec::SweepPlan;
use rica_metrics::json::{parse_json, push_array, push_string};

/// Manifest schema version.
pub const MANIFEST_SCHEMA: u32 = 1;

/// One shard: a contiguous job sub-range `[start, end)` of the plan grid
/// and the file its trial records stream into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index (`0..shard_count`).
    pub shard: usize,
    /// First job index of the shard (inclusive, plan order).
    pub start: usize,
    /// One past the last job index of the shard.
    pub end: usize,
    /// Stream file name, relative to the fleet directory.
    pub file: String,
}

impl ShardSpec {
    /// Number of jobs the shard covers.
    pub fn jobs(&self) -> usize {
        self.end - self.start
    }
}

/// The serialisable split of one sweep plan into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetManifest {
    /// [`SweepPlan::content_hash`] of the plan being swept.
    pub plan_hash: u64,
    /// Total jobs in the plan grid (cells × trials).
    pub jobs: usize,
    /// Grid cells in the plan.
    pub cells: usize,
    /// Trials per cell.
    pub trials: usize,
    /// The shards, in index order, covering `0..jobs` exactly.
    pub shards: Vec<ShardSpec>,
}

/// Renders a `u64` hash the way every fleet artifact spells it: a hex
/// string (`"0x…"`, 16 digits). JSON numbers cannot carry a full u64
/// through an f64-based reader, so hashes travel as strings.
pub fn hash_hex(h: u64) -> String {
    format!("0x{h:016x}")
}

/// Shard `shard`'s stream file name — the only name a manifest may give
/// it, so a shard path never leaves the fleet directory.
fn shard_file(shard: usize) -> String {
    format!("shard_{shard}.jsonl")
}

/// Parses a [`hash_hex`]-rendered hash.
pub fn parse_hash_hex(s: &str) -> Result<u64, String> {
    let digits = s.strip_prefix("0x").ok_or_else(|| format!("hash {s:?} missing 0x prefix"))?;
    u64::from_str_radix(digits, 16).map_err(|_| format!("bad hash {s:?}"))
}

impl FleetManifest {
    /// Splits `plan` into `shard_count` contiguous job ranges of
    /// near-equal size (the first `jobs % shard_count` shards get one
    /// extra job). The split is a pure function of `(plan, shard_count)`,
    /// so re-deriving it on resume reproduces the manifest exactly.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is 0 or exceeds the plan's job count
    /// (an empty shard could never validate its own completion).
    pub fn split<P: Copy>(
        plan: &SweepPlan<P>,
        label: impl Fn(&P) -> String,
        shard_count: usize,
    ) -> FleetManifest {
        let jobs = plan.job_count();
        assert!(shard_count > 0, "need at least one shard");
        assert!(shard_count <= jobs, "{shard_count} shards for {jobs} jobs leaves empty shards");
        let base = jobs / shard_count;
        let extra = jobs % shard_count;
        let mut shards = Vec::with_capacity(shard_count);
        let mut start = 0;
        for shard in 0..shard_count {
            let len = base + usize::from(shard < extra);
            shards.push(ShardSpec { shard, start, end: start + len, file: shard_file(shard) });
            start += len;
        }
        FleetManifest {
            plan_hash: plan.content_hash(label),
            jobs,
            cells: plan.cell_count(),
            trials: plan.trials,
            shards,
        }
    }

    /// Absolute path of shard `shard`'s stream file under `dir`.
    pub fn shard_path(&self, dir: &Path, shard: usize) -> PathBuf {
        dir.join(&self.shards[shard].file)
    }

    /// Checks the manifest describes `plan`: same content hash and same
    /// grid dimensions. This is the resume-safety gate — a fleet
    /// directory whose manifest fails this check belongs to a different
    /// experiment and must not be merged into this one.
    pub fn matches_plan<P: Copy>(
        &self,
        plan: &SweepPlan<P>,
        label: impl Fn(&P) -> String,
    ) -> Result<(), String> {
        let want = plan.content_hash(label);
        if self.plan_hash != want {
            return Err(format!(
                "manifest plan hash {} does not match plan {}",
                hash_hex(self.plan_hash),
                hash_hex(want)
            ));
        }
        if self.jobs != plan.job_count()
            || self.cells != plan.cell_count()
            || self.trials != plan.trials
        {
            return Err("manifest grid dimensions do not match plan".into());
        }
        Ok(())
    }

    /// Structural sanity: shards are indexed `0..n`, tile `0..jobs`
    /// exactly, with no gaps, overlaps, or empty shards, and shard `i`
    /// streams to `shard_<i>.jsonl` (a damaged or foreign manifest must
    /// not point a run at a file outside the fleet directory).
    pub fn validate(&self) -> Result<(), String> {
        if self.shards.is_empty() {
            return Err("manifest has no shards".into());
        }
        let mut cursor = 0;
        for (i, s) in self.shards.iter().enumerate() {
            if s.shard != i {
                return Err(format!("shard {i} is labelled {}", s.shard));
            }
            if s.start != cursor || s.end <= s.start {
                return Err(format!("shard {i} range {}..{} breaks the tiling", s.start, s.end));
            }
            if s.file != shard_file(i) {
                return Err(format!("shard {i} file {:?} is not {:?}", s.file, shard_file(i)));
            }
            cursor = s.end;
        }
        if cursor != self.jobs {
            return Err(format!("shards cover {cursor} of {} jobs", self.jobs));
        }
        if self.cells.checked_mul(self.trials) != Some(self.jobs) {
            return Err("jobs ≠ cells × trials".into());
        }
        Ok(())
    }

    /// Renders the manifest as its one-document JSON artifact.
    pub fn to_json(&self) -> String {
        let mut out =
            format!("{{\"schema\":{MANIFEST_SCHEMA},\"kind\":\"fleet-manifest\",\"plan_hash\":");
        push_string(&mut out, &hash_hex(self.plan_hash));
        let _ = write!(
            out,
            ",\"jobs\":{},\"cells\":{},\"trials\":{},\"shards\":",
            self.jobs, self.cells, self.trials
        );
        push_array(&mut out, &self.shards, |out, s| {
            let _ = write!(
                out,
                "{{\"shard\":{},\"start\":{},\"end\":{},\"file\":",
                s.shard, s.start, s.end
            );
            push_string(out, &s.file);
            out.push('}');
        });
        out.push_str("}\n");
        out
    }

    /// Parses a manifest document (the inverse of [`FleetManifest::to_json`])
    /// and validates its structure.
    pub fn parse(src: &str) -> Result<FleetManifest, String> {
        let v = parse_json(src.trim())?;
        if v.str_at("kind") != Ok("fleet-manifest") {
            return Err("not a fleet manifest".into());
        }
        let schema = v.u64_at("schema")?;
        if schema != MANIFEST_SCHEMA as u64 {
            return Err(format!("unsupported manifest schema {schema}"));
        }
        let shards = v
            .array_at("shards")?
            .iter()
            .map(|s| -> Result<ShardSpec, String> {
                Ok(ShardSpec {
                    shard: s.usize_at("shard")?,
                    start: s.usize_at("start")?,
                    end: s.usize_at("end")?,
                    file: s.str_at("file")?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let manifest = FleetManifest {
            plan_hash: parse_hash_hex(v.str_at("plan_hash")?)?,
            jobs: v.usize_at("jobs")?,
            cells: v.usize_at("cells")?,
            trials: v.usize_at("trials")?,
            shards,
        };
        manifest.validate()?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> SweepPlan<u8> {
        SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0], vec![10], 5, 42)
    }

    #[test]
    fn split_tiles_the_grid_evenly() {
        let p = plan(); // 4 cells × 5 trials = 20 jobs
        let m = FleetManifest::split(&p, u8::to_string, 3);
        assert_eq!(m.jobs, 20);
        assert_eq!(m.cells, 4);
        let sizes: Vec<usize> = m.shards.iter().map(ShardSpec::jobs).collect();
        assert_eq!(sizes, vec![7, 7, 6], "near-equal contiguous split");
        m.validate().expect("fresh split validates");
        assert_eq!(m.plan_hash, p.content_hash(u8::to_string));
    }

    #[test]
    fn json_round_trips() {
        let m = FleetManifest::split(&plan(), u8::to_string, 4);
        let back = FleetManifest::parse(&m.to_json()).expect("parse own rendering");
        assert_eq!(back, m);
    }

    /// FNV-1a pin of a manifest document. To regenerate after an
    /// intentional change:
    ///
    /// ```text
    /// GOLDEN_PRINT=1 cargo test -q -p rica-fleet manifest_bytes -- --nocapture
    /// ```
    #[test]
    fn manifest_bytes_are_pinned() {
        const WANT: u64 = 0xce97_dbd5_f614_af3d;
        let doc = FleetManifest::split(&plan(), u8::to_string, 3).to_json();
        let hash = rica_exec::fnv1a(doc.as_bytes());
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT = 0x{hash:016x};\n{doc}");
            return;
        }
        assert_eq!(hash, WANT, "manifest bytes drifted:\n{doc}");
    }

    #[test]
    fn hash_hex_round_trips() {
        for h in [0u64, 1, u64::MAX, 0x6945_0152_892b_2c3c] {
            assert_eq!(parse_hash_hex(&hash_hex(h)).unwrap(), h);
        }
        assert!(parse_hash_hex("deadbeef").is_err(), "prefix required");
    }

    #[test]
    fn matches_plan_rejects_other_plans() {
        let p = plan();
        let m = FleetManifest::split(&p, u8::to_string, 2);
        m.matches_plan(&p, u8::to_string).expect("own plan matches");
        let mut other = p.clone();
        other.base_seed += 1;
        assert!(m.matches_plan(&other, u8::to_string).is_err());
    }

    #[test]
    fn validate_rejects_broken_tilings() {
        let mut m = FleetManifest::split(&plan(), u8::to_string, 2);
        m.shards[1].start += 1; // gap
        assert!(m.validate().is_err());
        let mut m = FleetManifest::split(&plan(), u8::to_string, 2);
        m.shards.pop(); // uncovered tail
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_grid_whose_size_overflows() {
        let mut m = FleetManifest::split(&plan(), u8::to_string, 2);
        (m.cells, m.trials) = (1 << 33, 1 << 33);
        assert!(FleetManifest::parse(&m.to_json()).is_err());
    }

    /// Hostile input: every strict prefix of a manifest is an error;
    /// single-byte replacements and deep nesting give an error or a
    /// manifest, never a panic.
    #[test]
    fn hostile_manifests_never_panic() {
        let doc = FleetManifest::split(&plan(), u8::to_string, 3).to_json();
        let doc = doc.trim_end();
        for cut in 0..doc.len() {
            assert!(FleetManifest::parse(&doc[..cut]).is_err(), "{cut}-byte prefix parsed");
        }
        for at in 0..doc.len() {
            for &b in b"{}[]\",:09-.ex \\" {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[at] = b;
                let _ = FleetManifest::parse(std::str::from_utf8(&bytes).unwrap());
            }
        }
        let deep = doc.replacen("[", &"[".repeat(100_000), 1);
        assert!(FleetManifest::parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn parse_rejects_shard_files_outside_the_directory() {
        let good = FleetManifest::split(&plan(), u8::to_string, 2).to_json();
        for bad in ["../x.jsonl", "/tmp/shard_0.jsonl", "sub/shard_0.jsonl", "sub\\shard_0.jsonl"] {
            let mut file = String::new();
            push_string(&mut file, bad);
            let doc = good.replace("\"shard_0.jsonl\"", &file);
            assert_ne!(doc, good);
            assert!(FleetManifest::parse(&doc).is_err(), "accepted shard file {bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn split_rejects_more_shards_than_jobs() {
        let _ = FleetManifest::split(&plan(), u8::to_string, 21);
    }
}
