//! Checkpoint/resume: self-describing JSONL tile records.
//!
//! Each finished tile appends one line to `tiles.jsonl` in the run
//! directory. A record carries everything needed to (a) skip the tile on
//! resume and (b) stitch its output without re-running it: the tile id,
//! an input hash, the owned output shapes' control points (chip
//! coordinates), per-iteration EPE sums and the tile metrics. Floats are
//! serialised as shortest-roundtrip decimals (see [`crate::json`]), so a
//! resumed run reconstructs bit-identical geometry and metrics.
//!
//! Resume safety: a record is only honoured when its `hash` matches the
//! FNV-1a hash of the tile's current input (geometry bits + OPC
//! configuration). A truncated final line — the signature of a killed
//! run — fails to parse and is simply ignored, so the tile re-executes.
//!
//! A checkpoint record is a tile-cache entry plus a tile position, so the
//! two stores share everything but the line header: the tile payload
//! codec (`payload_members` / `parse_payload`, which [`crate::cache`]
//! borrows), the hash walk (`crate::hash`) and the file discipline
//! (`crate::store`).

use crate::cache::CachedTile;
use crate::json::Json;
use crate::store::{
    acquire_pid_lock, append_line, io_error, load_jsonl, open_append, write_atomic,
};
use crate::RuntimeError;
use cardopc_geometry::Point;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

pub use crate::hash::tile_input_hash;

/// Record format version.
const RECORD_VERSION: f64 = 1.0;

/// One corrected shape, in the coordinate frame of whatever holds it: a
/// [`TileRecord`] (and everything stitched from records) is in chip
/// coordinates, a [`CachedTile`] in its window's.
#[derive(Clone, Debug, PartialEq)]
pub struct StitchedShape {
    /// Index of the shape's target — in the source clip for chip-frame
    /// shapes, in the tile clip's target list for window-frame ones (None
    /// for SRAFs).
    pub global_id: Option<usize>,
    /// Whether the shape is a sub-resolution assist.
    pub is_sraf: bool,
    /// Cardinal tension of the shape's spline.
    pub tension: f64,
    /// Control points, in the holder's frame.
    pub control_points: Vec<Point>,
}

/// Quality/accounting metrics of one tile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TileMetrics {
    /// Targets in the tile's halo window.
    pub shapes: usize,
    /// Targets owned by this tile.
    pub owned: usize,
    /// Sum of |EPE| over the owned targets' measure sites, nm.
    pub epe_sum_nm: f64,
    /// EPE violations (|EPE| > tolerance) over the owned sites.
    pub epe_violations: usize,
    /// PV-band area restricted to the tile core, nm².
    pub pvb_nm2: f64,
    /// MRC violations before resolving (whole halo window).
    pub mrc_initial: usize,
    /// MRC violations left after resolving.
    pub mrc_remaining: usize,
}

/// The checkpoint record of one finished tile.
#[derive(Clone, Debug, PartialEq)]
pub struct TileRecord {
    /// Tile index within the partition.
    pub index: usize,
    /// Tile name (`clip:txxty`).
    pub name: String,
    /// FNV-1a hash of the tile input (geometry + configuration).
    pub input_hash: u64,
    /// Per-iteration sum of |EPE| over the tile's *owned* shapes — the
    /// quantity that aggregates across tiles to the monolithic history.
    pub owned_epe_history: Vec<f64>,
    /// Per-iteration sum of |EPE| over every shape in the halo window
    /// (the tile flow's own convergence signal).
    pub epe_history: Vec<f64>,
    /// Owned output shapes in chip coordinates.
    pub shapes: Vec<StitchedShape>,
    /// Tile metrics.
    pub metrics: TileMetrics,
    /// Wall time spent correcting the tile, seconds.
    pub seconds: f64,
}

// ---------------------------------------------------------- serialisation

/// The coordinate frame of a container's shapes — a property of the
/// container, which also fixes how its shape objects spell their target
/// index on disk.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Frame {
    /// [`TileRecord`]: chip coordinates; `"id"` plus an explicit `"sraf"`.
    Chip,
    /// [`CachedTile`]: window coordinates; `"t"`, assists are the nulls.
    Window,
}

/// The tile payload — histories, metrics, seconds, shapes with flat `cps`
/// — as the members that follow a container line's header. The one
/// encoder behind `tiles.jsonl` and `cache.jsonl` lines.
pub(crate) fn payload_members(
    frame: Frame,
    owned_epe: &[f64],
    epe: &[f64],
    metrics: &TileMetrics,
    seconds: f64,
    shapes: &[StitchedShape],
) -> [(&'static str, Json); 5] {
    let shape_json = |s: &StitchedShape| {
        let id = s.global_id.map_or(Json::Null, Json::num_usize);
        let cps: Vec<f64> = s.control_points.iter().flat_map(|p| [p.x, p.y]).collect();
        let tension = ("tension", Json::Num(s.tension));
        let cps = ("cps", Json::num_arr(&cps));
        Json::obj(match frame {
            Frame::Chip => vec![("id", id), ("sraf", Json::Bool(s.is_sraf)), tension, cps],
            Frame::Window => vec![("t", id), tension, cps],
        })
    };
    let m = metrics;
    [
        ("owned_epe", Json::num_arr(owned_epe)),
        ("epe", Json::num_arr(epe)),
        (
            "metrics",
            Json::obj(vec![
                ("shapes", Json::num_usize(m.shapes)),
                ("owned", Json::num_usize(m.owned)),
                ("epe_sum_nm", Json::Num(m.epe_sum_nm)),
                ("epe_violations", Json::num_usize(m.epe_violations)),
                ("pvb_nm2", Json::Num(m.pvb_nm2)),
                ("mrc_initial", Json::num_usize(m.mrc_initial)),
                ("mrc_remaining", Json::num_usize(m.mrc_remaining)),
            ]),
        ),
        ("seconds", Json::Num(seconds)),
        ("shapes", Json::Arr(shapes.iter().map(shape_json).collect())),
    ]
}

/// A required member of a container line.
pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key}"))
}

/// A required 16-digit hex member (tile hashes, cache keys).
pub(crate) fn hex_field(v: &Json, key: &str) -> Result<u64, String> {
    let text = field(v, key)?.as_str();
    text.and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("bad {key}"))
}

/// Parses the payload [`payload_members`] wrote out of a container line.
///
/// # Errors
///
/// A message describing the malformed member.
pub(crate) fn parse_payload(v: &Json, frame: Frame) -> Result<CachedTile, String> {
    let floats = |key: &str| -> Result<Vec<f64>, String> {
        let items = field(v, key)?.as_arr();
        let items = items.ok_or_else(|| format!("bad array {key}"))?;
        let mut parsed = Vec::with_capacity(items.len());
        for item in items {
            parsed.push(
                item.as_f64()
                    .ok_or_else(|| format!("bad number in {key}"))?,
            );
        }
        Ok(parsed)
    };
    let m = field(v, "metrics")?;
    let bad_metric = |key: &str| format!("bad metric {key}");
    let count = |key: &str| field(m, key)?.as_usize().ok_or_else(|| bad_metric(key));
    let real = |key: &str| field(m, key)?.as_f64().ok_or_else(|| bad_metric(key));
    let metrics = TileMetrics {
        shapes: count("shapes")?,
        owned: count("owned")?,
        epe_sum_nm: real("epe_sum_nm")?,
        epe_violations: count("epe_violations")?,
        pvb_nm2: real("pvb_nm2")?,
        mrc_initial: count("mrc_initial")?,
        mrc_remaining: count("mrc_remaining")?,
    };
    let listed = field(v, "shapes")?.as_arr().ok_or("bad shapes")?;
    let mut shapes = Vec::with_capacity(listed.len());
    for s in listed {
        let id = if frame == Frame::Chip { "id" } else { "t" };
        let global_id = match field(s, id)? {
            Json::Null => None,
            j => Some(j.as_usize().ok_or("bad shape id")?),
        };
        let is_sraf = match frame {
            Frame::Chip => field(s, "sraf")?.as_bool().ok_or("bad sraf")?,
            Frame::Window => global_id.is_none(),
        };
        let flat = field(s, "cps")?.as_arr().ok_or("bad cps")?;
        if flat.len() % 2 != 0 {
            return Err("odd cps length".into());
        }
        let mut control_points = Vec::with_capacity(flat.len() / 2);
        for pair in flat.chunks_exact(2) {
            let (x, y) = (pair[0].as_f64(), pair[1].as_f64());
            control_points.push(Point::new(x.ok_or("bad cp")?, y.ok_or("bad cp")?));
        }
        shapes.push(StitchedShape {
            global_id,
            is_sraf,
            tension: field(s, "tension")?.as_f64().ok_or("bad tension")?,
            control_points,
        });
    }
    Ok(CachedTile {
        owned_epe_history: floats("owned_epe")?,
        epe_history: floats("epe")?,
        shapes,
        metrics,
        seconds: field(v, "seconds")?.as_f64().ok_or("bad seconds")?,
    })
}

impl TileRecord {
    /// Serialises the record as one compact JSON line (no newline).
    pub fn to_json_line(&self) -> String {
        let mut members = vec![
            ("v", Json::Num(RECORD_VERSION)),
            ("tile", Json::num_usize(self.index)),
            ("name", Json::Str(self.name.clone())),
            ("hash", Json::Str(format!("{:016x}", self.input_hash))),
        ];
        members.extend(payload_members(
            Frame::Chip,
            &self.owned_epe_history,
            &self.epe_history,
            &self.metrics,
            self.seconds,
            &self.shapes,
        ));
        Json::obj(members).to_string_compact()
    }

    /// Parses one JSONL line back into a record.
    ///
    /// # Errors
    ///
    /// A message describing the malformed field; callers treat any error
    /// as "no record" (the tile re-executes).
    pub fn from_json_line(line: &str) -> Result<TileRecord, String> {
        let v = Json::parse(line)?;
        if v.get("v").and_then(Json::as_f64) != Some(RECORD_VERSION) {
            return Err("unknown record version".into());
        }
        let payload = parse_payload(&v, Frame::Chip)?;
        Ok(TileRecord {
            index: field(&v, "tile")?.as_usize().ok_or("bad tile index")?,
            name: field(&v, "name")?.as_str().ok_or("bad name")?.to_string(),
            input_hash: hex_field(&v, "hash")?,
            owned_epe_history: payload.owned_epe_history,
            epe_history: payload.epe_history,
            shapes: payload.shapes,
            metrics: payload.metrics,
            seconds: payload.seconds,
        })
    }
}

// ------------------------------------------------------------- run dir

/// A checkpoint directory: `tiles.jsonl` (appended as tiles finish),
/// `manifest.json` (written on completion), and `run.lock` (held while
/// this process owns the directory).
///
/// The lock prevents two processes — e.g. a `cardopc` CLI invocation and
/// a `cardopc-serve` job — from appending to the same `tiles.jsonl`
/// concurrently, which would interleave torn lines. It is a PID file
/// acquired with an atomic create; a lock left behind by a dead process
/// (the PID no longer runs) is reclaimed with a warning, so crashed runs
/// never wedge their directory. The lock is released when the [`RunDir`]
/// is dropped.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
    /// The lock file owned by this handle, removed on drop.
    lock: Option<PathBuf>,
}

impl RunDir {
    /// Opens (creating if needed) a run directory and acquires its lock.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] when the directory cannot be created, or
    /// [`RuntimeError::Locked`] when another live process holds the lock.
    pub fn open(root: impl Into<PathBuf>) -> Result<RunDir, RuntimeError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_error("create", &root, e))?;
        let lock = Some(acquire_pid_lock(&root, "run.lock")?);
        Ok(RunDir { root, lock })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The lock file path.
    pub fn lock_path(&self) -> PathBuf {
        self.root.join("run.lock")
    }

    /// The JSONL checkpoint file path.
    pub fn tiles_path(&self) -> PathBuf {
        self.root.join("tiles.jsonl")
    }

    /// The manifest file path.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// The timing-free ("stable") manifest file path. This variant is
    /// byte-identical across reruns, resumes, worker counts and cache
    /// states of the same input, so CI can `cmp` it directly.
    pub fn stable_manifest_path(&self) -> PathBuf {
        self.root.join("manifest.stable.json")
    }

    /// Loads usable checkpoint records: the last parseable record per tile
    /// index. Hash validation against the current partition happens in the
    /// scheduler (it knows the tiles). Missing file → empty map; malformed
    /// lines (e.g. the torn final line of a killed run) are skipped, so
    /// their tiles simply re-execute.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] when the file exists but cannot be read.
    pub fn load_records(&self) -> Result<HashMap<usize, TileRecord>, RuntimeError> {
        let (records, _) = load_jsonl(&self.tiles_path(), TileRecord::from_json_line)?;
        Ok(records.into_iter().map(|(r, _)| (r.index, r)).collect())
    }

    /// Opens the checkpoint file for appending.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on open failure.
    pub fn append_handle(&self) -> Result<std::fs::File, RuntimeError> {
        open_append(&self.tiles_path())
    }

    /// Appends one record and flushes it: encode, then
    /// [`RunDir::append_line`]. Callers that share the file behind a lock
    /// encode first and take the lock for `append_line` alone.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on write failure.
    pub fn append_record(
        file: &mut std::fs::File,
        record: &TileRecord,
    ) -> Result<(), RuntimeError> {
        RunDir::append_line(file, &record.to_json_line())
    }

    /// Appends one already encoded record line ([`TileRecord::to_json_line`]
    /// output, no newline) and flushes it. The fleet coordinator appends
    /// the line a worker sent — after parsing and verifying it — rather
    /// than re-encoding the record it parsed.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on write failure.
    pub fn append_line(file: &mut std::fs::File, line: &str) -> Result<(), RuntimeError> {
        append_line(file, line).map_err(|e| RuntimeError::Io(format!("append checkpoint: {e}")))
    }

    /// Writes the manifest JSON (atomically via a temp file + rename).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on write failure.
    pub fn write_manifest(&self, json: &str) -> Result<(), RuntimeError> {
        let path = self.manifest_path();
        write_atomic(&path, json).map_err(|e| io_error("write", &path, e))
    }

    /// Writes the timing-free manifest JSON (atomically, like
    /// [`RunDir::write_manifest`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on write failure.
    pub fn write_stable_manifest(&self, json: &str) -> Result<(), RuntimeError> {
        let path = self.stable_manifest_path();
        write_atomic(&path, json).map_err(|e| io_error("write", &path, e))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if let Some(lock) = self.lock.take() {
            // Best effort: a failed removal leaves a stale lock that the
            // next opener reclaims (our PID is gone by then).
            let _ = std::fs::remove_file(lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> TileRecord {
        TileRecord {
            index: 3,
            name: "gcd[0]:1x0".into(),
            input_hash: 0xdead_beef_cafe_f00d,
            owned_epe_history: vec![10.5, 7.25, 0.1 + 0.2],
            epe_history: vec![20.0, 14.5, 1.0 / 3.0],
            shapes: vec![
                StitchedShape {
                    global_id: Some(42),
                    is_sraf: false,
                    tension: 0.6,
                    control_points: vec![Point::new(1.5, -2.25), Point::new(1e-12, 3.0)],
                },
                StitchedShape {
                    global_id: None,
                    is_sraf: true,
                    tension: 0.6,
                    control_points: vec![Point::new(0.1, 0.2), Point::new(0.3, 0.4)],
                },
            ],
            metrics: TileMetrics {
                shapes: 12,
                owned: 7,
                epe_sum_nm: 33.75,
                epe_violations: 2,
                pvb_nm2: 1234.0,
                mrc_initial: 1,
                mrc_remaining: 0,
            },
            seconds: 1.75,
        }
    }

    #[test]
    fn record_roundtrip_is_exact() {
        let r = record();
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let back = TileRecord::from_json_line(&line).unwrap();
        assert_eq!(back, r);
        // Bit-exactness of the awkward floats.
        assert_eq!(
            back.owned_epe_history[2].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn truncated_line_rejected() {
        let line = record().to_json_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(TileRecord::from_json_line(&line[..cut]).is_err());
        }
    }

    #[test]
    fn run_dir_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("cardopc-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = RunDir::open(&dir).unwrap();
        assert!(run.load_records().unwrap().is_empty());

        let mut file = run.append_handle().unwrap();
        let a = record();
        let mut b = record();
        b.index = 5;
        RunDir::append_record(&mut file, &a).unwrap();
        RunDir::append_record(&mut file, &b).unwrap();
        // Simulate a kill mid-append: a torn, unparseable final line.
        {
            use std::io::Write;
            let mut f = run.append_handle().unwrap();
            write!(f, "{}", &record().to_json_line()[..40]).unwrap();
        }
        let records = run.load_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[&3], a);
        assert_eq!(records[&5], b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_dir_lock_excludes_second_opener() {
        let dir = std::env::temp_dir().join(format!("cardopc-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = RunDir::open(&dir).unwrap();
        assert!(run.lock_path().exists());

        // A second opener in the same (live) process is refused.
        match RunDir::open(&dir) {
            Err(RuntimeError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }

        // Dropping the handle releases the lock.
        drop(run);
        let reopened = RunDir::open(&dir).expect("lock must be released on drop");
        drop(reopened);
        assert!(!dir.join("run.lock").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stale_and_unreadable_locks_are_reclaimed() {
        let dir = std::env::temp_dir().join(format!("cardopc-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A lock held by a long-dead PID (Linux pid_max < 2^22) is stale.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("run.lock"), "999999999\n").unwrap();
        let run = RunDir::open(&dir).expect("stale lock must be reclaimed");
        drop(run);

        // An unreadable lock (no PID) is treated as stale too.
        std::fs::write(dir.join("run.lock"), "not a pid").unwrap();
        let run = RunDir::open(&dir).expect("unreadable lock must be reclaimed");
        drop(run);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One `tiles.jsonl` line as the parent commit wrote it (before the
    /// payload codec was shared with the tile cache): it must still parse,
    /// and re-encode to the same bytes.
    #[test]
    fn golden_record_line_is_unchanged() {
        let golden = concat!(
            r#"{"v":1,"tile":3,"name":"gcd[0]:1x0","hash":"deadbeefcafef00d","#,
            r#""owned_epe":[10.5,7.25,0.30000000000000004],"epe":[20,14.5,0.3333333333333333],"#,
            r#""metrics":{"shapes":12,"owned":7,"epe_sum_nm":33.75,"epe_violations":2,"#,
            r#""pvb_nm2":1234,"mrc_initial":1,"mrc_remaining":0},"seconds":1.75,"#,
            r#""shapes":[{"id":42,"sraf":false,"tension":0.6,"cps":[1.5,-2.25,0.000000000001,3]},"#,
            r#"{"id":null,"sraf":true,"tension":0.6,"cps":[0.1,0.2,0.3,0.4]}]}"#,
        );
        let parsed = TileRecord::from_json_line(golden).unwrap();
        assert_eq!(parsed, record());
        assert_eq!(parsed.to_json_line(), golden);
    }
}
