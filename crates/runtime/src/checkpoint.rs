//! Checkpoint/resume: `tiles.jsonl`, the run directory's store, where a
//! repeated tile pattern is written once. It holds two kinds of line:
//!
//! - an **entry line** (`ENTRY_VERSION` 1): one pattern's window-relative
//!   correction under its cache key — byte for byte the line the tile
//!   cache persists for that key and value ([`CachedTile::to_json_line`]);
//! - a **tile line** (`RECORD_VERSION` 2, [`TileLine`]): one tile's index,
//!   name, input hash, cache key, seconds and [`Placement`] — its window
//!   origin, the global ids of the pattern's mains, the assists it keeps.
//!
//! An `Appender` writes a key's entry line with the first tile line of
//! that key, in one write; later tiles of the class write their tile line
//! alone. A resumed run may repeat an entry line: one key is one window
//! input, so the same bits. [`RunDir::load_records`] places each tile
//! line's entry ([`TileLine::place`], the one way any record is built). A
//! line that does not parse (a torn tail, a damaged byte), whose entry is
//! missing, or whose placement does not fit (`Placement::fits`) it is
//! dropped: its tile re-executes. Floats are shortest-roundtrip decimals,
//! so placed geometry is bit-identical. [`TileRecord::to_json_line`] /
//! [`TileRecord::from_json_line`] are a standalone codec no store uses.

use crate::cache::CachedTile;
use crate::json::{Json, Object};
use crate::partition::{Partition, Tile};
use crate::store::{
    acquire_pid_lock, append_lines, io_error, load_jsonl, open_append, write_atomic,
};
use crate::{map_on_pool, RuntimeError};
use cardopc_geometry::{BBox, Point};
use cardopc_litho::WorkerPool;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::PathBuf;

pub use crate::hash::tile_input_hash;

/// Tile line format version.
const RECORD_VERSION: f64 = 2.0;

/// Entry line format version (the tile cache's).
const ENTRY_VERSION: f64 = 1.0;

/// Standalone whole-record codec version.
const WHOLE_RECORD_VERSION: f64 = 1.0;

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

/// The record of one finished tile, in chip coordinates.
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

// -------------------------------------------------------------- placement

/// Where one tile puts its pattern's entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    /// The tile's window origin, chip coordinates.
    pub origin: Point,
    /// Global target ids of the entry's mains, in entry order.
    pub ids: Vec<usize>,
    /// Positions among the entry's assists, ascending, of those kept.
    pub keep: Vec<usize>,
}

impl Placement {
    /// How `tile` of `partition` places `entry`: its origin, each main's
    /// global id, and the assists whose centre falls in the tile's core
    /// under the partitioner's half-open owner convention (core ownership
    /// deduplicates assists as it does mains). `None` when the entry names
    /// a target the tile does not have.
    pub fn of(tile: &Tile, partition: &Partition, entry: &CachedTile) -> Option<Placement> {
        let ts = partition.config.tile_size;
        let owns = |c: Point| {
            let ox = ((c.x / ts).floor().max(0.0) as usize).min(partition.nx - 1);
            let oy = ((c.y / ts).floor().max(0.0) as usize).min(partition.ny - 1);
            (ox, oy) == (tile.tx, tile.ty)
        };
        let (mut ids, mut keep) = (Vec::new(), Vec::new());
        for (n, s) in entry.shapes.iter().filter(|s| s.is_sraf).enumerate() {
            let centre = BBox::from_points(s.control_points.iter().copied()).center();
            keep.extend(owns(centre + tile.origin).then_some(n));
        }
        for s in entry.shapes.iter().filter(|s| !s.is_sraf) {
            ids.push(*tile.global_ids.get(s.global_id?)?);
        }
        let origin = tile.origin;
        Some(Placement { origin, ids, keep })
    }

    /// Whether this placement can apply to `entry`: one id per main, and
    /// kept assists that exist, each named once.
    pub(crate) fn fits(&self, entry: &CachedTile) -> bool {
        let assists = entry.shapes.iter().filter(|s| s.is_sraf).count();
        self.ids.len() == entry.shapes.len() - assists
            && self.keep.windows(2).all(|w| w[0] < w[1])
            && self.keep.last().is_none_or(|&last| last < assists)
    }
}

/// One finished tile as its tile line holds it: its identity, and where it
/// places the entry of its cache key.
#[derive(Clone, Debug, PartialEq)]
pub struct TileLine {
    /// Tile index within the partition.
    pub index: usize,
    /// Tile name (`clip:txxty`).
    pub name: String,
    /// The tile's input hash.
    pub input_hash: u64,
    /// The tile's cache key: the entry line this line places.
    pub key: u64,
    /// Wall seconds the tile took.
    pub seconds: f64,
    /// Where the tile puts the entry.
    pub placement: Placement,
}

impl TileLine {
    /// `tile`'s line placing `entry` under `key`: the tile's own identity
    /// and [`Placement::of`] — `None` when the entry names a target the
    /// tile does not have. Every tile line is built here.
    pub fn of(
        tile: &Tile,
        partition: &Partition,
        input_hash: u64,
        key: u64,
        seconds: f64,
        entry: &CachedTile,
    ) -> Option<TileLine> {
        Some(TileLine {
            index: tile.index,
            name: tile.clip.name().to_string(),
            input_hash,
            key,
            seconds,
            placement: Placement::of(tile, partition, entry)?,
        })
    }

    /// The tile's chip-frame record, built from its pattern's `entry`:
    /// control points move by the origin, mains take the ids in order, only
    /// kept assists stay. Every record — cold, replayed, resumed, harvested
    /// — is built here. The placement must fit (`Placement::fits`) `entry`.
    pub fn place(self, entry: &CachedTile) -> TileRecord {
        let p = &self.placement;
        let (mut ids, mut keep) = (p.ids.iter(), p.keep.iter().peekable());
        let (mut shapes, mut assists) = (Vec::with_capacity(p.ids.len() + p.keep.len()), 0);
        for s in &entry.shapes {
            if s.is_sraf {
                assists += 1;
                if keep.next_if_eq(&&(assists - 1)).is_none() {
                    continue;
                }
            }
            shapes.push(StitchedShape {
                global_id: if s.is_sraf { None } else { ids.next().copied() },
                is_sraf: s.is_sraf,
                tension: s.tension,
                control_points: s.control_points.iter().map(|c| *c + p.origin).collect(),
            });
        }
        TileRecord {
            index: self.index,
            name: self.name,
            input_hash: self.input_hash,
            owned_epe_history: entry.owned_epe_history.clone(),
            epe_history: entry.epe_history.clone(),
            shapes,
            metrics: entry.metrics.clone(),
            seconds: self.seconds,
        }
    }
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
/// encoder behind entry lines and standalone records.
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
fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key}"))
}

/// A required 16-digit hex member (tile hashes, cache keys).
fn hex_field(v: &Json, key: &str) -> Result<u64, String> {
    let text = field(v, key)?.as_str();
    text.and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("bad {key}"))
}

/// A 16-digit hex member's value.
fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

/// A required array member, each item converted by `item`.
fn items<T>(v: &Json, key: &str, item: fn(&Json) -> Option<T>) -> Result<Vec<T>, String> {
    let listed = field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("bad array {key}"))?;
    let parsed = listed.iter().map(item).collect::<Option<Vec<T>>>();
    parsed.ok_or_else(|| format!("bad item in {key}"))
}

/// Parses the payload [`payload_members`] wrote out of a container line.
///
/// # Errors
///
/// A message describing the malformed member.
fn parse_payload(v: &Json, frame: Frame) -> Result<CachedTile, String> {
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
        let flat = items(s, "cps", Json::as_f64)?;
        if flat.len() % 2 != 0 {
            return Err("odd cps length".into());
        }
        shapes.push(StitchedShape {
            global_id,
            is_sraf,
            tension: field(s, "tension")?.as_f64().ok_or("bad tension")?,
            control_points: flat
                .chunks_exact(2)
                .map(|p| Point::new(p[0], p[1]))
                .collect(),
        });
    }
    Ok(CachedTile {
        owned_epe_history: items(v, "owned_epe", Json::as_f64)?,
        epe_history: items(v, "epe", Json::as_f64)?,
        shapes,
        metrics,
        seconds: field(v, "seconds")?.as_f64().ok_or("bad seconds")?,
    })
}

impl CachedTile {
    /// The entry line of this value under `key` (one compact JSON line, no
    /// newline) — what `cache.jsonl` and `tiles.jsonl` hold for a pattern.
    pub fn to_json_line(&self, key: u64) -> String {
        let mut members = vec![("v", Json::Num(ENTRY_VERSION)), ("key", hex(key))];
        members.extend(payload_members(
            Frame::Window,
            &self.owned_epe_history,
            &self.epe_history,
            &self.metrics,
            self.seconds,
            &self.shapes,
        ));
        Json::obj(members).to_string_compact()
    }

    /// Parses an entry line back into `(key, entry)`.
    ///
    /// # Errors
    ///
    /// A message describing the malformed line, or that it is a tile line.
    pub fn from_json_line(line: &str) -> Result<(u64, CachedTile), String> {
        match StoreLine::parse(line)? {
            StoreLine::Entry(key, entry) => Ok((key, entry)),
            StoreLine::Tile(_) => Err("a tile line, not an entry line".into()),
        }
    }
}

impl TileLine {
    /// Serialises the line as one compact JSON line (no newline), written
    /// straight into one string: the bytes of the tree encoder the tests
    /// keep as its oracle.
    pub fn to_json_line(&self) -> String {
        let p = &self.placement;
        let ids = 8 * (p.ids.len() + p.keep.len());
        let mut out = String::with_capacity(160 + self.name.len() + ids);
        let mut o = Object::open(&mut out);
        o.num("v", RECORD_VERSION)
            .count("tile", self.index)
            .str("name", &self.name)
            .str("hash", &format!("{:016x}", self.input_hash))
            .str("key", &format!("{:016x}", self.key))
            .num("seconds", self.seconds)
            .nums("origin", &[p.origin.x, p.origin.y])
            .counts("ids", &p.ids)
            .counts("keep", &p.keep);
        o.close();
        out
    }

    /// Reads a tile line written exactly as [`TileLine::to_json_line`]
    /// writes one — members in its order, no whitespace, no escapes —
    /// without building a tree. `None` for anything else, which the tree
    /// parser then decides. Where it reads a line, the line is JSON whose
    /// tree parse gives the same `TileLine`: the numbers go through the
    /// json crate's own reader and the same count and hex rules.
    fn read_written(line: &str) -> Option<TileLine> {
        let mut r = Reader(line.as_bytes());
        r.lit(b"{\"v\":")?;
        (r.num()? == RECORD_VERSION).then_some(())?;
        r.lit(b",\"tile\":")?;
        let index = r.count()?;
        r.lit(b",\"name\":")?;
        let name = r.plain_str()?.to_string();
        r.lit(b",\"hash\":")?;
        let input_hash = u64::from_str_radix(r.plain_str()?, 16).ok()?;
        r.lit(b",\"key\":")?;
        let key = u64::from_str_radix(r.plain_str()?, 16).ok()?;
        r.lit(b",\"seconds\":")?;
        let seconds = r.num()?;
        r.lit(b",\"origin\":[")?;
        let x = r.num()?;
        r.lit(b",")?;
        let y = r.num()?;
        r.lit(b"],\"ids\":")?;
        let ids = r.counts()?;
        r.lit(b",\"keep\":")?;
        let keep = r.counts()?;
        r.lit(b"}")?;
        r.0.is_empty().then_some(TileLine {
            index,
            name,
            input_hash,
            key,
            seconds,
            placement: Placement {
                origin: Point::new(x, y),
                ids,
                keep,
            },
        })
    }

    fn from_json(v: &Json) -> Result<TileLine, String> {
        let [x, y] = items(v, "origin", Json::as_f64)?[..] else {
            return Err("bad origin".into());
        };
        Ok(TileLine {
            index: field(v, "tile")?.as_usize().ok_or("bad tile index")?,
            name: field(v, "name")?.as_str().ok_or("bad name")?.to_string(),
            input_hash: hex_field(v, "hash")?,
            key: hex_field(v, "key")?,
            seconds: field(v, "seconds")?.as_f64().ok_or("bad seconds")?,
            placement: Placement {
                origin: Point::new(x, y),
                ids: items(v, "ids", Json::as_usize)?,
                keep: items(v, "keep", Json::as_usize)?,
            },
        })
    }
}

/// The unread rest of a line, for [`TileLine::read_written`].
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn lit(&mut self, text: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(text)?;
        Some(())
    }

    /// A number as `Json::parse` reads one (it starts with `-` or a digit).
    fn num(&mut self) -> Option<f64> {
        self.0
            .first()
            .filter(|b| **b == b'-' || b.is_ascii_digit())?;
        let (value, len) = cardopc_json::read_num(self.0);
        self.0 = &self.0[len..];
        value
    }

    /// A count, under `Json::as_usize`'s rule.
    fn count(&mut self) -> Option<usize> {
        Json::Num(self.num()?).as_usize()
    }

    /// `[` counts `]`.
    fn counts(&mut self) -> Option<Vec<usize>> {
        self.lit(b"[")?;
        let mut out = Vec::new();
        if self.lit(b"]").is_some() {
            return Some(out);
        }
        loop {
            out.push(self.count()?);
            match self.0.first()? {
                b',' => self.0 = &self.0[1..],
                b']' => {
                    self.0 = &self.0[1..];
                    return Some(out);
                }
                _ => return None,
            }
        }
    }

    /// A string with no escape in it (the writer escapes none of the
    /// strings this reads but names, and a name that needed one falls back
    /// to the tree).
    fn plain_str(&mut self) -> Option<&'a str> {
        self.lit(b"\"")?;
        let end = self.0.iter().position(|&b| b == b'"' || b == b'\\')?;
        (self.0[end] == b'"').then_some(())?;
        let text = std::str::from_utf8(&self.0[..end]).ok()?;
        self.0 = &self.0[end + 1..];
        Some(text)
    }
}

/// One line of `tiles.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreLine {
    /// An entry line: a pattern's key and window-relative correction.
    Entry(u64, CachedTile),
    /// A tile line.
    Tile(TileLine),
}

impl StoreLine {
    /// Parses either kind, told apart by the format version.
    ///
    /// # Errors
    ///
    /// A message describing the malformed line ("no line" to callers).
    pub fn parse(line: &str) -> Result<StoreLine, String> {
        match TileLine::read_written(line) {
            Some(tile) => Ok(StoreLine::Tile(tile)),
            None => StoreLine::parse_tree(line),
        }
    }

    /// [`StoreLine::parse`] through the JSON tree: any line, any spelling.
    fn parse_tree(line: &str) -> Result<StoreLine, String> {
        let v = Json::parse(line)?;
        match v.get("v").and_then(Json::as_f64) {
            Some(RECORD_VERSION) => TileLine::from_json(&v).map(StoreLine::Tile),
            Some(ENTRY_VERSION) => Ok(StoreLine::Entry(
                hex_field(&v, "key")?,
                parse_payload(&v, Frame::Window)?,
            )),
            _ => Err("unknown line version".into()),
        }
    }
}

fn append_error(e: std::io::Error) -> RuntimeError {
    RuntimeError::Io(format!("append checkpoint: {e}"))
}

/// A store's write side, and the one owner of its rule: a key's entry line
/// goes out once, in the same write as the first tile line of that key. A
/// key counts as written only once that write succeeded.
#[derive(Debug)]
pub(crate) struct Appender<W> {
    file: W,
    written: HashSet<u64>,
}

impl<W: Write> Appender<W> {
    pub(crate) fn new(file: W) -> Appender<W> {
        let written = HashSet::new();
        Appender { file, written }
    }

    /// Whether the next tile line of `key` must bring its entry line.
    pub(crate) fn wants_entry(&self, key: u64) -> bool {
        !self.written.contains(&key)
    }

    /// Appends `tile` — after `entry` while the key
    /// [wants](Appender::wants_entry) it — in one write, and flushes.
    /// `entry` may be `None` only where `wants_entry` said no.
    pub(crate) fn append(
        &mut self,
        key: u64,
        entry: Option<&str>,
        tile: &str,
    ) -> Result<(), RuntimeError> {
        let entry = entry.filter(|_| self.wants_entry(key));
        let lines: Vec<&str> = entry.into_iter().chain([tile]).collect();
        append_lines(&mut self.file, &lines).map_err(append_error)?;
        self.written.insert(key);
        Ok(())
    }
}

impl TileRecord {
    /// Serialises the record as one compact JSON line (no newline).
    pub fn to_json_line(&self) -> String {
        let mut members = vec![
            ("v", Json::Num(WHOLE_RECORD_VERSION)),
            ("tile", Json::num_usize(self.index)),
            ("name", Json::Str(self.name.clone())),
            ("hash", hex(self.input_hash)),
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

    /// Parses one [`TileRecord::to_json_line`] line back into a record.
    ///
    /// # Errors
    ///
    /// A message describing the malformed field (a store line is one).
    pub fn from_json_line(line: &str) -> Result<TileRecord, String> {
        let v = Json::parse(line)?;
        if v.get("v").and_then(Json::as_f64) != Some(WHOLE_RECORD_VERSION) {
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

    /// The JSONL checkpoint file path.
    pub fn tiles_path(&self) -> PathBuf {
        self.root.join("tiles.jsonl")
    }

    /// Loads the records the checkpoint stands for: each tile line whose
    /// entry is there and fits it, placed — the last such line per tile.
    /// Lines are parsed, and records placed, over the pool. Hash validation
    /// against the current partition happens in the run frame (it knows
    /// the tiles). A missing file is an empty map; dropped lines (see the
    /// module docs) simply re-execute their tiles.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] when the file exists but cannot be read.
    pub fn load_records(&self) -> Result<HashMap<usize, TileRecord>, RuntimeError> {
        let (mut entries, mut tiles) = (HashMap::new(), Vec::new());
        for (line, _) in load_jsonl(&self.tiles_path(), StoreLine::parse)?.0 {
            match line {
                StoreLine::Entry(key, entry) => {
                    entries.insert(key, entry);
                }
                StoreLine::Tile(tile) => tiles.push(tile),
            }
        }
        tiles.retain(|t| entries.get(&t.key).is_some_and(|e| t.placement.fits(e)));
        let place = |t: TileLine| {
            let entry = &entries[&t.key];
            (t.index, t.place(entry))
        };
        let records = map_on_pool(WorkerPool::global(), tiles, place);
        Ok(records.into_iter().collect())
    }

    /// Opens the checkpoint file for appending.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on open failure.
    pub fn append_handle(&self) -> Result<std::fs::File, RuntimeError> {
        open_append(&self.tiles_path())
    }

    /// Appends one [`TileRecord::to_json_line`] line and flushes it.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on write failure.
    pub fn append_record(
        file: &mut std::fs::File,
        record: &TileRecord,
    ) -> Result<(), RuntimeError> {
        append_lines(file, &[&record.to_json_line()]).map_err(append_error)
    }

    /// Writes the manifest JSON (atomically via a temp file + rename).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on write failure.
    pub fn write_manifest(&self, json: &str) -> Result<(), RuntimeError> {
        self.write("manifest.json", json)
    }

    /// Writes the timing-free manifest JSON (atomically, like
    /// [`RunDir::write_manifest`]): byte-identical across reruns, resumes,
    /// worker counts and cache states of the same input.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] on write failure.
    pub fn write_stable_manifest(&self, json: &str) -> Result<(), RuntimeError> {
        self.write("manifest.stable.json", json)
    }

    fn write(&self, name: &str, json: &str) -> Result<(), RuntimeError> {
        let path = self.root.join(name);
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

    /// `record()`'s pattern, window-relative (origin (1, -2), main 42 is
    /// local target 0), with a second assist that tile 3 does not keep.
    fn entry() -> CachedTile {
        let at = |x: f64, y: f64| Point::new(x - 1.0, y + 2.0);
        let r = record();
        let mut shapes = r.shapes.clone();
        for s in &mut shapes {
            s.control_points = s.control_points.iter().map(|p| at(p.x, p.y)).collect();
        }
        shapes[0].global_id = Some(0);
        shapes.insert(0, shapes[1].clone());
        CachedTile {
            owned_epe_history: r.owned_epe_history,
            epe_history: r.epe_history,
            shapes,
            metrics: r.metrics,
            seconds: 0.5,
        }
    }

    fn tile_line() -> TileLine {
        TileLine {
            index: 3,
            name: "gcd[0]:1x0".into(),
            input_hash: 0xdead_beef_cafe_f00d,
            key: 0xfeed_f00d_dead_beef,
            seconds: 1.75,
            placement: Placement {
                origin: Point::new(1.0, -2.0),
                ids: vec![42],
                keep: vec![1],
            },
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
        let line = tile_line().to_json_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(StoreLine::parse(&line[..cut]).is_err());
        }
    }

    #[test]
    fn placing_an_entry_rebuilds_the_record_and_lines_roundtrip() {
        let (entry, line) = (entry(), tile_line());
        assert!(line.placement.fits(&entry));
        let text = line.to_json_line();
        assert_eq!(StoreLine::parse(&text), Ok(StoreLine::Tile(line.clone())));
        let placed = line.clone().place(&entry);
        assert_eq!(placed.shapes.len(), 2);
        for (got, want) in placed.shapes.iter().zip(&record().shapes) {
            assert_eq!((got.global_id, got.is_sraf), (want.global_id, want.is_sraf));
        }
        // Not every placement fits: an id per main, assists that exist.
        for (ids, keep) in [
            (vec![], vec![1]),
            (vec![42, 43], vec![1]),
            (vec![42], vec![2]),
        ] {
            let misfit = Placement {
                ids,
                keep,
                ..line.placement.clone()
            };
            assert!(!misfit.fits(&entry), "{misfit:?}");
        }
        let twice = Placement {
            keep: vec![1, 1],
            ..line.placement
        };
        assert!(!twice.fits(&entry));
    }

    #[test]
    fn run_dir_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("cardopc-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = RunDir::open(&dir).unwrap();
        assert!(run.load_records().unwrap().is_empty());

        let mut sink = Appender::new(run.append_handle().unwrap());
        let (entry, a) = (entry(), tile_line());
        let entry_line = entry.to_json_line(a.key);
        let mut b = tile_line();
        (b.index, b.input_hash) = (5, 7);
        let mut orphan = tile_line();
        (orphan.index, orphan.input_hash, orphan.key) = (6, 9, 1);
        // The second tile of a key writes its line alone; a line whose
        // entry is missing (written so on purpose) is dropped.
        sink.append(a.key, Some(&entry_line), &a.to_json_line())
            .unwrap();
        sink.append(b.key, Some(&entry_line), &b.to_json_line())
            .unwrap();
        sink.append(orphan.key, None, &orphan.to_json_line())
            .unwrap();
        let text = std::fs::read_to_string(run.tiles_path()).unwrap();
        assert_eq!(text.lines().filter(|l| *l == entry_line).count(), 1);
        // Simulate a kill mid-append: a torn, unparseable final line.
        {
            use std::io::Write;
            let mut f = run.append_handle().unwrap();
            write!(f, "{}", &tile_line().to_json_line()[..40]).unwrap();
        }
        let records = run.load_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[&3], a.clone().place(&entry));
        assert_eq!(records[&5], b.place(&entry));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A key counts as written only once its write succeeded: after a
    /// failed append the next tile of the key still brings the entry.
    #[test]
    fn an_entry_line_is_written_once_with_a_tile_line_that_landed() {
        struct Flaky(Vec<u8>, bool);
        impl Write for Flaky {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
                if self.1 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0.extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Appender::new(Flaky(Vec::new(), true));
        assert!(sink.append(7, Some("entry"), "a").is_err());
        assert!(sink.wants_entry(7));
        sink.file.1 = false;
        sink.append(7, Some("entry"), "b").unwrap();
        assert!(!sink.wants_entry(7));
        sink.append(7, None, "c").unwrap();
        assert_eq!(sink.file.0, b"entry\nb\nc\n");
    }

    #[test]
    fn run_dir_lock_excludes_second_opener() {
        let dir = std::env::temp_dir().join(format!("cardopc-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = RunDir::open(&dir).unwrap();
        assert!(dir.join("run.lock").exists());

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

    /// One standalone record line as the commit before the payload codec
    /// was shared with the tile cache wrote it: it must still parse, and
    /// re-encode to the same bytes. No store reads it.
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
        // A store does not read it: it is neither an entry nor a tile line.
        assert!(StoreLine::parse(golden).is_err());
    }

    /// The tree encoder `TileLine::to_json_line` replaced, kept as its
    /// oracle.
    fn tile_line_by_tree(t: &TileLine) -> String {
        let p = &t.placement;
        let counts = |v: &[usize]| Json::Arr(v.iter().map(|&n| Json::num_usize(n)).collect());
        Json::obj(vec![
            ("v", Json::Num(RECORD_VERSION)),
            ("tile", Json::num_usize(t.index)),
            ("name", Json::Str(t.name.clone())),
            ("hash", Json::Str(format!("{:016x}", t.input_hash))),
            ("key", Json::Str(format!("{:016x}", t.key))),
            ("seconds", Json::Num(t.seconds)),
            ("origin", Json::num_arr(&[p.origin.x, p.origin.y])),
            ("ids", counts(&p.ids)),
            ("keep", counts(&p.keep)),
        ])
        .to_string_compact()
    }

    /// Where the direct tile-line reader reads `text` — or any truncation
    /// or byte-damaged copy of it — the tree parser reads the same line;
    /// it reads the writer's own line unless the line has an escape.
    fn assert_direct_read_is_the_tree_read(text: &str, draw: &mut impl FnMut() -> u64) {
        // Lines with escaped names are left to the tree.
        let direct = StoreLine::parse_tree(text).is_ok() && !text.contains('\\');
        assert_eq!(TileLine::read_written(text).is_some(), direct, "{text}");
        let bytes = text.as_bytes();
        let noise = b"0123456789.eE+-\"\\ ,:[]{}a\xc3";
        for _ in 0..8 {
            let mut damaged = bytes.to_vec();
            let byte = noise[draw() as usize % noise.len()];
            match draw() % 4 {
                0 => damaged.truncate(draw() as usize % bytes.len()),
                1 => damaged[draw() as usize % bytes.len()] = byte,
                2 => damaged.insert(draw() as usize % bytes.len(), byte),
                _ => damaged.push(byte),
            }
            let Ok(damaged) = String::from_utf8(damaged) else {
                continue;
            };
            if let Some(read) = TileLine::read_written(&damaged) {
                let tree = StoreLine::parse_tree(&damaged);
                assert_eq!(tree, Ok(StoreLine::Tile(read)), "{damaged}");
            }
        }
    }

    /// The direct tile-line writer against the tree encoder, on lines with
    /// escaped names, extreme hashes, awkward and non-finite numbers; every
    /// finite line parses back to itself, and the direct reader agrees
    /// with the tree parser on it and on damaged copies.
    #[test]
    fn direct_tile_line_writer_is_the_tree_encoder() {
        let mut lines = vec![tile_line()];
        let mut seed = 0x853c_49e6_748f_ea9bu64;
        let mut draw = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let names = ["gcd[0]:63x63", "q\"uote\\", "tab\tnl\n\u{1}", "é✓😀", ""];
        let reals = [0.0, -0.0, 0.1 + 0.2, -1536.0, 1e-7, 6.02e23, -512.5];
        let cases = std::env::var("PROPTEST_CASES").ok();
        let cases = cases.and_then(|v| v.parse().ok()).unwrap_or(256usize);
        for n in 0..cases {
            let mut line = tile_line();
            // Indices below 2^53: a count is an f64 on disk.
            line.index = (draw() >> 11 >> (n % 53)) as usize;
            line.name = names[n % names.len()].to_string();
            (line.input_hash, line.key) = (draw(), [0, u64::MAX, draw()][n % 3]);
            line.seconds = f64::from_bits(draw() >> 2);
            let real = |k: u64| reals[k as usize % reals.len()];
            line.placement.origin = Point::new(real(draw()), f64::from_bits(draw()));
            line.placement.ids = (0..draw() % 5).map(|_| draw() as usize % 100_000).collect();
            line.placement.keep = (0..draw() % 3).map(|k| k as usize).collect();
            lines.push(line);
        }
        let mut odd = tile_line();
        (odd.seconds, odd.placement.origin) = (f64::NAN, Point::new(f64::INFINITY, -0.0));
        lines.push(odd);
        for line in lines {
            let text = line.to_json_line();
            assert_eq!(text, tile_line_by_tree(&line), "{line:?}");
            assert_direct_read_is_the_tree_read(&text, &mut draw);
            let finite = [
                line.seconds,
                line.placement.origin.x,
                line.placement.origin.y,
            ];
            if finite.iter().all(|v| v.is_finite()) {
                assert_eq!(StoreLine::parse(&text), Ok(StoreLine::Tile(line)));
            } else {
                assert!(StoreLine::parse(&text).is_err());
            }
        }
    }

    /// One tile line as this format writes it.
    #[test]
    fn golden_tile_line_is_unchanged() {
        let golden = concat!(
            r#"{"v":2,"tile":3,"name":"gcd[0]:1x0","hash":"deadbeefcafef00d","#,
            r#""key":"feedf00ddeadbeef","seconds":1.75,"origin":[1,-2],"ids":[42],"keep":[1]}"#,
        );
        assert_eq!(tile_line().to_json_line(), golden);
        assert_eq!(StoreLine::parse(golden), Ok(StoreLine::Tile(tile_line())));
    }
}
