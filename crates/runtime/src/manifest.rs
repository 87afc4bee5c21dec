//! The run manifest: per-tile and aggregate statistics of a tiled run.
//!
//! Two renderings: a human table for stdout, and JSON for tooling. The
//! JSON comes in two forms — with timing (`to_json(true)`, what the CLI
//! writes) and without (`to_json(false)`): the timing-free form contains
//! only quantities that are a pure function of the input (design, tiling,
//! per-tile metrics, aggregate scores), so two runs over the same input
//! produce byte-identical strings regardless of scheduler pool size, wall
//! time,
//! or whether tiles were resumed from a checkpoint.

use crate::json::{array, Object};
use crate::schedule::{ScheduleOutcome, TileResult};
use crate::stitch::Stitched;
use std::fmt::Write as _;

/// Per-tile summary row.
#[derive(Clone, Debug, PartialEq)]
pub struct TileSummary {
    /// Tile index.
    pub index: usize,
    /// Tile name (`clip:txxty`).
    pub name: String,
    /// Targets in the halo window.
    pub shapes: usize,
    /// Targets owned.
    pub owned: usize,
    /// Sum of |EPE| over owned sites, nm.
    pub epe_sum_nm: f64,
    /// EPE violations over owned sites.
    pub epe_violations: usize,
    /// Core-restricted PV-band area, nm².
    pub pvb_nm2: f64,
    /// MRC violations before/after the tile's resolve pass.
    pub mrc_initial: usize,
    /// MRC violations left after resolving.
    pub mrc_remaining: usize,
    /// Wall seconds spent correcting the tile.
    pub seconds: f64,
    /// Whether the tile was resumed from a checkpoint.
    pub resumed: bool,
    /// Whether the tile was replayed from the content-addressed tile
    /// cache.
    pub cached: bool,
}

/// Aggregate scores over the completed tiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Total targets (each counted once, by its owner tile).
    pub shapes: usize,
    /// Sum of |EPE| in nm.
    pub epe_sum_nm: f64,
    /// EPE violation count.
    pub epe_violations: usize,
    /// PV-band area, nm².
    pub pvb_nm2: f64,
    /// MRC violations before resolving, summed over tiles.
    pub mrc_initial: usize,
    /// MRC violations left after resolving, summed over tiles.
    pub mrc_remaining: usize,
    /// Cross-tile seam spacing violations found at stitch time.
    pub seam_violations: usize,
}

/// The manifest of one tiled run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Design/clip name.
    pub design: String,
    /// Grid columns.
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Core tile edge, nm.
    pub tile_size: f64,
    /// Halo margin, nm.
    pub halo: f64,
    /// Per-tile rows, sorted by tile index (completed tiles only).
    pub tiles: Vec<TileSummary>,
    /// Aggregates over the completed tiles.
    pub total: Aggregate,
    /// Aggregated owned-shape |EPE| per iteration (element-wise sum of
    /// the tiles' owned histories).
    pub epe_history: Vec<f64>,
    /// `true` when every tile of the partition completed.
    pub complete: bool,
    /// Tiles executed this run.
    pub executed: usize,
    /// Tiles resumed from checkpoints.
    pub resumed: usize,
    /// Tiles left unfinished.
    pub remaining: usize,
    /// Pool executors used.
    pub workers: usize,
    /// Executed tiles replayed from the tile cache.
    pub cache_hits: usize,
    /// Executed tiles corrected and fed into the tile cache (0 when no
    /// cache was attached).
    pub cache_misses: usize,
    /// End-to-end wall seconds of this run.
    pub wall_seconds: f64,
    /// Sum of per-tile correction seconds (executed tiles).
    pub tile_seconds: f64,
}

impl RunManifest {
    /// Assembles a manifest from the scheduler outcome and (when the run
    /// completed) the stitched mask.
    pub fn build(
        design: &str,
        partition: &crate::partition::Partition,
        outcome: &ScheduleOutcome,
        stitched: Option<&Stitched>,
        workers: usize,
        wall_seconds: f64,
    ) -> RunManifest {
        let tiles: Vec<TileSummary> = outcome.results.iter().map(summarize).collect();
        let mut total = Aggregate {
            seam_violations: stitched.map_or(0, |s| s.seam_violations.len()),
            ..Aggregate::default()
        };
        let mut epe_history: Vec<f64> = Vec::new();
        for t in &outcome.results {
            let m = &t.record.metrics;
            total.shapes += m.owned;
            total.epe_sum_nm += m.epe_sum_nm;
            total.epe_violations += m.epe_violations;
            total.pvb_nm2 += m.pvb_nm2;
            total.mrc_initial += m.mrc_initial;
            total.mrc_remaining += m.mrc_remaining;
            if epe_history.len() < t.record.owned_epe_history.len() {
                epe_history.resize(t.record.owned_epe_history.len(), 0.0);
            }
            for (acc, v) in epe_history.iter_mut().zip(&t.record.owned_epe_history) {
                *acc += v;
            }
        }
        RunManifest {
            design: design.to_string(),
            nx: partition.nx,
            ny: partition.ny,
            tile_size: partition.config.tile_size,
            halo: partition.config.halo,
            tiles,
            total,
            epe_history,
            complete: outcome.remaining == 0,
            executed: outcome.executed,
            resumed: outcome.resumed,
            remaining: outcome.remaining,
            workers,
            cache_hits: outcome.cache_hits,
            cache_misses: outcome.cache_misses,
            wall_seconds,
            tile_seconds: outcome.tile_seconds,
        }
    }

    /// Worker utilization: correction seconds per executor-second of wall
    /// time (1.0 = every executor busy correcting for the whole run).
    pub fn utilization(&self) -> f64 {
        if self.wall_seconds > 0.0 && self.workers > 0 {
            self.tile_seconds / (self.workers as f64 * self.wall_seconds)
        } else {
            0.0
        }
    }

    /// Serialises the manifest as JSON.
    ///
    /// With `include_timing` the output carries seconds, worker counts and
    /// execute/resume tallies. Without, it is restricted to
    /// input-determined quantities and is **byte-identical** across
    /// reruns, scheduler pool sizes, and checkpoint resumes of the same
    /// input — the form tests and CI compare.
    ///
    /// Written straight into one string (no tree): the bytes are the tree
    /// encoder's, which the tests keep as the oracle.
    pub fn to_json(&self, include_timing: bool) -> String {
        let per_tile = if include_timing { 240 } else { 190 };
        let history = 24 * self.epe_history.len();
        let mut out = String::with_capacity(512 + per_tile * self.tiles.len() + history);
        let mut o = Object::open(&mut out);
        o.str("design", &self.design)
            .count("nx", self.nx)
            .count("ny", self.ny)
            .num("tile_size", self.tile_size)
            .num("halo", self.halo)
            .bool("complete", self.complete);
        array(o.member("tiles"), &self.tiles, |out, t| {
            let mut tile = Object::open(out);
            tile.count("tile", t.index)
                .str("name", &t.name)
                .count("shapes", t.shapes)
                .count("owned", t.owned)
                .num("epe_sum_nm", t.epe_sum_nm)
                .count("epe_violations", t.epe_violations)
                .num("pvb_nm2", t.pvb_nm2)
                .count("mrc_initial", t.mrc_initial)
                .count("mrc_remaining", t.mrc_remaining);
            if include_timing {
                tile.num("seconds", t.seconds)
                    .bool("resumed", t.resumed)
                    .bool("cached", t.cached);
            }
            tile.close();
        });
        let total = &self.total;
        let mut t = Object::open(o.member("total"));
        t.count("shapes", total.shapes)
            .num("epe_sum_nm", total.epe_sum_nm)
            .count("epe_violations", total.epe_violations)
            .num("pvb_nm2", total.pvb_nm2)
            .count("mrc_initial", total.mrc_initial)
            .count("mrc_remaining", total.mrc_remaining)
            .count("seam_violations", total.seam_violations);
        t.close();
        o.nums("epe_history", &self.epe_history);
        if include_timing {
            o.count("executed", self.executed)
                .count("resumed", self.resumed)
                .count("remaining", self.remaining)
                .count("workers", self.workers)
                .count("cache_hits", self.cache_hits)
                .count("cache_misses", self.cache_misses)
                .num("wall_seconds", self.wall_seconds)
                .num("tile_seconds", self.tile_seconds)
                .num("utilization", self.utilization());
        }
        o.close();
        out
    }

    /// Renders the manifest as a fixed-width table for the terminal.
    ///
    /// A tile row is written field by field ([`put_row`]): integers from
    /// their digits, the two fixed-point columns by integer arithmetic
    /// wherever that provably rounds as the formatter does — the bytes of
    /// `format!` throughout, at a fraction of its cost over thousands of
    /// rows.
    pub fn render_table(&self) -> String {
        let mut out = String::with_capacity(101 * (self.tiles.len() + 4));
        let _ = writeln!(
            out,
            "run: {}  grid {}x{}  tile {} nm  halo {} nm  workers {}",
            self.design, self.nx, self.ny, self.tile_size, self.halo, self.workers
        );
        let _ = writeln!(
            out,
            "{:>5} {:<18} {:>7} {:>7} {:>12} {:>7} {:>14} {:>5} {:>8} {:>8}",
            "tile", "name", "shapes", "owned", "epe[nm]", "viol", "pvb[nm2]", "mrc", "sec", "state"
        );
        for t in &self.tiles {
            put_row(&mut out, t);
        }
        let _ = writeln!(
            out,
            "{:>5} {:<18} {:>7} {:>7} {:>12.2} {:>7} {:>14.0} {:>5} {:>8.2}",
            "all",
            if self.complete { "complete" } else { "PARTIAL" },
            "",
            self.total.shapes,
            self.total.epe_sum_nm,
            self.total.epe_violations,
            self.total.pvb_nm2,
            self.total.mrc_remaining,
            self.tile_seconds,
        );
        let _ = writeln!(
            out,
            "seam spacing violations: {}   wall {:.2} s   utilization {:.0}%",
            self.total.seam_violations,
            self.wall_seconds,
            100.0 * self.utilization()
        );
        out
    }
}

/// The state column of a tile row.
fn state(t: &TileSummary) -> &'static str {
    if t.resumed {
        "resumed"
    } else if t.cached {
        "cached"
    } else {
        "run"
    }
}

/// One tile row of [`RunManifest::render_table`]: the bytes of
/// `"{:>5} {:<18} {:>7} {:>7} {:>12.2} {:>7} {:>14.0} {:>5} {:>8.2} {:>8}\n"`
/// over the row's fields.
fn put_row(out: &mut String, t: &TileSummary) {
    put_count(out, t.index, 5);
    out.push(' ');
    out.push_str(&t.name);
    pad(out, 18usize.saturating_sub(t.name.chars().count()));
    out.push(' ');
    put_count(out, t.shapes, 7);
    out.push(' ');
    put_count(out, t.owned, 7);
    out.push(' ');
    put_fixed(out, t.epe_sum_nm, 12, 2);
    out.push(' ');
    put_count(out, t.epe_violations, 7);
    out.push(' ');
    put_fixed(out, t.pvb_nm2, 14, 0);
    out.push(' ');
    put_count(out, t.mrc_remaining, 5);
    out.push(' ');
    put_fixed(out, t.seconds, 8, 2);
    out.push(' ');
    let state = state(t);
    pad(out, 8 - state.len());
    out.push_str(state);
    out.push('\n');
}

fn pad(out: &mut String, spaces: usize) {
    out.extend(std::iter::repeat_n(' ', spaces));
}

/// `v`'s decimal digits right-aligned in `width` (`{:>width}`).
fn put_count(out: &mut String, v: usize, width: usize) {
    put_digits(out, v as u64, false, 0, width);
}

/// `-` when `negative`, then `n` in decimal with its last `decimals`
/// digits after a point (at least one digit before it), right-aligned in
/// `width`.
fn put_digits(out: &mut String, mut n: u64, negative: bool, decimals: usize, width: usize) {
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let mut written = 0;
    while written <= decimals || n > 0 {
        if written == decimals && decimals > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        written += 1;
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    pad(out, width.saturating_sub(buf.len() - at));
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Largest `|v| · 10^decimals` [`put_fixed`] rounds itself: below 2^40
/// the product lies within 2^-13 of the exact scaled value.
const FIXED_LIMIT: f64 = (1u64 << 40) as f64;

/// How far from a half the product's fraction must lie for its rounding
/// to be the exact value's: more than the product's error, with room.
const FIXED_MARGIN: f64 = 1.0 / 1024.0;

/// `format!("{v:>width$.decimals$}")`'s bytes. The formatter rounds the
/// exact binary value, ties to even; the scaled product rounds alike unless
/// it sits within [`FIXED_MARGIN`] of a half — there, and for non-finite
/// or large values, the formatter writes it.
fn put_fixed(out: &mut String, v: f64, width: usize, decimals: usize) {
    let scaled = v.abs() * [1.0, 10.0, 100.0][decimals];
    if scaled < FIXED_LIMIT {
        let whole = scaled as u64;
        let frac = scaled - whole as f64;
        if (frac - 0.5).abs() > FIXED_MARGIN {
            let rounded = whole + (frac > 0.5) as u64;
            return put_digits(out, rounded, v.is_sign_negative(), decimals, width);
        }
    }
    let _ = write!(out, "{v:>width$.decimals$}");
}

fn summarize(t: &TileResult) -> TileSummary {
    let m = &t.record.metrics;
    TileSummary {
        index: t.record.index,
        name: t.record.name.clone(),
        shapes: m.shapes,
        owned: m.owned,
        epe_sum_nm: m.epe_sum_nm,
        epe_violations: m.epe_violations,
        pvb_nm2: m.pvb_nm2,
        mrc_initial: m.mrc_initial,
        mrc_remaining: m.mrc_remaining,
        seconds: t.record.seconds,
        resumed: t.resumed,
        cached: t.cached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{TileMetrics, TileRecord};
    use crate::json::Json;
    use crate::partition::{partition_clip, TilingConfig};
    use cardopc_geometry::{Point, Polygon};
    use cardopc_layout::Clip;

    fn outcome() -> (crate::partition::Partition, ScheduleOutcome) {
        let clip = Clip::new(
            "man-test",
            1000.0,
            1000.0,
            vec![Polygon::rect(
                Point::new(100.0, 100.0),
                Point::new(300.0, 170.0),
            )],
        );
        let partition = partition_clip(
            &clip,
            &TilingConfig {
                tile_size: 500.0,
                halo: 100.0,
            },
        )
        .unwrap();
        let record = |index: usize, seconds: f64| TileRecord {
            index,
            name: format!("man-test:{}x0", index),
            input_hash: index as u64,
            owned_epe_history: vec![4.0, 2.0],
            epe_history: vec![5.0, 3.0],
            shapes: Vec::new(),
            metrics: TileMetrics {
                shapes: 2,
                owned: 1,
                epe_sum_nm: 2.5,
                epe_violations: 1,
                pvb_nm2: 100.0,
                mrc_initial: 1,
                mrc_remaining: 0,
            },
            seconds,
        };
        let sched = ScheduleOutcome {
            results: vec![
                TileResult {
                    record: record(0, 1.0),
                    resumed: false,
                    cached: false,
                },
                TileResult {
                    record: record(1, 9.0),
                    resumed: true,
                    cached: false,
                },
            ],
            executed: 1,
            resumed: 1,
            remaining: 0,
            cancelled: false,
            tile_seconds: 1.0,
            cache_hits: 0,
            cache_misses: 0,
        };
        (partition, sched)
    }

    impl RunManifest {
        /// The tree encoder `to_json` replaced, kept as its oracle.
        fn to_json_tree(&self, include_timing: bool) -> String {
            let tiles = Json::Arr(
                self.tiles
                    .iter()
                    .map(|t| {
                        let mut fields = vec![
                            ("tile", Json::num_usize(t.index)),
                            ("name", Json::Str(t.name.clone())),
                            ("shapes", Json::num_usize(t.shapes)),
                            ("owned", Json::num_usize(t.owned)),
                            ("epe_sum_nm", Json::Num(t.epe_sum_nm)),
                            ("epe_violations", Json::num_usize(t.epe_violations)),
                            ("pvb_nm2", Json::Num(t.pvb_nm2)),
                            ("mrc_initial", Json::num_usize(t.mrc_initial)),
                            ("mrc_remaining", Json::num_usize(t.mrc_remaining)),
                        ];
                        if include_timing {
                            fields.push(("seconds", Json::Num(t.seconds)));
                            fields.push(("resumed", Json::Bool(t.resumed)));
                            fields.push(("cached", Json::Bool(t.cached)));
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            );
            let total = Json::obj(vec![
                ("shapes", Json::num_usize(self.total.shapes)),
                ("epe_sum_nm", Json::Num(self.total.epe_sum_nm)),
                ("epe_violations", Json::num_usize(self.total.epe_violations)),
                ("pvb_nm2", Json::Num(self.total.pvb_nm2)),
                ("mrc_initial", Json::num_usize(self.total.mrc_initial)),
                ("mrc_remaining", Json::num_usize(self.total.mrc_remaining)),
                (
                    "seam_violations",
                    Json::num_usize(self.total.seam_violations),
                ),
            ]);
            let mut fields = vec![
                ("design", Json::Str(self.design.clone())),
                ("nx", Json::num_usize(self.nx)),
                ("ny", Json::num_usize(self.ny)),
                ("tile_size", Json::Num(self.tile_size)),
                ("halo", Json::Num(self.halo)),
                ("complete", Json::Bool(self.complete)),
                ("tiles", tiles),
                ("total", total),
                ("epe_history", Json::num_arr(&self.epe_history)),
            ];
            if include_timing {
                fields.push(("executed", Json::num_usize(self.executed)));
                fields.push(("resumed", Json::num_usize(self.resumed)));
                fields.push(("remaining", Json::num_usize(self.remaining)));
                fields.push(("workers", Json::num_usize(self.workers)));
                fields.push(("cache_hits", Json::num_usize(self.cache_hits)));
                fields.push(("cache_misses", Json::num_usize(self.cache_misses)));
                fields.push(("wall_seconds", Json::Num(self.wall_seconds)));
                fields.push(("tile_seconds", Json::Num(self.tile_seconds)));
                fields.push(("utilization", Json::Num(self.utilization())));
            }
            Json::obj(fields).to_string_compact()
        }
    }

    #[test]
    fn aggregates_and_history_sum_over_tiles() {
        let (p, sched) = outcome();
        let m = RunManifest::build("man-test", &p, &sched, None, 2, 0.5);
        assert_eq!(m.total.shapes, 2);
        assert_eq!(m.total.epe_sum_nm, 5.0);
        assert_eq!(m.total.epe_violations, 2);
        assert_eq!(m.epe_history, vec![8.0, 4.0]);
        assert!(m.complete);
        assert!((m.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timing_free_json_ignores_resume_and_timing() {
        let (p, mut sched) = outcome();
        let m1 = RunManifest::build("man-test", &p, &sched, None, 2, 0.5);
        // Same records, different timing/resume provenance.
        sched.results[1].resumed = false;
        sched.results[0].record.seconds = 99.0;
        sched.executed = 2;
        sched.resumed = 0;
        let m2 = RunManifest::build("man-test", &p, &sched, None, 7, 123.0);
        assert_eq!(m1.to_json(false), m2.to_json(false));
        assert_ne!(m1.to_json(true), m2.to_json(true));
        // Parseable by our own reader.
        assert!(Json::parse(&m1.to_json(true)).is_ok());
    }

    /// The direct writer against the tree encoder, timed and timing-free,
    /// with names that need escapes and numbers that are not finite.
    #[test]
    fn direct_writer_is_the_tree_encoder() {
        let (p, mut sched) = outcome();
        let mut manifests = vec![RunManifest::build("man-test", &p, &sched, None, 2, 0.5)];
        sched.results[0].record.name = "q\"uote\\back\nline\t\u{1}é✓".into();
        sched.results[0].record.metrics.epe_sum_nm = f64::NAN;
        sched.results[1].record.metrics.pvb_nm2 = f64::INFINITY;
        sched.results[1].record.seconds = -0.0;
        sched.results[1].record.owned_epe_history = vec![f64::NEG_INFINITY, 0.1 + 0.2, 1e300];
        sched.tile_seconds = f64::NAN;
        let odd = RunManifest::build("de\"sign\u{7f}\r", &p, &sched, None, 0, -0.0);
        manifests.push(odd);
        let empty = ScheduleOutcome {
            results: Vec::new(),
            remaining: 2,
            tile_seconds: -0.0,
            ..ScheduleOutcome::default()
        };
        manifests.push(RunManifest::build("", &p, &empty, None, usize::MAX, 1e-310));
        for m in &manifests {
            for timing in [false, true] {
                assert_eq!(m.to_json(timing), m.to_json_tree(timing), "timing {timing}");
            }
        }
    }

    /// A tile row as the formatter writes it: the row writer's oracle.
    fn row_by_format(t: &TileSummary) -> String {
        format!(
            "{:>5} {:<18} {:>7} {:>7} {:>12.2} {:>7} {:>14.0} {:>5} {:>8.2} {:>8}\n",
            t.index,
            t.name,
            t.shapes,
            t.owned,
            t.epe_sum_nm,
            t.epe_violations,
            t.pvb_nm2,
            t.mrc_remaining,
            t.seconds,
            state(t)
        )
    }

    fn check_row(t: &TileSummary) {
        let mut got = String::new();
        put_row(&mut got, t);
        assert_eq!(got, row_by_format(t), "{t:?}");
    }

    #[test]
    fn direct_rows_are_the_formatted_rows() {
        let base = TileSummary {
            index: 7,
            name: "array:3x12".into(),
            shapes: 12,
            owned: 2,
            epe_sum_nm: 29.28,
            epe_violations: 0,
            pvb_nm2: 19_710.0,
            mrc_initial: 3,
            mrc_remaining: 0,
            seconds: 0.0,
            resumed: true,
            cached: false,
        };
        // Ties of the binary value (0.125, 2.5: half to even), values one
        // rounding away from a tie (0.005), signed zero, large, huge and
        // non-finite values, in every fixed-point column.
        let mut values = vec![
            0.0,
            -0.0,
            0.005,
            0.125,
            0.375,
            2.5,
            3.5,
            0.5,
            1.5,
            1e15,
            -1e15,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            FIXED_LIMIT,
            FIXED_LIMIT / 100.0,
            (FIXED_LIMIT / 100.0).next_down(),
            0.994999,
            0.995,
            0.9951,
            9.995,
            99.995,
            999_999.995,
            -0.004,
            -0.006,
            -2.5,
            123_456.789,
        ];
        let mut rng = cardopc_geometry::SplitMix64::new(45);
        for _ in 0..3000 {
            let k = rng.range_f64(-1e7, 1e7).round();
            let scale = [1.0, 10.0, 100.0][rng.range_usize(0, 3)];
            let mut v = (k + 0.5) / scale;
            for _ in 0..rng.range_usize(0, 3) {
                v = if rng.chance(0.5) {
                    v.next_up()
                } else {
                    v.next_down()
                };
            }
            values.extend([v, rng.range_f64(-1e4, 1e4), rng.range_f64(0.0, 1e9)]);
            values.push(f64::from_bits(rng.next_u64()));
        }
        for v in values {
            check_row(&TileSummary {
                epe_sum_nm: v,
                pvb_nm2: v,
                seconds: v,
                ..base.clone()
            });
        }
        // Counts, names and states.
        for (index, name) in [
            (0, ""),
            (99_999, "x"),
            (123_456, "a-much-longer-name:64x64"),
            (5, "ünïcödé:1x1"),
        ] {
            for (resumed, cached) in [(true, false), (false, true), (false, false)] {
                check_row(&TileSummary {
                    index,
                    name: name.into(),
                    shapes: usize::MAX,
                    owned: 10_000_000,
                    epe_violations: 1,
                    mrc_remaining: 123_456,
                    resumed,
                    cached,
                    ..base.clone()
                });
            }
        }
    }

    #[test]
    fn table_renders_every_tile() {
        let (p, sched) = outcome();
        let m = RunManifest::build("man-test", &p, &sched, None, 2, 0.5);
        let table = m.render_table();
        assert!(table.contains("man-test:0x0"));
        assert!(table.contains("resumed"));
        assert!(table.contains("complete"));
    }
}
