//! Hostile inputs for the run directory's store: a seeded harness damages
//! the `tiles.jsonl` of a finished array run — truncation at many offsets,
//! single-byte flips, a deleted entry line, an entry line whose control
//! point overflows to infinity, duplicated and reordered lines,
//! tile lines whose placement does not fit their entry — and checks every
//! case three ways: `load_records` does not panic; a resume re-executes
//! exactly the damaged tiles (the count is known because every damaged
//! line fails to parse or fit); and the resumed `manifest.stable.json` and
//! mask equal the undamaged run's. Undamaged, the checkpoint resumes whole
//! with no negative-zero timing.
//!
//! A flip sets a byte's high bit, so the byte is no longer UTF-8 and its
//! line is dropped. A flip to another ASCII character can turn one valid
//! digit into another, which no JSONL line without a checksum can detect;
//! those flips are only required not to panic the load.

use cardopc_geometry::{Point, Polygon, SplitMix64};
use cardopc_layout::Clip;
use cardopc_litho::WorkerPool;
use cardopc_opc::OpcConfig;
use cardopc_runtime::{
    run_clip_controlled, write_mask_gds, CacheConfig, MaskGdsOptions, RunConfig, RunControl,
    RunDir, RunManifest, StoreLine, TileCache, TilingConfig,
};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Columns × rows of the array: corners, edges and interior make 9
/// classes of congruent tiles over 36.
const ARRAY: usize = 6;

fn array_clip() -> Clip {
    const STEP: f64 = 1024.0;
    let mut wires = Vec::new();
    for row in 0..ARRAY {
        for col in 0..ARRAY {
            let at = |x: f64, y: f64| Point::new(col as f64 * STEP + x, row as f64 * STEP + y);
            wires.push(Polygon::rect(at(160.0, 256.0), at(864.0, 326.0)));
            wires.push(Polygon::rect(at(160.0, 640.0), at(640.0, 710.0)));
        }
    }
    let side = ARRAY as f64 * STEP;
    Clip::new("fuzz-array", side, side, wires)
}

fn config(run_dir: &Path) -> RunConfig {
    let mut opc = OpcConfig::large_scale();
    (opc.pitch, opc.iterations) = (16.0, 2);
    let tiling = TilingConfig {
        tile_size: 1024.0,
        halo: 512.0,
    };
    RunConfig {
        run_dir: Some(run_dir.to_path_buf()),
        ..RunConfig::new(opc, tiling)
    }
}

struct Harness {
    clip: Clip,
    pool: WorkerPool,
    /// Shared by every run, so a re-executed tile is a replay.
    cache: TileCache,
    root: PathBuf,
    cases: usize,
    /// The undamaged run: its checkpoint, each line parsed, and outputs.
    text: String,
    lines: Vec<(String, StoreLine)>,
    stable: String,
    mask: Vec<u8>,
}

impl Harness {
    fn new() -> Harness {
        let root = std::env::temp_dir().join(format!("cardopc-store-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut harness = Harness {
            clip: array_clip(),
            pool: WorkerPool::new(2),
            cache: TileCache::open(&CacheConfig::default()).unwrap(),
            root,
            cases: 0,
            text: String::new(),
            lines: Vec::new(),
            stable: String::new(),
            mask: Vec::new(),
        };
        let dir = harness.root.join("undamaged");
        let (manifest, mask) = harness.run(&dir);
        assert_eq!(manifest.executed, ARRAY * ARRAY);
        (harness.stable, harness.mask) = (manifest.to_json(false), mask);
        harness.text = std::fs::read_to_string(dir.join("tiles.jsonl")).unwrap();
        let parse = |l: &str| (l.to_string(), StoreLine::parse(l).unwrap());
        harness.lines = harness.text.lines().map(parse).collect();
        harness
    }

    /// Runs the job into `dir`: its manifest (whose stable form must be
    /// what it wrote) and its mask.
    fn run(&self, dir: &Path) -> (RunManifest, Vec<u8>) {
        let control = RunControl {
            cache: Some(&self.cache),
            ..RunControl::default()
        };
        let outcome = run_clip_controlled(&self.clip, &config(dir), &self.pool, &control);
        let outcome = outcome.unwrap();
        let on_disk = std::fs::read_to_string(dir.join("manifest.stable.json")).unwrap();
        assert_eq!(on_disk, outcome.manifest.to_json(false));
        let stitched = outcome.stitched.expect("the run completed");
        let mask = write_mask_gds(&stitched, self.clip.name(), &MaskGdsOptions::default());
        (outcome.manifest, mask.unwrap())
    }

    /// `(key, class size)` of every entry line.
    fn classes(&self) -> Vec<(u64, usize)> {
        let keys = self.lines.iter().filter_map(|(_, line)| match line {
            StoreLine::Entry(key, _) => Some(*key),
            StoreLine::Tile(_) => None,
        });
        let size = |key: u64| {
            let tiles = self.lines.iter().map(|(_, line)| line);
            tiles
                .filter(|l| matches!(l, StoreLine::Tile(t) if t.key == key))
                .count()
        };
        keys.map(|key| (key, size(key))).collect()
    }

    /// The tiles a resume from `damaged` cannot take from it: those whose
    /// tile line, or whose key's entry line, is not among its lines byte for
    /// byte.
    fn damaged_tiles(&self, damaged: &[u8]) -> usize {
        let kept: HashSet<&[u8]> = damaged
            .split(|&b| b == b'\n')
            .map(<[u8]>::trim_ascii)
            .collect();
        let intact = self
            .lines
            .iter()
            .filter(|(text, _)| kept.contains(text.as_bytes()));
        let (mut keys, mut tiles) = (HashSet::new(), Vec::new());
        for (_, line) in intact {
            match line {
                StoreLine::Entry(key, _) => {
                    keys.insert(*key);
                }
                StoreLine::Tile(tile) => tiles.push((tile.index, tile.key)),
            }
        }
        tiles.retain(|(_, key)| keys.contains(key));
        let resumed: HashSet<usize> = tiles.into_iter().map(|(index, _)| index).collect();
        ARRAY * ARRAY - resumed.len()
    }

    /// Loads `damaged` as a run directory's checkpoint, and resumes it.
    fn check(&mut self, what: &str, damaged: &[u8]) {
        let dir = self.root.join(format!("case-{}", self.cases));
        self.cases += 1;
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tiles.jsonl"), damaged).unwrap();
        let records = std::panic::catch_unwind(|| RunDir::open(&dir).unwrap().load_records());
        let records = records.unwrap_or_else(|_| panic!("{what}: load_records panicked"));
        let damaged_tiles = self.damaged_tiles(damaged);
        assert_eq!(
            records.unwrap().len(),
            ARRAY * ARRAY - damaged_tiles,
            "{what}"
        );
        let (manifest, mask) = self.run(&dir);
        assert_eq!(
            manifest.executed, damaged_tiles,
            "{what}: re-executed tiles"
        );
        assert!(
            manifest.to_json(false) == self.stable,
            "{what}: stable manifest differs"
        );
        assert!(mask == self.mask, "{what}: mask differs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The undamaged checkpoint with line `at` replaced by `line`.
    fn with_line(&self, at: usize, line: &str) -> Vec<u8> {
        let mut lines: Vec<&str> = self.lines.iter().map(|(text, _)| text.as_str()).collect();
        lines[at] = line;
        lines
            .iter()
            .flat_map(|l| [l.as_bytes(), b"\n"])
            .flatten()
            .copied()
            .collect()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn damaged_checkpoints_re_execute_exactly_the_damaged_tiles() {
    let mut h = Harness::new();
    let classes = h.classes();
    assert_eq!(classes.len(), 9, "one entry line per class");
    let text = h.text.clone().into_bytes();
    let mut rng = SplitMix64::new(0x5eed_f022);

    // Undamaged, the checkpoint resumes whole, and a run that executes
    // nothing spends +0 seconds — not the -0 of an empty float sum.
    let dir = h.root.join("undamaged");
    let (manifest, mask) = h.run(&dir);
    assert_eq!((manifest.executed, mask == h.mask), (0, true));
    let timed = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(timed.contains(r#""tile_seconds":0,"#), "{timed}");
    let table = manifest.render_table();
    assert!(!table.contains("-0"), "{table}");

    // Truncation: at random offsets, and around the first line ends.
    let ends = text
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(at, _)| at);
    let mut cuts: Vec<usize> = ends.take(4).flat_map(|at| [at - 1, at, at + 1]).collect();
    cuts.extend((0..24).map(|_| rng.range_usize(0, text.len())));
    for cut in cuts {
        h.check(&format!("truncated at {cut}"), &text[..cut]);
    }

    // Single-byte flips: anywhere (a newline's flip merges two lines), and
    // at every byte of one tile line, so each of its members is hit.
    let tile_at = h
        .lines
        .iter()
        .position(|(_, l)| matches!(l, StoreLine::Tile(_)));
    let line_start: usize = h.lines[..tile_at.unwrap()]
        .iter()
        .map(|(l, _)| l.len() + 1)
        .sum();
    let mut flips: Vec<usize> = (0..40).map(|_| rng.range_usize(0, text.len())).collect();
    flips.extend(line_start..line_start + h.lines[tile_at.unwrap()].0.len());
    for at in flips {
        let mut flipped = text.clone();
        flipped[at] ^= 0x80;
        h.check(&format!("byte {at} flipped"), &flipped);
    }

    // Each entry line deleted: its whole class re-executes.
    for (at, (_, line)) in h.lines.clone().iter().enumerate() {
        if let StoreLine::Entry(key, _) = line {
            let size = classes.iter().find(|(k, _)| k == key).unwrap().1;
            let deleted = h.with_line(at, "");
            assert_eq!(h.damaged_tiles(&deleted), size);
            h.check(&format!("entry line {at} deleted"), &deleted);
        }
    }

    // An entry whose first control point overflows to ±∞ does not parse,
    // so it is lost like a deleted one and its class re-executes.
    let (at, key) = (h.lines.iter().enumerate())
        .find_map(|(at, (_, line))| match line {
            StoreLine::Entry(key, _) => Some((at, *key)),
            StoreLine::Tile(_) => None,
        })
        .unwrap();
    let line = &h.lines[at].0;
    let first = line.find(r#""cps":["#).unwrap() + r#""cps":["#.len();
    let end = first + line[first..].find([',', ']']).unwrap();
    let overflowed = h.with_line(at, &format!("{}1e999{}", &line[..first], &line[end..]));
    let size = classes.iter().find(|(k, _)| *k == key).unwrap().1;
    assert_eq!(h.damaged_tiles(&overflowed), size);
    h.check("entry control point 1e999", &overflowed);

    // Duplicated and reordered lines lose nothing: entries and tiles may
    // come in any order, and any number of times.
    let undamaged = h.text.clone();
    let lines: Vec<&str> = undamaged.lines().collect();
    let mut cases = Vec::new();
    for round in 0..3 {
        let mut shuffled = lines.clone();
        rng.shuffle(&mut shuffled);
        cases.push((format!("reordered, round {round}"), shuffled));
        let mut doubled = lines.clone();
        for _ in 0..12 {
            let line = lines[rng.range_usize(0, lines.len())];
            doubled.insert(rng.range_usize(0, doubled.len() + 1), line);
        }
        cases.push((format!("duplicated, round {round}"), doubled));
    }
    for (what, lines) in cases {
        let damaged: Vec<u8> = lines
            .iter()
            .flat_map(|l| format!("{l}\n").into_bytes())
            .collect();
        assert_eq!(h.damaged_tiles(&damaged), 0);
        h.check(&what, &damaged);
    }

    // Tile lines whose placement does not fit their entry: one id too
    // many or too few, a kept assist past the last, one kept twice.
    let tile_lines: Vec<usize> = (0..h.lines.len())
        .filter(|&at| matches!(h.lines[at].1, StoreLine::Tile(_)))
        .collect();
    for misfit in 0..8 {
        let at = tile_lines[rng.range_usize(0, tile_lines.len())];
        let StoreLine::Tile(mut tile) = h.lines[at].1.clone() else {
            unreachable!()
        };
        let p = &mut tile.placement;
        match misfit % 4 {
            0 => p.ids.push(7),
            1 if !p.ids.is_empty() => {
                p.ids.pop();
            }
            2 | 1 => p.keep.push(p.keep.last().map_or(0, |k| k + 1) + 1000),
            _ => p.keep.push(p.keep.last().copied().unwrap_or_default()),
        }
        // A repeated assist needs one kept already.
        if misfit % 4 == 3 && p.keep.len() < 2 {
            p.keep.push(p.keep[0]);
        }
        let damaged = h.with_line(at, &tile.to_json_line());
        assert_eq!(h.damaged_tiles(&damaged), 1);
        h.check(&format!("misfit placement {misfit} on line {at}"), &damaged);
    }

    // A flip to any ASCII byte may leave a well-formed line with other
    // values; the load must still never panic.
    for _ in 0..300 {
        let at = rng.range_usize(0, text.len());
        let mut flipped = text.clone();
        flipped[at] = rng.range_usize(0x20, 0x7f) as u8;
        let dir = h.root.join("ascii");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tiles.jsonl"), &flipped).unwrap();
        let loaded = std::panic::catch_unwind(|| RunDir::open(&dir).unwrap().load_records());
        assert!(loaded.is_ok_and(|r| r.is_ok()), "byte {at} replaced");
    }
}
