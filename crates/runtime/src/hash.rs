//! The one tile hash: FNV-1a over a tile's window geometry and — through
//! `OpcConfig::walk` — every configuration field.
//!
//! Checkpoint validation ([`tile_input_hash`]) and the tile cache
//! ([`tile_cache_key`]) hash the same content; they differ only in whether
//! the tile's position on the chip is part of it. Both are one byte stream
//! ([`Stream::tile`], then the configuration's fields), so the two can
//! never disagree about what a tile's input *is*.
//!
//! A run hashes thousands of tiles, and FNV-1a over one stream is a chain
//! of dependent multiplies, one per byte. [`TileHasher::hash_all`] writes
//! [`LANES`] tiles' streams into one reused buffer — the configuration's
//! bytes serialised once per hasher — and runs that many independent
//! FNV-1a chains in lockstep, so the multiplier is busy every cycle. The
//! values are the one-stream values bit for bit.

use crate::map_on_pool;
use crate::partition::{Tile, TilingConfig};
use cardopc_litho::WorkerPool;
use cardopc_opc::{FieldVisitor, OpcConfig, Value};
use std::convert::Infallible;

/// Bumped whenever the cache key's composition or the stored-value
/// semantics change, so stale stores from older builds can never replay.
const KEY_VERSION: u8 = 6;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streams hashed side by side: four chains keep a 3-cycle multiplier
/// busy with the xor between them.
const LANES: usize = 4;

/// Tiles per pool task of [`TileHasher::hash_on`].
const POOL_BATCH: usize = 16;

/// Canonical bit pattern of an `f64` for hashing: `-0.0` folds onto `0.0`
/// (they compare equal, and geometry that differs only in signed zeros is
/// identical) and every NaN payload folds onto one canonical NaN, so a
/// hash can never distinguish values the geometry itself cannot.
pub(crate) fn canon_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0u64 // +0.0; catches -0.0 too, since -0.0 == 0.0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// 64-bit FNV-1a of `bytes`, continuing from state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of [`LANES`] streams at once: the chains advance together, a
/// word of each stream per step, over the length all of them have; each
/// finishes its own tail alone.
fn fnv1a_lanes(streams: [&[u8]; LANES]) -> [u64; LANES] {
    let mut h = [FNV_OFFSET; LANES];
    let common = streams.iter().map(|s| s.len()).min().unwrap_or(0) / 8;
    for w in 0..common {
        let words: [u64; LANES] = std::array::from_fn(|l| {
            let at = &streams[l][8 * w..8 * w + 8];
            u64::from_le_bytes(at.try_into().expect("eight bytes"))
        });
        for k in 0..8 {
            for l in 0..LANES {
                h[l] = (h[l] ^ ((words[l] >> (8 * k)) & 0xff)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    std::array::from_fn(|l| fnv1a(h[l], &streams[l][8 * common..]))
}

/// Where a hashed byte stream goes: a buffer, for [`fnv1a_lanes`] to
/// hash later, or one FNV-1a state that hashes each byte as it comes (a
/// single tile, with nothing to hash beside it).
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// One FNV-1a state.
struct Fnv(u64);

impl Sink for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// The hashed byte stream: values as the bytes hashed.
struct Stream<'s, S: Sink>(&'s mut S);

impl<S: Sink> Stream<'_, S> {
    fn byte(&mut self, v: u8) {
        self.0.put(&[v]);
    }

    fn f64(&mut self, v: f64) {
        self.0.put(&canon_f64_bits(v).to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.0.put(&(v as u64).to_le_bytes());
    }

    /// A tile's part of the stream under `canonical` (see [`TileHasher`]);
    /// the configuration's bytes follow it.
    fn tile(&mut self, tile: &Tile, canonical: Option<(u8, &TilingConfig)>) {
        match canonical {
            Some((version, _)) => self.byte(version),
            None => {
                self.usize(tile.index);
                self.usize(tile.tx);
                self.usize(tile.ty);
                self.f64(tile.origin.x);
                self.f64(tile.origin.y);
            }
        }
        self.f64(tile.clip.width());
        self.f64(tile.clip.height());
        if let Some((_, tiling)) = canonical {
            self.f64(tiling.tile_size);
            self.f64(tiling.halo);
        }
        let targets = tile.clip.targets();
        self.usize(targets.len());
        for ((target, gid), owned) in targets.iter().zip(&tile.global_ids).zip(&tile.owned) {
            if canonical.is_none() {
                self.usize(*gid);
            }
            self.byte(*owned as u8);
            self.usize(target.len());
            for v in target.vertices() {
                self.f64(v.x);
                self.f64(v.y);
            }
        }
    }
}

/// One tile's hash, each byte hashed as it is produced.
fn hash_one(tile: &Tile, config: &OpcConfig, canonical: Option<(u8, &TilingConfig)>) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    let mut stream = Stream(&mut h);
    stream.tile(tile, canonical);
    let Ok(_) = config.walk(&mut stream);
    h.0
}

/// The configuration's bytes as a visitor of `OpcConfig::walk`: the walk
/// is exhaustive, so a new configuration knob can never be left out of
/// checkpoint hashes or cache keys. A group writes its switch byte before
/// its fields; precision writes its tag, so f32 and f64 runs never alias.
impl<S: Sink> FieldVisitor for Stream<'_, S> {
    type Error = Infallible;
    fn visit(&mut self, _: &'static str, value: Value) -> Result<Value, Infallible> {
        match value {
            Value::Real(v, _) => self.f64(v),
            Value::Count(v, _) => self.usize(v),
            Value::Flag(v) | Value::Group(v, _) => self.byte(v as u8),
            Value::Precision(v) => self.byte(v.tag()),
        }
        Ok(value)
    }
}

/// One of the two tile hashes under one configuration, whose bytes it
/// holds, serialised once.
///
/// A tile's stream is its window extent, every target's ownership flag
/// and vertices (window coordinates — the partitioner has already
/// subtracted the origin), then every `OpcConfig` field. What surrounds
/// that content decides which hash it is:
///
/// - [`TileHasher::input`] adds the tile's position (index, grid cell,
///   origin) and each target's global id: the identity of *this* tile of
///   *this* chip, [`tile_input_hash`].
/// - [`TileHasher::key`] adds a key-version byte and the
///   `(tile_size, halo)` split instead — the core's placement inside the
///   window, and with it PV-band restriction and SRAF seam ownership,
///   depends on the split and not just on the extent — and nothing
///   positional: the translation-normalised [`tile_cache_key`].
pub(crate) struct TileHasher<'t> {
    canonical: Option<(u8, &'t TilingConfig)>,
    config: Vec<u8>,
}

impl<'t> TileHasher<'t> {
    /// The checkpoint input hash under `config`.
    pub(crate) fn input(config: &OpcConfig) -> TileHasher<'t> {
        TileHasher::new(config, None)
    }

    /// The cache key under `tiling` and `config`.
    pub(crate) fn key(tiling: &'t TilingConfig, config: &OpcConfig) -> TileHasher<'t> {
        TileHasher::new(config, Some((KEY_VERSION, tiling)))
    }

    fn new(config: &OpcConfig, canonical: Option<(u8, &'t TilingConfig)>) -> TileHasher<'t> {
        let mut bytes = Vec::new();
        let Ok(_) = config.walk(&mut Stream(&mut bytes));
        TileHasher {
            canonical,
            config: bytes,
        }
    }

    /// Appends `tile`'s stream to `out`.
    fn stream(&self, tile: &Tile, out: &mut Vec<u8>) {
        let targets = tile.clip.targets();
        let vertices: usize = targets.iter().map(|t| t.len()).sum();
        out.reserve(64 + 17 * targets.len() + 16 * vertices + self.config.len());
        Stream(&mut *out).tile(tile, self.canonical);
        out.extend_from_slice(&self.config);
    }

    /// The hashes of `tiles`, in order, [`LANES`] at a time. A short last
    /// batch fills its idle lanes with its first stream again.
    pub(crate) fn hash_all(&self, tiles: &[&Tile]) -> Vec<u64> {
        let mut hashes = Vec::with_capacity(tiles.len());
        let mut bytes = Vec::new();
        for batch in tiles.chunks(LANES) {
            bytes.clear();
            let mut ends = [0; LANES];
            for (end, tile) in ends.iter_mut().zip(batch) {
                self.stream(tile, &mut bytes);
                *end = bytes.len();
            }
            let streams = std::array::from_fn(|l| match l {
                0 => &bytes[..ends[0]],
                l if l < batch.len() => &bytes[ends[l - 1]..ends[l]],
                _ => &bytes[..ends[0]],
            });
            hashes.extend_from_slice(&fnv1a_lanes(streams)[..batch.len()]);
        }
        hashes
    }

    /// [`TileHasher::hash_all`] over `pool`, a batch of tiles per task
    /// ([`map_on_pool`]): the result is the same for any pool size.
    pub(crate) fn hash_on(&self, pool: &WorkerPool, tiles: &[&Tile]) -> Vec<u64> {
        let batches = tiles.chunks(POOL_BATCH).collect();
        map_on_pool(pool, batches, |batch| self.hash_all(batch)).concat()
    }
}

/// Hashes a tile's complete input: identity, window geometry, every
/// target's vertices and ownership, and the OPC configuration. Any change
/// to any of these invalidates the tile's checkpoint record.
pub fn tile_input_hash(tile: &Tile, config: &OpcConfig) -> u64 {
    hash_one(tile, config, None)
}

/// The canonical, translation-normalised content key of a tile.
///
/// Two tiles share a key exactly when their halo windows hold bitwise
/// congruent geometry (same window-relative target vertices, same
/// ownership flags), the same `(tile_size, halo)` split, and the same
/// complete OPC configuration — in which case their corrections are the
/// same pure function of the window and one can replay for the other by
/// translation. Tile position (index, grid cell, origin) and global
/// target ids are excluded; they are reapplied at replay time.
pub fn tile_cache_key(tile: &Tile, tiling: &TilingConfig, config: &OpcConfig) -> u64 {
    hash_one(tile, config, Some((KEY_VERSION, tiling)))
}

/// [`tile_cache_key`] of every tile of `tiles`, in order, hashed in lanes
/// on [`WorkerPool::global`].
pub fn tile_cache_keys(tiles: &[&Tile], tiling: &TilingConfig, config: &OpcConfig) -> Vec<u64> {
    TileHasher::key(tiling, config).hash_on(WorkerPool::global(), tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_clip;
    use cardopc_geometry::{Point, Polygon, SplitMix64};
    use cardopc_layout::Clip;

    /// 64-bit FNV-1a fed value by value, one byte at a time: the hash the
    /// byte streams and lanes replaced, kept as their oracle.
    struct ByteFnv(u64);

    impl ByteFnv {
        fn new() -> ByteFnv {
            ByteFnv(0xcbf2_9ce4_8422_2325)
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn write_f64(&mut self, v: f64) {
            self.write(&canon_f64_bits(v).to_le_bytes());
        }

        fn write_usize(&mut self, v: usize) {
            self.write(&(v as u64).to_le_bytes());
        }
    }

    impl FieldVisitor for ByteFnv {
        type Error = Infallible;
        fn visit(&mut self, _: &'static str, value: Value) -> Result<Value, Infallible> {
            match value {
                Value::Real(v, _) => self.write_f64(v),
                Value::Count(v, _) => self.write_usize(v),
                Value::Flag(v) | Value::Group(v, _) => self.write(&[v as u8]),
                Value::Precision(v) => self.write(&[v.tag()]),
            }
            Ok(value)
        }
    }

    /// The one-tile walk the streams replaced: every value straight into
    /// the hash, the configuration walked per tile.
    fn hash_tile(tile: &Tile, config: &OpcConfig, canonical: Option<(u8, &TilingConfig)>) -> u64 {
        let mut h = ByteFnv::new();
        match canonical {
            Some((version, _)) => h.write(&[version]),
            None => {
                h.write_usize(tile.index);
                h.write_usize(tile.tx);
                h.write_usize(tile.ty);
                h.write_f64(tile.origin.x);
                h.write_f64(tile.origin.y);
            }
        }
        h.write_f64(tile.clip.width());
        h.write_f64(tile.clip.height());
        if let Some((_, tiling)) = canonical {
            h.write_f64(tiling.tile_size);
            h.write_f64(tiling.halo);
        }
        h.write_usize(tile.clip.targets().len());
        let targets = tile.clip.targets().iter();
        for ((target, gid), owned) in targets.zip(&tile.global_ids).zip(&tile.owned) {
            if canonical.is_none() {
                h.write_usize(*gid);
            }
            h.write(&[*owned as u8]);
            h.write_usize(target.len());
            for v in target.vertices() {
                h.write_f64(v.x);
                h.write_f64(v.y);
            }
        }
        let Ok(_) = config.walk(&mut h);
        h.0
    }

    /// Every batch entry point against the oracle, for both hashes, on
    /// every prefix length of `tiles` up to 2·LANES + 1 and on all of it.
    fn check_lanes(tiles: &[Tile], tiling: &TilingConfig, config: &OpcConfig, what: &str) {
        let refs: Vec<&Tile> = tiles.iter().collect();
        let input = TileHasher::input(config);
        let key = TileHasher::key(tiling, config);
        let want_input: Vec<u64> = tiles.iter().map(|t| hash_tile(t, config, None)).collect();
        let want_key: Vec<u64> = tiles
            .iter()
            .map(|t| hash_tile(t, config, Some((KEY_VERSION, tiling))))
            .collect();
        let lengths = (0..=(2 * LANES + 1).min(tiles.len())).chain([tiles.len()]);
        for n in lengths {
            assert_eq!(
                input.hash_all(&refs[..n]),
                want_input[..n],
                "{what}: {n} inputs"
            );
            assert_eq!(key.hash_all(&refs[..n]), want_key[..n], "{what}: {n} keys");
        }
        for threads in 1..=3 {
            let pool = WorkerPool::new(threads);
            assert_eq!(input.hash_on(&pool, &refs), want_input, "{what}: pool");
            assert_eq!(key.hash_on(&pool, &refs), want_key, "{what}: pool");
        }
        assert_eq!(tile_cache_keys(&refs, tiling, config), want_key, "{what}");
        for (i, tile) in tiles.iter().enumerate() {
            assert_eq!(
                tile_input_hash(tile, config),
                want_input[i],
                "{what}: tile {i}"
            );
            assert_eq!(
                tile_cache_key(tile, tiling, config),
                want_key[i],
                "{what}: tile {i}"
            );
        }
    }

    #[test]
    fn lane_hashes_are_the_one_tile_walk() {
        let mut config = OpcConfig::large_scale();
        // The logic job's tiling: irregular tiles, several targets each.
        let logic =
            cardopc_layout::generated_clip(cardopc_layout::DesignKind::Gcd, 1, Some(8192.0));
        let tiling = TilingConfig {
            tile_size: 2048.0,
            halo: 512.0,
        };
        let p = partition_clip(&logic, &tiling).unwrap();
        check_lanes(&p.tiles, &tiling, &config, "logic");
        // The array job's tiling: congruent tiles of two wires per cell.
        const STEP: f64 = 1024.0;
        let mut wires = Vec::new();
        for row in 0..5 {
            for col in 0..7 {
                let at = |x: f64, y: f64| Point::new(col as f64 * STEP + x, row as f64 * STEP + y);
                wires.push(Polygon::rect(at(160.0, 256.0), at(864.0, 326.0)));
                wires.push(Polygon::rect(at(160.0, 640.0), at(640.0, 710.0)));
            }
        }
        let array = Clip::new("array", 7.0 * STEP, 5.0 * STEP, wires);
        let tiling = TilingConfig {
            tile_size: 1024.0,
            halo: 512.0,
        };
        let p = partition_clip(&array, &tiling).unwrap();
        assert_eq!(p.tiles.len(), 35);
        config.precision = cardopc_litho::Precision::F32;
        check_lanes(&p.tiles, &tiling, &config, "array");
    }

    #[test]
    fn lane_hashes_cover_empty_tiles_and_odd_coordinates() {
        // Seeded windows: empty ones, signed zeros, NaNs and ragged
        // vertex counts, so the lanes' common prefix and tails vary.
        let mut rng = SplitMix64::new(45);
        let config = OpcConfig::via();
        let tiling = TilingConfig {
            tile_size: 500.0,
            halo: 100.0,
        };
        let base = partition_clip(&Clip::new("odd", 500.0, 500.0, Vec::new()), &tiling)
            .unwrap()
            .tiles
            .remove(0);
        let tiles: Vec<Tile> = (0..23)
            .map(|i| {
                let targets: Vec<Polygon> = (0..rng.range_usize(0, 4))
                    .map(|_| {
                        let ring = (0..rng.range_usize(3, 9))
                            .map(|_| {
                                let mut c = || match rng.range_usize(0, 5) {
                                    0 => -0.0,
                                    1 => f64::from_bits(
                                        f64::NAN.to_bits() | rng.range_usize(1, 99) as u64,
                                    ),
                                    2 => 0.0,
                                    _ => rng.range_f64(-50.0, 550.0),
                                };
                                Point::new(c(), c())
                            })
                            .collect();
                        Polygon::new(ring)
                    })
                    .collect();
                let n = targets.len();
                Tile {
                    index: i,
                    tx: i % 5,
                    ty: i / 5,
                    origin: Point::new(if i % 2 == 0 { -0.0 } else { 3.5 }, f64::NAN),
                    clip: Clip::new("odd", 700.0, 700.0, targets),
                    global_ids: (0..n).map(|k| 10 * i + k).collect(),
                    owned: (0..n).map(|k| (i + k) % 2 == 0).collect(),
                    ..base.clone()
                }
            })
            .collect();
        assert!(tiles.iter().any(|t| t.clip.targets().is_empty()));
        check_lanes(&tiles, &tiling, &config, "seeded");
        // Signed zeros and NaN payloads hash alike in the lanes too.
        let flipped: Vec<Tile> = tiles
            .iter()
            .map(|t| Tile {
                origin: Point::new(if t.index % 2 == 0 { 0.0 } else { 3.5 }, -f64::NAN),
                ..t.clone()
            })
            .collect();
        let input = TileHasher::input(&config);
        let refs = |v: &[Tile]| input.hash_all(&v.iter().collect::<Vec<_>>());
        assert_eq!(refs(&tiles), refs(&flipped));
    }

    #[test]
    fn f64_hashing_canonicalises_signed_zero_and_nan() {
        // -0.0 and +0.0 are the same geometry; their hashes must agree.
        assert_eq!(canon_f64_bits(0.0), canon_f64_bits(-0.0));
        let hash_one = |v: f64| {
            let mut h = ByteFnv::new();
            h.write_f64(v);
            h.0
        };
        assert_eq!(hash_one(0.0), hash_one(-0.0));
        assert_ne!(hash_one(0.0), hash_one(f64::MIN_POSITIVE));
        // Every NaN payload folds onto one canonical NaN.
        let quiet = f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() | 0xdead);
        assert!(payload.is_nan());
        assert_eq!(hash_one(quiet), hash_one(payload));
        assert_eq!(hash_one(quiet), hash_one(-quiet));
        // Ordinary values still hash by exact bits: 1-ulp neighbours differ.
        let x = 1.0f64;
        assert_ne!(hash_one(x), hash_one(f64::from_bits(x.to_bits() + 1)));
    }

    #[test]
    fn config_changes_invalidate_hash() {
        let clip = Clip::new(
            "h",
            500.0,
            500.0,
            vec![Polygon::rect(
                Point::new(100.0, 100.0),
                Point::new(200.0, 170.0),
            )],
        );
        let p = partition_clip(
            &clip,
            &TilingConfig {
                tile_size: 500.0,
                halo: 0.0,
            },
        )
        .unwrap();
        let base = OpcConfig::large_scale();
        let h0 = tile_input_hash(&p.tiles[0], &base);
        assert_eq!(h0, tile_input_hash(&p.tiles[0], &base), "deterministic");
        // Every single-field mutation the config walk generates must
        // change the hash.
        OpcConfig::for_each_field_mutation(|field, config, changed| {
            assert_ne!(
                tile_input_hash(&p.tiles[0], config),
                tile_input_hash(&p.tiles[0], changed),
                "mutating {field} must invalidate the hash"
            );
        });
        // Geometry change checked via a shifted clip:
        let clip2 = Clip::new(
            "h",
            500.0,
            500.0,
            vec![Polygon::rect(
                Point::new(101.0, 100.0),
                Point::new(201.0, 170.0),
            )],
        );
        let p2 = partition_clip(
            &clip2,
            &TilingConfig {
                tile_size: 500.0,
                halo: 0.0,
            },
        )
        .unwrap();
        assert_ne!(h0, tile_input_hash(&p2.tiles[0], &base));
    }
}
