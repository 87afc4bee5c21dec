//! The one tile hash: FNV-1a over a tile's window geometry and — through
//! `OpcConfig::walk` — every configuration field.
//!
//! Checkpoint validation ([`tile_input_hash`]) and the tile cache
//! ([`tile_cache_key`]) hash the same content; they differ only in whether
//! the tile's position on the chip is part of it. Both are one walk
//! ([`hash_tile`]), so the two can never disagree about what a tile's
//! input *is*.

use crate::partition::{Tile, TilingConfig};
use cardopc_opc::{FieldVisitor, OpcConfig, Value};
use std::convert::Infallible;

/// Bumped whenever the cache key's composition or the stored-value
/// semantics change, so stale stores from older builds can never replay.
const KEY_VERSION: u8 = 6;

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

/// 64-bit FNV-1a.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write(&canon_f64_bits(v).to_le_bytes());
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }
}

/// Hashing as a visitor of `OpcConfig::walk`: the walk is exhaustive, so
/// a new configuration knob can never be left out of checkpoint hashes or
/// cache keys. A group hashes its switch byte before its fields; precision
/// hashes its tag, so f32 and f64 runs never alias.
impl FieldVisitor for Fnv {
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

/// The one hash walk over a tile's input: window extent, every target's
/// ownership flag and vertices (window coordinates — the partitioner has
/// already subtracted the origin), then every `OpcConfig` field. What
/// surrounds that content decides which hash it is:
///
/// - `canonical: None` adds the tile's position (index, grid cell, origin)
///   and each target's global id: the identity of *this* tile of *this*
///   chip, [`tile_input_hash`].
/// - `canonical: Some((version, tiling))` adds a key-version byte and the
///   `(tile_size, halo)` split instead — the core's placement inside the
///   window, and with it PV-band restriction and SRAF seam ownership,
///   depends on the split and not just on the extent — and nothing
///   positional: the translation-normalised `tile_cache_key`.
fn hash_tile(tile: &Tile, config: &OpcConfig, canonical: Option<(u8, &TilingConfig)>) -> u64 {
    let mut h = Fnv::new();
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

/// Hashes a tile's complete input: identity, window geometry, every
/// target's vertices and ownership, and the OPC configuration. Any change
/// to any of these invalidates the tile's checkpoint record.
pub fn tile_input_hash(tile: &Tile, config: &OpcConfig) -> u64 {
    hash_tile(tile, config, None)
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
    hash_tile(tile, config, Some((KEY_VERSION, tiling)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::Point;

    #[test]
    fn f64_hashing_canonicalises_signed_zero_and_nan() {
        // -0.0 and +0.0 are the same geometry; their hashes must agree.
        assert_eq!(canon_f64_bits(0.0), canon_f64_bits(-0.0));
        let hash_one = |v: f64| {
            let mut h = Fnv::new();
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
        use crate::partition::{partition_clip, TilingConfig};
        use cardopc_geometry::Polygon;
        use cardopc_layout::Clip;

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
