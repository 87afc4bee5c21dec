//! Parent-vs-change drift check for a PR that moves image numerics: dumps
//! every control point (full `f64` bits, not a hash), both MRC counts,
//! Σ|EPE|, PVB and the EPE-violation count of the four `gcd --crop 8192`
//! logic tiles (`OpcConfig::large_scale()`, `run_with_engine`) and the 13
//! via clips (`CardOpc::run`; through an f32 engine for `f32`), then
//! compares two dumps.
//!
//! ```sh
//! control_points dump parent.txt f64        # built at the parent commit
//! control_points dump change.txt f64        # built at the change
//! control_points compare parent.txt change.txt
//! ```
//!
//! Run the dump for `f64` and `f32`.
//! The file only uses public API that predates it, so it builds when copied
//! into a checkout of the parent commit.

use cardopc::layout::{generated_clip, via_clips, DesignKind};
use cardopc::litho::Precision;
use cardopc::opc::{engine_for_extent_at, CardOpc, OpcConfig, OpcOutcome};
use cardopc::runtime::{partition_clip, TilingConfig};
use std::fmt::Write as _;

fn dump(precision: Precision) -> Result<String, Box<dyn std::error::Error>> {
    let mut out = String::new();
    let mut unit = |name: &str, o: &OpcOutcome| {
        let points = || o.shapes.iter().flat_map(|s| s.spline.control_points());
        let _ = writeln!(
            out,
            "unit {name} shapes {} control_points {} mrc_initial {} mrc_remaining {} \
             epe_violations {} | epe_sum_nm {:?} pvb_nm2 {:?}",
            o.shapes.len(),
            points().count(),
            o.mrc_initial_violations,
            o.mrc_remaining,
            o.evaluation.epe_violations,
            o.evaluation.epe_sum_nm,
            o.evaluation.pvb_nm2,
        );
        for p in points() {
            let _ = writeln!(out, "{:016x} {:016x}", p.x.to_bits(), p.y.to_bits());
        }
    };
    let clip = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
    let tiling = TilingConfig {
        tile_size: 4096.0,
        halo: 1024.0,
    };
    for (i, tile) in partition_clip(&clip, &tiling)?.tiles.iter().enumerate() {
        let mut config = OpcConfig::large_scale();
        config.precision = precision;
        let (w, h) = (tile.clip.width(), tile.clip.height());
        let engine = engine_for_extent_at(w, h, config.pitch, precision)?;
        let outcome = CardOpc::new(config).run_with_engine(&tile.clip, &engine)?;
        unit(&format!("logic{i}"), &outcome);
    }
    for clip in via_clips() {
        let mut config = OpcConfig::via();
        config.precision = precision;
        let outcome = CardOpc::new(config).run(&clip)?;
        unit(clip.name(), &outcome);
    }
    Ok(out)
}

/// Prints, per unit, whether the counts agree, how Σ|EPE| / PVB read on
/// both sides and the largest control-point displacement; returns whether
/// every count agreed.
fn compare(a: &str, b: &str) -> bool {
    let counts = |line: &str| line.split(" | ").next().unwrap_or(line).to_string();
    let coords = |line: &str| -> Vec<f64> {
        let bits = line
            .split(' ')
            .filter_map(|h| u64::from_str_radix(h, 16).ok());
        bits.map(f64::from_bits).collect()
    };
    let mut agree = a.lines().count() == b.lines().count();
    let (mut max, mut moved) = (0.0f64, 0usize);
    let flush = |max: &mut f64, moved: &mut usize| {
        println!("    max |Δ control point| {max:.3e} nm, {moved} coordinates moved");
        (*max, *moved) = (0.0, 0);
    };
    for (i, (x, y)) in a.lines().zip(b.lines()).enumerate() {
        if x.starts_with("unit") {
            if i > 0 {
                flush(&mut max, &mut moved);
            }
            let same = counts(x) == counts(y);
            agree &= same;
            println!("{}{x}", if same { "" } else { "COUNTS DIFFER: " });
            if x != y {
                println!("  → {y}");
            }
        } else {
            for (u, v) in coords(x).into_iter().zip(coords(y)) {
                moved += (u.to_bits() != v.to_bits()) as usize;
                max = max.max((u - v).abs());
            }
        }
    }
    flush(&mut max, &mut moved);
    agree
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["dump", path, precision] => {
            let precision = Precision::parse(precision).ok_or("precision: f64 or f32")?;
            std::fs::write(path, dump(precision)?)?;
        }
        ["compare", a, b] => {
            let (a, b) = (std::fs::read_to_string(a)?, std::fs::read_to_string(b)?);
            if !compare(&a, &b) {
                return Err("shape / control-point / violation counts differ".into());
            }
        }
        _ => return Err("usage: control_points dump <out> <f64|f32> | compare <a> <b>".into()),
    }
    Ok(())
}
