//! Criterion benchmark of the mask rasteriser on the two kinds of work the
//! correction loop gives it.
//!
//! * **Logic tile** — tile 0 of `cardopc --design gcd --crop 8192` at the
//!   CLI defaults: 90 spline outlines, ≈ 54 k vertices, a 768² grid at
//!   8 nm. Rasterised with the iteration-0 outlines (straight runs between
//!   rounded corners: most edges lie between two sub-scanlines) and with
//!   the outlines after the 10 correction iterations (edges tilt, so more
//!   of them cross a sub-scanline) — the cost depends on which.
//! * **Via clip** — Table I clip V1 under `OpcConfig::via()`: a handful of
//!   vias composited over a frozen SRAF base, a 500² grid at 4 nm.
//!
//! `composite` is [`RasterCache::composite`] as the loop calls it (restore
//! the row spans written last time, add the moving layer, clamp); `rasterize` is the
//! from-scratch union raster the scoring paths use. Snapshot:
//! `bench_results/BENCH_raster.json`.

use cardopc::layout::generated_clip;
use cardopc::litho::{rasterize, RasterCache};
use cardopc::opc::{engine_for_extent, OpcShape};
use cardopc::prelude::*;
use cardopc::runtime::{partition_clip, TilingConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The `(frozen, moving)` polygon layers the flow rasterises for `shapes`.
fn layers(shapes: &[OpcShape], per_segment: usize) -> (Vec<Polygon>, Vec<Polygon>) {
    let layer = |sraf: bool| {
        shapes
            .iter()
            .filter(|s| s.is_sraf == sraf)
            .map(|s| s.spline.to_polygon(per_segment))
            .collect()
    };
    (layer(true), layer(false))
}

fn bench_layers(
    c: &mut Criterion,
    group: &str,
    case: &str,
    (width, height, pitch): (usize, usize, f64),
    (frozen, moving): &(Vec<Polygon>, Vec<Polygon>),
) {
    let mut group = c.benchmark_group(group);
    group.sample_size(20);
    let mut cache = RasterCache::new(width, height, pitch);
    cache.set_base(frozen);
    group.bench_function(format!("composite_{case}"), |b| {
        b.iter(|| {
            black_box(cache.composite(black_box(moving)));
        })
    });
    let all: Vec<Polygon> = frozen.iter().chain(moving).cloned().collect();
    group.bench_function(format!("rasterize_{case}"), |b| {
        b.iter(|| black_box(rasterize(black_box(&all), width, height, pitch)))
    });
    group.finish();
}

fn bench_logic_tile(c: &mut Criterion) {
    let clip = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
    let tiling = TilingConfig {
        tile_size: 4096.0,
        halo: 1024.0,
    };
    let tile = &partition_clip(&clip, &tiling).unwrap().tiles[0];
    let config = OpcConfig {
        mrc: None,
        ..OpcConfig::large_scale()
    };
    let per = config.samples_per_segment;
    let engine = engine_for_extent(tile.clip.width(), tile.clip.height(), config.pitch).unwrap();
    let grid = (engine.width(), engine.height(), engine.pitch());
    let flow = CardOpc::new(config);
    let straight = layers(&flow.initialize(&tile.clip).unwrap(), per);
    let corrected = flow.optimize_with_engine(&tile.clip, &engine).unwrap();
    let iter10 = layers(&corrected.shapes, per);
    let vertices: usize = iter10.1.iter().map(Polygon::len).sum();
    eprintln!(
        "logic tile: {} polygons, {vertices} vertices, {}x{} @ {} nm",
        iter10.1.len(),
        grid.0,
        grid.1,
        grid.2
    );
    bench_layers(c, "raster/logic_768", "straight", grid, &straight);
    bench_layers(c, "raster/logic_768", "iter10", grid, &iter10);
}

fn bench_via_clip(c: &mut Criterion) {
    let clip = &via_clips()[0];
    let config = OpcConfig::via();
    let engine = engine_for_extent(clip.width(), clip.height(), config.pitch).unwrap();
    let grid = (engine.width(), engine.height(), engine.pitch());
    let shapes = CardOpc::new(config.clone()).initialize(clip).unwrap();
    let via = layers(&shapes, config.samples_per_segment);
    eprintln!(
        "via clip: {} SRAFs + {} vias, {}x{} @ {} nm",
        via.0.len(),
        via.1.len(),
        grid.0,
        grid.1,
        grid.2
    );
    bench_layers(c, "raster/via_500", "sraf_base", grid, &via);
}

criterion_group!(benches, bench_logic_tile, bench_via_clip);
criterion_main!(benches);
