//! Criterion benchmark of the evaluation & fitting hot path: full-metric
//! mask scoring (`evaluate_mask_grid`: nominal + defocused aerial images,
//! EPE / PVB / L2), and the hybrid flow's two stages on a Fig. 7 metal
//! clip: pixel ILT (`pixel_ilt`) and contour fitting (`fit_mask_shapes`).
//!
//! Every table and figure of the paper's evaluation is gated on these two
//! functions, so they are benchmarked at the grid sizes the experiments
//! use (128² for the via tables, 256²/512² for the metal clips).

use cardopc::ilt::{fit_mask_shapes, pixel_ilt, HybridConfig, IltConfig};
use cardopc::litho::rasterize;
use cardopc::opc::{engine_for_extent, evaluate_mask_grid, raster_for_engine, MeasureConvention};
use cardopc::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Target patterns spanning the 1024 nm clip used at both grid sizes.
fn targets() -> Vec<Polygon> {
    vec![
        Polygon::rect(Point::new(250.0, 440.0), Point::new(370.0, 560.0)),
        Polygon::rect(Point::new(620.0, 440.0), Point::new(740.0, 560.0)),
        Polygon::rect(Point::new(200.0, 700.0), Point::new(820.0, 780.0)),
    ]
}

fn bench_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_mask_grid");
    group.sample_size(20);
    for pitch in [8.0f64, 4.0] {
        let engine = engine_for_extent(1024.0, 1024.0, pitch).unwrap();
        let targets = targets();
        let mask = rasterize(&targets, engine.width(), engine.height(), engine.pitch());
        group.bench_function(format!("{}x{}", engine.width(), engine.height()), |b| {
            b.iter(|| {
                black_box(
                    evaluate_mask_grid(
                        &engine,
                        black_box(&mask),
                        &targets,
                        MeasureConvention::MetalSpacing(60.0),
                        0.02,
                        40.0,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    // The fitting stage of the hybrid flow on a Fig. 7 metal clip: the
    // rasterised M1 wire pattern, smoothed so the traced contours carry the
    // curvature a real ILT mask would (pixel ILT is benched on its own by
    // `bench_ilt`; here we isolate regularise + trace + Algorithm 1's
    // banded solve, all on the calling thread).
    let clip = &metal_clips()[0];
    let engine = engine_for_extent(clip.width(), clip.height(), 4.0).unwrap();
    let raster = rasterize(
        clip.targets(),
        engine.width(),
        engine.height(),
        engine.pitch(),
    );
    let mask = cardopc::ilt::cleanup::blur(&raster, 3);
    let config = HybridConfig::default();

    let mut group = c.benchmark_group("fit_mask_shapes");
    group.sample_size(10);
    group.bench_function("fig7_metal_512", |b| {
        b.iter(|| black_box(fit_mask_shapes(black_box(&mask), &config)))
    });
    group.finish();
}

fn bench_ilt(c: &mut Criterion) {
    // The ILT stage of the hybrid flow: ten iterations (each one nominal
    // aerial image and its adjoint) against the rasterised M1 clip on the
    // grid `fig7_hybrid` runs (375² at 4 nm).
    let clip = &metal_clips()[0];
    let engine = engine_for_extent(clip.width(), clip.height(), 4.0).unwrap();
    let target = raster_for_engine(&engine, clip.targets()).binarize(0.5);
    let config = IltConfig {
        iterations: 10,
        ..HybridConfig::default().ilt
    };

    let mut group = c.benchmark_group("pixel_ilt");
    group.sample_size(10);
    let name = format!("fig7_metal_{}/10_iterations", engine.width());
    group.bench_function(name, |b| {
        b.iter(|| black_box(pixel_ilt(&engine, black_box(&target), &config).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_evaluate, bench_fit, bench_ilt);
criterion_main!(benches);
