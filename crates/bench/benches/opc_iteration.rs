//! Criterion benchmark of one CardOPC correction iteration (connect →
//! rasterise → simulate → correct) on a small clip, plus initialisation.
//!
//! The iteration bench exercises the optimised hot path the flow uses:
//! control points are resampled through a shared [`SamplingPlan`], the
//! (static) assist layer lives in a [`RasterCache`] base, the aerial image
//! is synthesised only at the pixels the EPE correction reads (into a grid
//! kept across iterations), and the correction itself runs shape-parallel
//! on the worker pool.

use cardopc::litho::{epe_footprint, RasterCache};
use cardopc::opc::{correct_shapes_recording, engine_for_extent, CorrectionStep};
use cardopc::prelude::*;
use cardopc::spline::SamplingPlan;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn small_clip() -> Clip {
    Clip::new(
        "bench",
        1024.0,
        1024.0,
        vec![
            Polygon::rect(Point::new(250.0, 440.0), Point::new(370.0, 560.0)),
            Polygon::rect(Point::new(620.0, 440.0), Point::new(740.0, 560.0)),
        ],
    )
}

fn bench_initialise(c: &mut Criterion) {
    let clip = small_clip();
    let flow = CardOpc::new(OpcConfig::via());
    c.bench_function("cardopc_initialize", |b| {
        b.iter(|| black_box(flow.initialize(black_box(&clip)).unwrap()))
    });
}

fn bench_iteration(c: &mut Criterion) {
    let clip = small_clip();
    let config = OpcConfig {
        pitch: 8.0,
        sraf: None,
        mrc: None,
        ..OpcConfig::via()
    };
    let engine = engine_for_extent(clip.width(), clip.height(), config.pitch).unwrap();
    let flow = CardOpc::new(config.clone());
    let shapes = flow.initialize(&clip).unwrap();

    let plan = SamplingPlan::get(config.samples_per_segment, config.tension);
    let grid = (engine.width(), engine.height(), engine.pitch());
    let anchors = shapes
        .iter()
        .filter(|s| !s.is_sraf)
        .flat_map(|s| &s.anchors);
    let footprint = epe_footprint(grid, anchors, config.epe_search);
    let pixels = engine.pixels_pay(footprint.len()).then_some(&footprint[..]);
    let mut aerial = Grid::zeros(grid.0, grid.1, grid.2);
    let mut cache = RasterCache::new(engine.width(), engine.height(), engine.pitch());
    cache.set_base(&[]);

    let mut group = c.benchmark_group("cardopc_iteration");
    group.sample_size(10);
    group.bench_function("connect_simulate_correct_128", |b| {
        let mut samples: Vec<Point> = Vec::new();
        let mut main_polys: Vec<Polygon> = Vec::new();
        let mut per_shape: Vec<f64> = Vec::new();
        b.iter(|| {
            let mut shapes = shapes.clone();
            for (i, shape) in shapes.iter().filter(|s| !s.is_sraf).enumerate() {
                shape.spline.sample_into(&plan, &mut samples);
                match main_polys.get_mut(i) {
                    Some(poly) if poly.len() == samples.len() => {
                        poly.vertices_mut().copy_from_slice(&samples);
                    }
                    Some(poly) => *poly = Polygon::new(samples.clone()),
                    None => main_polys.push(Polygon::new(samples.clone())),
                }
            }
            let mask = cache.composite(&main_polys);
            engine.aerial_image_into(mask, pixels, &mut aerial).unwrap();
            let total = correct_shapes_recording(
                &mut shapes,
                &aerial,
                engine.threshold(),
                &CorrectionStep {
                    step_limit: 2.0,
                    smooth_window: 1,
                    epe_search: config.epe_search,
                    spline_normals: true,
                },
                &mut per_shape,
            );
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_initialise, bench_iteration);
criterion_main!(benches);
