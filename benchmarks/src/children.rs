//! Work the harness runs by re-executing *itself* as a fresh child, so it
//! is measured from outside like the CLI workloads and starts with cold
//! FFT/sampling plan caches like a real run:
//!
//! * `child-vias` — the library workload (the paper's Table I path);
//! * `child-setup` — "inputs on disk → first tile ready to simulate",
//!   the set-up phase of one workload, timed around the public calls.

use crate::util::{fnv1a, write_file};
use crate::workloads::{Kind, ARRAY_TILING, LOGIC_TILING};
use cardopc::gds::LayerFilter;
use cardopc::json::Json;
use cardopc::layout::{read_gds_clip, via_clips, TARGET_LAYER};
use cardopc::litho::{Precision, WorkerPool};
use cardopc::opc::{engine_for_extent, engine_for_extent_at, CardOpc, OpcConfig, OpcOutcome};
use cardopc::runtime::{partition_clip, RunDir};
use std::path::Path;
use std::time::Instant;

/// Corrects the first `clips` paper via clips over the global pool
/// (`CARDOPC_THREADS` sizes it) exactly as the quickstart does, and writes
/// a timing-free summary to `out`: per-clip scores plus a hash of every
/// control point, so two runs can be compared byte for byte.
pub fn child_vias(out: &Path, clips: usize) -> Result<(), String> {
    let mut all = via_clips();
    all.truncate(clips.max(1));
    let flow = CardOpc::new(OpcConfig::via());
    let mut outcomes: Vec<Option<Result<OpcOutcome, String>>> = Vec::new();
    outcomes.resize_with(all.len(), || None);
    WorkerPool::global().run_with_slots(&mut outcomes, |i, slot| {
        *slot = Some(flow.run(&all[i]).map_err(|e| e.to_string()));
    });

    let mut rows = Vec::new();
    let (mut epe, mut pvb, mut mrc, mut shapes) = (0.0, 0.0, 0usize, 0usize);
    for (clip, outcome) in all.iter().zip(outcomes) {
        let outcome = outcome.expect("the pool runs every slot")?;
        let mut bits = Vec::new();
        for shape in &outcome.shapes {
            for p in shape.spline.control_points() {
                bits.extend_from_slice(&p.x.to_bits().to_le_bytes());
                bits.extend_from_slice(&p.y.to_bits().to_le_bytes());
            }
        }
        epe += outcome.evaluation.epe_sum_nm;
        pvb += outcome.evaluation.pvb_nm2;
        mrc += outcome.mrc_remaining;
        shapes += outcome.shapes.len();
        rows.push(Json::obj(vec![
            ("name", Json::Str(clip.name().to_string())),
            ("shapes", Json::num_usize(outcome.shapes.len())),
            ("epe_sum_nm", Json::Num(outcome.evaluation.epe_sum_nm)),
            ("pvb_nm2", Json::Num(outcome.evaluation.pvb_nm2)),
            (
                "mrc_initial",
                Json::num_usize(outcome.mrc_initial_violations),
            ),
            ("mrc_remaining", Json::num_usize(outcome.mrc_remaining)),
            (
                "control_points",
                Json::Str(format!("{:016x}", fnv1a(&bits))),
            ),
        ]));
    }
    let summary = Json::obj(vec![
        ("clips", Json::Arr(rows)),
        (
            "total",
            Json::obj(vec![
                ("shapes", Json::num_usize(shapes)),
                ("epe_sum_nm", Json::Num(epe)),
                ("pvb_nm2", Json::Num(pvb)),
                ("mrc_remaining", Json::num_usize(mrc)),
            ]),
        ),
    ]);
    write_file(out, summary.to_string_compact().as_bytes())
}

/// Runs the set-up phase of a workload once — "inputs on disk → first
/// tile ready to simulate" — and returns its duration in seconds: ingest,
/// partition, the completed run directory's records when `run_dir` is given
/// (the resume workload), and the engine for the workload's window, pitch
/// and precision. The via workload's inputs are built in.
pub fn child_setup(
    kind: Kind,
    design: Option<&Path>,
    run_dir: Option<&Path>,
) -> Result<f64, String> {
    let (tiling, precision) = match kind {
        Kind::Vias => {
            let start = Instant::now();
            let clips = via_clips();
            let pitch = OpcConfig::via().pitch;
            let engine = engine_for_extent(clips[0].width(), clips[0].height(), pitch)
                .map_err(|e| e.to_string())?;
            std::hint::black_box((&clips, &engine));
            return Ok(start.elapsed().as_secs_f64());
        }
        Kind::Logic(precision) => (LOGIC_TILING, precision),
        Kind::ArrayCold | Kind::ArrayResume | Kind::ArrayFleet2 => (ARRAY_TILING, Precision::F64),
    };
    let design = design.ok_or("child-setup needs the design GDS")?;
    let start = Instant::now();
    let clip = read_gds_clip(design, LayerFilter::Layer(TARGET_LAYER), None)?;
    let partition = partition_clip(&clip, &tiling).map_err(|e| e.to_string())?;
    let records = match run_dir {
        Some(dir) => {
            let dir = RunDir::open(dir).map_err(|e| e.to_string())?;
            dir.load_records().map_err(|e| e.to_string())?
        }
        None => Default::default(),
    };
    let engine = engine_for_extent_at(
        partition.window.x,
        partition.window.y,
        OpcConfig::large_scale().pitch,
        precision,
    )
    .map_err(|e| e.to_string())?;
    std::hint::black_box((&partition, &records, &engine));
    Ok(start.elapsed().as_secs_f64())
}
