//! Via-layer curvilinear OPC (the Fig. 6(a) scenario): optimise a via clip
//! and write the target, optimised mask, aerial image and printed contours
//! as PGM images under `out/`.
//!
//! ```sh
//! cargo run --release --example via_opc [clip-index]
//! ```

use cardopc::geometry::svg::{write_svg, SvgLayer};
use cardopc::geometry::trace_contours;
use cardopc::litho::{rasterize, ProcessCondition};
use cardopc::opc::engine_for_extent;
use cardopc::prelude::*;
use std::fs::File;
use std::io::BufWriter;

fn save(grid: &Grid, path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    grid.write_pgm(BufWriter::new(file))?;
    println!("wrote {path}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let index: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4); // V5 by default: four vias
    let clips = via_clips();
    let clip = clips.get(index).ok_or("clip index out of range (0..13)")?;
    println!("running CardOPC on {clip}");

    let config = OpcConfig::via();
    let engine = engine_for_extent(clip.width(), clip.height(), config.pitch)?;
    let samples = config.samples_per_segment;
    let flow = CardOpc::new(config);
    let outcome = flow.run_with_engine(clip, &engine)?;

    println!(
        "EPE {:.1} nm | PVB {:.0} nm^2 | L2 {:.0} nm^2 | MRC {} -> {}",
        outcome.evaluation.epe_sum_nm,
        outcome.evaluation.pvb_nm2,
        outcome.evaluation.l2_nm2,
        outcome.mrc_initial_violations,
        outcome.mrc_remaining,
    );

    std::fs::create_dir_all("out")?;
    let (w, h, p) = (engine.width(), engine.height(), engine.pitch());

    let target = rasterize(clip.targets(), w, h, p);
    save(&target, "out/via_target.pgm")?;

    let mask_polys: Vec<_> = outcome
        .shapes
        .iter()
        .map(|s| s.spline.to_polygon(samples))
        .collect();
    let mask = rasterize(&mask_polys, w, h, p);
    save(&mask, "out/via_mask.pgm")?;

    let aerial = engine.aerial_image(&mask)?;
    save(&aerial, "out/via_aerial.pgm")?;

    let printed = engine.print(&mask, ProcessCondition::NOMINAL)?;
    save(&printed, "out/via_printed.pgm")?;

    // Vector plot in the style of Fig. 6(a): targets, curvilinear mask,
    // printed contours.
    let printed_contours = trace_contours(&aerial, engine.threshold());
    let layers = [
        SvgLayer {
            name: "mask",
            polygons: &mask_polys,
            fill: "#3b6ea5",
            stroke: "none",
            stroke_width: 0.0,
            opacity: 0.75,
        },
        SvgLayer {
            name: "targets",
            polygons: clip.targets(),
            fill: "none",
            stroke: "#e5c07b",
            stroke_width: 3.0,
            opacity: 1.0,
        },
        SvgLayer {
            name: "printed",
            polygons: &printed_contours,
            fill: "none",
            stroke: "#98c379",
            stroke_width: 3.0,
            opacity: 1.0,
        },
    ];
    let file = File::create("out/via_result.svg")?;
    write_svg(BufWriter::new(file), clip.width(), clip.height(), &layers)?;
    println!("wrote out/via_result.svg");
    Ok(())
}
