//! Metal-layer curvilinear OPC vs the rectilinear baseline (the Fig. 6(b)
//! scenario): run both flows on one metal clip and compare their scores.
//!
//! ```sh
//! cargo run --release --example metal_opc [clip-index]
//! ```

use cardopc::litho::rasterize;
use cardopc::opc::engine_for_extent;
use cardopc::prelude::*;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let index: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(7); // M8 by default: the simplest published clip
    let clips = metal_clips();
    let clip = clips.get(index).ok_or("clip index out of range (0..10)")?;
    println!("clip {clip}");

    let config = OpcConfig::metal();
    let engine = engine_for_extent(clip.width(), clip.height(), config.pitch)?;
    let samples = config.samples_per_segment;

    // CardOPC (curvilinear).
    let flow = CardOpc::new(config);
    let card = flow.run_with_engine(clip, &engine)?;
    println!(
        "CardOPC      : EPE {:7.1} nm | PVB {:9.0} nm^2 | L2 {:8.0} nm^2 | MRC {} -> {}",
        card.evaluation.epe_sum_nm,
        card.evaluation.pvb_nm2,
        card.evaluation.l2_nm2,
        card.mrc_initial_violations,
        card.mrc_remaining,
    );

    // Calibre-like rectilinear baseline with the same budget.
    let rect = RectOpc::new(RectOpcConfig::calibre_like_metal());
    let rect_out =
        rect.run_with_engine(clip, &engine, &[], MeasureConvention::MetalSpacing(60.0))?;
    println!(
        "rect baseline: EPE {:7.1} nm | PVB {:9.0} nm^2 | L2 {:8.0} nm^2",
        rect_out.evaluation.epe_sum_nm, rect_out.evaluation.pvb_nm2, rect_out.evaluation.l2_nm2,
    );

    if card.evaluation.epe_sum_nm <= rect_out.evaluation.epe_sum_nm {
        println!("=> curvilinear OPC wins on EPE, as Table II reports.");
    } else {
        println!("=> rectilinear baseline won on this clip (check parameters).");
    }

    std::fs::create_dir_all("out")?;
    let (w, h, p) = (engine.width(), engine.height(), engine.pitch());
    let polygons: Vec<_> = card
        .shapes
        .iter()
        .map(|s| s.spline.to_polygon(samples))
        .collect();
    let mask = rasterize(&polygons, w, h, p);
    mask.write_pgm(BufWriter::new(File::create("out/metal_mask.pgm")?))?;
    println!("wrote out/metal_mask.pgm");
    Ok(())
}
