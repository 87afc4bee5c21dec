//! The ILT-OPC hybrid flow (the Fig. 6(d) scenario): run pixel ILT on a
//! metal clip, fit the result with cardinal splines (Algorithm 1), resolve
//! the mask rule violations, and compare raw-ILT vs hybrid scores.
//!
//! ```sh
//! cargo run --release --example hybrid_ilt [clip-index]
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
        .unwrap_or(7);
    let clips = metal_clips();
    let clip = clips.get(index).ok_or("clip index out of range (0..10)")?;
    println!("hybrid ILT-OPC on {clip}");

    // 6 nm pixels keep the ILT stage fast while resolving 70 nm wires.
    let engine = engine_for_extent(clip.width(), clip.height(), 6.0)?;
    let config = HybridConfig::default();
    let out = run_hybrid(&engine, clip.targets(), &config)?;

    println!(
        "pixel ILT: {} iterations, loss {:.2e} -> {:.2e}",
        out.ilt.loss_history.len(),
        out.ilt.loss_history.first().copied().unwrap_or(0.0),
        out.ilt.loss_history.last().copied().unwrap_or(0.0),
    );
    println!(
        "fitted {} shapes (mean fit MSE {:.3} nm^2), kept {} after MRC",
        out.fitted_shapes.len(),
        out.mean_fit_loss,
        out.shapes.len(),
    );
    println!(
        "MRC violations: {} before resolving -> {} after (paper: 43.8 -> 0)",
        out.violations_before, out.violations_after,
    );
    println!(
        "raw ILT : L2 {:8.0} nm^2 | PVB {:8.0} nm^2 | EPE violations {}",
        out.ilt_eval.l2_nm2, out.ilt_eval.pvb_nm2, out.ilt_eval.epe_violations,
    );
    println!(
        "hybrid  : L2 {:8.0} nm^2 | PVB {:8.0} nm^2 | EPE violations {}",
        out.hybrid_eval.l2_nm2, out.hybrid_eval.pvb_nm2, out.hybrid_eval.epe_violations,
    );

    std::fs::create_dir_all("out")?;
    out.ilt
        .mask
        .write_pgm(BufWriter::new(File::create("out/hybrid_ilt_mask.pgm")?))?;
    let (w, h, p) = (engine.width(), engine.height(), engine.pitch());
    let polygons: Vec<_> = out.shapes.iter().map(|s| s.to_polygon(8)).collect();
    let fitted = rasterize(&polygons, w, h, p);
    fitted.write_pgm(BufWriter::new(File::create("out/hybrid_fitted_mask.pgm")?))?;
    println!("wrote out/hybrid_ilt_mask.pgm and out/hybrid_fitted_mask.pgm");
    Ok(())
}
