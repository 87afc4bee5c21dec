//! The metric catalogue: names, units, bounds. `BENCHMARK.json` carries
//! the same tables for the driver; a unit test keeps the two in step.

use crate::stats::median;
use crate::workloads::Session;

/// An end-to-end metric: what a user of the system sees. All are
/// lower-is-better.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the base median by which the metric may worsen before it
    /// counts as a regression.
    pub bound: f64,
    /// Whether the metric can never be 0, which the driver requires of
    /// everything `BENCHMARK.json` lists. The others are reported by `run`
    /// and judged by `compare` only.
    pub never_zero: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        never_zero: true,
    }
}

/// The end-to-end metrics, reported per workload.
///
/// The time and memory bounds are set by this box, not by taste: the
/// shared 2-vCPU VM's speed moves ±10–20 % over minutes, so ten
/// driver-style invocations spread 5–17 % (quartiles over median) in
/// `wall_s` *and* `cpu_user_s`, and the via workload's peak RSS has two
/// modes 11 % apart. A bound below the spread would only ever report
/// "unresolved". See the README's noise notes.
///
/// `failed_runs` is not in this table: a healthy benchmark has no failed
/// run. It is reported next to these as `failed` of `attempted`, and any
/// increase is a regression.
pub const END_TO_END: [EndToEnd; 7] = [
    // Median child wall time, spawn → exit, outputs written.
    e2e("wall_s", "s", 0.25),
    // Median user CPU of the process tree: separates "less work" from
    // "better overlap".
    e2e("cpu_user_s", "s", 0.25),
    // Median ru_maxrss of the process tree.
    e2e("peak_rss_mb", "MB", 0.15),
    // Median over fresh children of "inputs on disk → first tile ready
    // to simulate" (ingest + partition [+ checkpoint load] + engine).
    e2e("setup_s", "s", 0.25),
    // Σ|EPE| of the job.
    e2e("epe_sum_nm", "nm", 0.005),
    // PV-band area of the job.
    e2e("pvb_nm2", "nm2", 0.005),
    // MRC violations left after resolving; 0 on `table1_vias`.
    EndToEnd {
        never_zero: false,
        ..e2e("mrc_remaining", "count", 0.01)
    },
];

/// Every sample of one end-to-end metric a session collected.
pub fn samples_of(session: &Session, metric: &str) -> Vec<f64> {
    let runs = session.samples.iter();
    match metric {
        "wall_s" => runs.map(|s| s.usage.wall_s).collect(),
        "cpu_user_s" => runs.map(|s| s.usage.user_s).collect(),
        "peak_rss_mb" => runs.map(|s| s.usage.peak_rss_mb).collect(),
        "setup_s" => session.setup_s.clone(),
        "epe_sum_nm" => runs.map(|s| s.scores.epe_sum_nm).collect(),
        "pvb_nm2" => runs.map(|s| s.scores.pvb_nm2).collect(),
        "mrc_remaining" => runs.map(|s| s.scores.mrc_remaining).collect(),
        other => panic!("'{other}' is not an end-to-end metric"),
    }
}

/// What the driver is told: the median of every never-zero end-to-end
/// metric. `None` when a metric has no sample (every run failed).
pub fn driver_values(session: &Session) -> Option<Vec<(&'static EndToEnd, f64)>> {
    END_TO_END
        .iter()
        .filter(|m| m.never_zero)
        .map(|m| median(&samples_of(session, m.name)).map(|v| (m, v)))
        .collect()
}

/// A per-layer metric of the traced run. No bound: these explain
/// end-to-end movement, they are not gates.
#[derive(Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics, in report order. Layers are the crates; see
/// the README for which end-to-end metric each should move, and where.
pub const PER_LAYER: [PerLayer; 47] = [
    lower("gds.ingest_ms", "ms"),
    lower("gds.ingest_shapes", "count"),
    lower("gds.export_ms", "ms"),
    lower("gds.export_mb", "MB"),
    lower("runtime.partition_ms", "ms"),
    lower("runtime.tiles", "count"),
    lower("runtime.cache_key_us", "us"),
    lower("runtime.input_hash_us", "us"),
    lower("runtime.replay_us_per_tile", "us"),
    higher("runtime.cache_hit_ratio", "ratio"),
    lower("runtime.checkpoint_append_us", "us"),
    lower("json.record_encode_us", "us"),
    lower("runtime.checkpoint_load_ms", "ms"),
    lower("runtime.checkpoint_mb", "MB"),
    lower("json.record_parse_us", "us"),
    lower("runtime.stitch_ms", "ms"),
    lower("mrc.seam_check_ms", "ms"),
    lower("runtime.manifest_ms", "ms"),
    lower("runtime.tile_correct_ms", "ms"),
    lower("litho.engine_build_f64_ms", "ms"),
    lower("litho.engine_build_f32_ms", "ms"),
    lower("litho.raster_ms", "ms"),
    lower("litho.aerial_full_f64_ms", "ms"),
    lower("litho.aerial_full_f32_ms", "ms"),
    lower("litho.aerial_cols_ms", "ms"),
    lower("litho.aerial_cols_vias_ms", "ms"),
    lower("litho.aerial_multi_f64_ms", "ms"),
    lower("litho.aerial_multi_f32_ms", "ms"),
    higher("litho.fft2_768_f64_gflops", "GFLOP/s"),
    higher("litho.fft2_768_f32_gflops", "GFLOP/s"),
    higher("litho.fft2_500_f64_gflops", "GFLOP/s"),
    lower("litho.images_per_tile", "count"),
    lower("spline.connect_ms", "ms"),
    lower("opc.init_ms", "ms"),
    lower("opc.sraf_count", "count"),
    lower("opc.correct_ms", "ms"),
    lower("opc.iterations", "count"),
    lower("opc.optimize_ms", "ms"),
    lower("opc.evaluate_ms", "ms"),
    lower("mrc.resolve_ms", "ms"),
    lower("mrc.initial_violations", "count"),
    higher("mrc.resolved_ratio", "ratio"),
    lower("fleet.dispatch_us_per_tile", "us"),
    lower("fleet.retries", "count"),
    lower("trace.single_thread_s", "s"),
    lower("trace.replay_ratio", "ratio"),
    lower("trace.unattributed_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::repo_root;
    use crate::workloads::WORKLOADS;
    use cardopc::json::Json;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let json = Json::parse(&text).unwrap();
        let text_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.never_zero)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    "lower".to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(layers, ours);

        let paths = json.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::Str("benchmarks".into())]);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
