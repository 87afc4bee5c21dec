//! Results: the JSON one `run` writes, the table it prints, and the
//! `compare` verdicts between two such files.

use crate::metrics::{samples_of, END_TO_END, PER_LAYER};
use crate::replay::BREAKDOWN_UNITS;
use crate::stats::{median, quartiles, relative_spread};
use crate::trace::{breakdown, Tracer, ROOT};
use crate::workloads::Session;
use cardopc::json::Json;
use std::fmt::Write as _;

/// Median, quartiles, n and the raw samples of one metric.
fn summary(unit: &str, bound: f64, samples: &[f64]) -> Json {
    let (q1, q3) = quartiles(samples).map_or((Json::Null, Json::Null), |(a, b)| {
        (Json::Num(a), Json::Num(b))
    });
    Json::obj(vec![
        ("unit", Json::Str(unit.to_string())),
        ("bound", Json::Num(bound)),
        ("n", Json::num_usize(samples.len())),
        ("median", median(samples).map_or(Json::Null, Json::Num)),
        ("q1", q1),
        ("q3", q3),
        ("samples", Json::num_arr(samples)),
    ])
}

/// One workload's block of the results file.
pub fn workload_json(session: &Session) -> Json {
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name,
                summary(m.unit, m.bound, &samples_of(session, m.name)),
            )
        })
        .collect();
    Json::obj(vec![
        ("why", Json::Str(session.spec.why.to_string())),
        ("attempted", Json::num_usize(session.attempted)),
        ("failed", Json::num_usize(session.failures.len())),
        (
            "failures",
            Json::Arr(session.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

/// `{name: {value, unit}}` for a list of named values — the `metrics`
/// object of the driver's result line and the `per_layer` block.
pub fn values_json<'a>(values: impl IntoIterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::Obj(
        values
            .into_iter()
            .map(|(name, unit, value)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The per-layer values with their catalogue units.
pub fn per_layer_json(values: &[(&'static str, f64)]) -> Json {
    values_json(
        values
            .iter()
            .zip(&PER_LAYER)
            .map(|((name, value), spec)| (*name, spec.unit, *value)),
    )
}

/// The result line the driver contract asks for.
pub fn driver_line(attempted: usize, failed: usize, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num_usize(attempted.max(1))),
        ("failed", Json::num_usize(failed)),
        ("metrics", metrics),
    ])
    .to_string_compact()
}

/// Every end-to-end metric of every workload, by name, with unit.
pub fn render_end_to_end(sessions: &[Session]) -> String {
    let mut out = String::new();
    for session in sessions {
        let _ = writeln!(
            out,
            "{}  ({} runs, {} failed)",
            session.spec.name,
            session.attempted,
            session.failures.len()
        );
        for m in &END_TO_END {
            let samples = samples_of(session, m.name);
            let Some(mid) = median(&samples) else {
                let _ = writeln!(out, "  {:<16} no sample", m.name);
                continue;
            };
            let (q1, q3) = quartiles(&samples).unwrap_or((mid, mid));
            let _ = writeln!(
                out,
                "  {:<16} {:>14.4} {:<6} q1 {:.4} q3 {:.4} n {} spread {:.2}% (bound {:.1}%)",
                m.name,
                mid,
                m.unit,
                q1,
                q3,
                samples.len(),
                relative_spread(&samples) * 100.0,
                m.bound * 100.0
            );
        }
    }
    out
}

/// Every per-layer metric by name, with unit.
pub fn render_per_layer(values: &[(&'static str, f64)]) -> String {
    let mut out = String::new();
    for ((name, value), spec) in values.iter().zip(&PER_LAYER) {
        let better = if spec.higher_is_better {
            "  (higher is better)"
        } else {
            ""
        };
        let _ = writeln!(out, "  {name:<32} {value:>14.4} {}{better}", spec.unit);
    }
    out
}

/// Where the traced units spent their time: self time by stage, as a
/// share of the unit's root span.
pub fn render_breakdown(tracer: &Tracer) -> String {
    let mut out = String::new();
    for (unit, title) in BREAKDOWN_UNITS {
        let (rows, total) = breakdown(tracer.spans(), unit);
        let _ = writeln!(out, "{title}: {total:.1} ms");
        for (name, calls, own_ms) in rows {
            let name = if name == ROOT { "(unattributed)" } else { name };
            let share = 100.0 * own_ms / total;
            let _ = writeln!(
                out,
                "  {name:<24} {own_ms:>10.2} ms {share:>6.1}%  x{calls}"
            );
        }
    }
    out
}

/// Outcome of comparing one workload × metric between two result files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base by more than the bound.
    WithinBound,
    /// The new median is worse than the base by more than the bound.
    Regressed,
    /// Either side's quartile spread is wider than the bound: the runs
    /// cannot resolve a change of that size, so nothing is claimed.
    Unresolved,
}

/// The rule: spread first (an unresolved metric is never "unchanged"),
/// then the bound. All end-to-end metrics are lower-is-better.
pub fn verdict(base: f64, new: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if new > base * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// One metric's summary inside a workload block of a results file.
fn metric_of<'a>(block: &'a Json, workload: &str, metric: &str) -> Result<&'a Json, String> {
    block
        .get("metrics")
        .and_then(|ms| ms.get(metric))
        .ok_or_else(|| format!("{workload}: no metric '{metric}'"))
}

fn spread_of(metric: &Json) -> f64 {
    let field = |k: &str| metric.get(k).and_then(Json::as_f64);
    match (field("q1"), field("q3"), field("median")) {
        (Some(q1), Some(q3), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Compares result file `b` against base `a`: one line per workload ×
/// end-to-end metric, every ratio with its base. Returns the report and
/// the number of regressions.
///
/// # Errors
///
/// A message when either document lacks a workload or metric the
/// catalogue names.
pub fn compare(a: &Json, b: &Json) -> Result<(String, usize), String> {
    let mut out = String::new();
    let (mut regressed, mut unresolved) = (0usize, 0usize);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("base file has no 'workloads'")?;
    for (name, base_block) in workloads {
        let new_block = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("second file has no workload '{name}'"))?;
        let _ = writeln!(out, "{name}");
        for m in &END_TO_END {
            let (base, new) = (
                metric_of(base_block, name, m.name)?,
                metric_of(new_block, name, m.name)?,
            );
            let med = |j: &Json| {
                j.get("median")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}.{}: no median (every run failed?)", m.name))
            };
            let (base_med, new_med) = (med(base)?, med(new)?);
            let spread = spread_of(base).max(spread_of(new));
            let v = verdict(base_med, new_med, spread, m.bound);
            match v {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::WithinBound => {}
            }
            // A zero base (no MRC violation left) has no ratio; the
            // verdict rule still holds: any increase regresses.
            let ratio = if base_med == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}", new_med / base_med)
            };
            let _ = writeln!(
                out,
                "  {:<14} {:<12} ratio {ratio} of base {:.6} {} (new {:.6}; spread {:.2}%, bound {:.1}%)",
                m.name,
                match v {
                    Verdict::WithinBound => "within-bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                },
                base_med,
                m.unit,
                new_med,
                spread * 100.0,
                m.bound * 100.0
            );
        }
        // Any increase in failed runs is a regression.
        let failed = |block: &Json| block.get("failed").and_then(Json::as_usize).unwrap_or(0);
        let attempted = |block: &Json| block.get("attempted").and_then(Json::as_usize).unwrap_or(0);
        let worse = failed(new_block) > failed(base_block);
        regressed += usize::from(worse);
        let _ = writeln!(
            out,
            "  {:<14} {:<12} {} of {} failed (base {} of {})",
            "failed_runs",
            if worse { "REGRESSED" } else { "within-bound" },
            failed(new_block),
            attempted(new_block),
            failed(base_block),
            attempted(base_block)
        );
    }
    let _ = writeln!(out, "{regressed} regressed, {unresolved} unresolved");
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rule() {
        assert_eq!(verdict(10.0, 10.9, 0.02, 0.10), Verdict::WithinBound);
        assert_eq!(verdict(10.0, 11.1, 0.02, 0.10), Verdict::Regressed);
        // Faster is never a regression.
        assert_eq!(verdict(10.0, 5.0, 0.02, 0.10), Verdict::WithinBound);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(verdict(10.0, 20.0, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(10.0, 10.0, 0.12, 0.10), Verdict::Unresolved);
    }

    fn results(wall: [f64; 3], failed: usize) -> Json {
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let samples = if m.name == "wall_s" {
                    wall.to_vec()
                } else {
                    vec![1.0; 3]
                };
                (m.name, summary(m.unit, m.bound, &samples))
            })
            .collect();
        let block = Json::obj(vec![
            ("attempted", Json::num_usize(3)),
            ("failed", Json::num_usize(failed)),
            ("metrics", Json::obj(metrics)),
        ]);
        Json::obj(vec![("workloads", Json::obj(vec![("logic_f64", block)]))])
    }

    #[test]
    fn compare_flags_regressions_and_failed_runs() {
        let base = results([1.00, 1.01, 1.02], 0);
        let (text, regressed) = compare(&base, &results([1.00, 1.02, 1.03], 0)).unwrap();
        assert_eq!(regressed, 0, "{text}");
        assert!(text.contains("0 regressed, 0 unresolved"), "{text}");

        let (text, regressed) = compare(&base, &results([1.30, 1.31, 1.32], 0)).unwrap();
        assert_eq!(regressed, 1, "{text}");
        assert!(
            text.contains("wall_s") && text.contains("REGRESSED"),
            "{text}"
        );

        let (text, regressed) = compare(&base, &results([0.5, 1.0, 2.0], 0)).unwrap();
        assert_eq!(regressed, 0);
        assert!(text.contains("1 unresolved"), "{text}");

        let (_, regressed) = compare(&base, &results([1.00, 1.01, 1.02], 1)).unwrap();
        assert_eq!(regressed, 1, "one more failed run is a regression");

        assert!(compare(&base, &Json::obj(vec![("workloads", Json::obj(vec![]))])).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let metrics = values_json([("wall_s", "s", 1.25)]);
        let line = driver_line(3, 0, metrics);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        assert!(driver_line(3, 1, Json::obj(vec![])).starts_with(r#"{"correct":false"#));
    }
}
