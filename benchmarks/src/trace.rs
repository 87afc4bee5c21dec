//! Span recorder for the traced run.
//!
//! Tracing lives entirely in the benchmark: spans wrap calls to the
//! program's public layer functions (spans *inside* the program are a
//! later change). The traced run is single-threaded, so one stack of open
//! spans is enough. Spans stay in memory and are written out at exit.

use cardopc::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified stage name, e.g. `litho.aerial_full`.
    pub name: &'static str,
    /// Which tile/clip/pass the span belongs to (spans of one replayed
    /// unit share it).
    pub unit: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use = "an open span must be ended"]
pub struct Open(usize);

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u32,
}

impl Tracer {
    /// An empty tracer; time zero is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the unit id stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Records `f` as one leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans called `name` in `unit`.
    pub fn durations_ms(&self, unit: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.unit == unit && s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Mean duration (ms) of the spans called `name` in `unit`; 0 when
    /// there is none.
    pub fn mean_ms(&self, unit: u32, name: &str) -> f64 {
        let all = self.durations_ms(unit, name);
        all.iter().sum::<f64>() / all.len().max(1) as f64
    }

    /// The trace as a JSON array of `{name, unit, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.to_string())),
                        ("unit", Json::Num(f64::from(s.unit))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, Json::num_usize)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, ms: its duration minus the part of that
/// interval its direct children cover. Indexed like `spans`.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.ms();
        }
    }
    own
}

/// Name of the span a replayed unit opens around everything it
/// attributes; [`breakdown`] covers the subtrees of these spans only.
pub const ROOT: &str = "root";

/// Where a unit's time went: `(stage, calls, self ms)` summed by stage
/// name over the [`ROOT`] subtrees of `unit`, largest first, and the total
/// duration of those roots. Self times of a tree add up to its root's
/// duration, so the shares of one breakdown add up to 100 %; the row
/// called [`ROOT`] is the time no stage span covers.
pub fn breakdown(spans: &[Span], unit: u32) -> (Vec<(&'static str, usize, f64)>, f64) {
    let own = self_times_ms(spans);
    // Parents are recorded before their children, so one pass suffices.
    let mut inside = vec![false; spans.len()];
    let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
    let mut total = 0.0;
    for (i, span) in spans.iter().enumerate() {
        let is_root = span.parent.is_none() && span.name == ROOT && span.unit == unit;
        inside[i] = is_root || span.parent.is_some_and(|p| inside[p]);
        if !inside[i] {
            continue;
        }
        if is_root {
            total += span.ms();
        }
        match rows.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += own[i];
            }
            None => rows.push((span.name, 1, own[i])),
        }
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    (rows, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            unit: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..10 ms; a 1..4 (child b 2..3); c 5..9.
        let spans = [
            span("root", 0, 10_000_000, None),
            span("a", 1_000_000, 4_000_000, Some(0)),
            span("b", 2_000_000, 3_000_000, Some(1)),
            span("c", 5_000_000, 9_000_000, Some(0)),
        ];
        let own = self_times_ms(&spans);
        assert_eq!(own, vec![3.0, 2.0, 1.0, 4.0]);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(own.iter().sum::<f64>(), spans[0].ms());
    }

    #[test]
    fn breakdown_covers_root_subtrees_of_one_unit() {
        let spans = [
            span("setup", 0, 5_000_000, None), // outside any root: ignored
            span(ROOT, 10_000_000, 20_000_000, None),
            span("fft", 11_000_000, 14_000_000, Some(1)),
            span("fft", 15_000_000, 19_000_000, Some(1)),
            Span {
                unit: 1,
                ..span(ROOT, 0, 1_000_000, None)
            },
        ];
        let (rows, total) = breakdown(&spans, 0);
        assert_eq!(rows, vec![("fft", 2, 7.0), (ROOT, 1, 3.0)]);
        assert_eq!(total, 10.0);
        assert_eq!(breakdown(&spans, 1), (vec![(ROOT, 1, 1.0)], 1.0));
        assert_eq!(breakdown(&spans, 2), (vec![], 0.0));
    }

    #[test]
    fn tracer_nests_and_stamps_units() {
        let mut t = Tracer::new();
        t.set_unit(7);
        let outer = t.begin("outer");
        let got = t.time("inner", || 42);
        t.end(outer);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations_ms(7, "inner").len(), 1);
        assert_eq!(t.mean_ms(7, "inner"), t.durations_ms(7, "inner")[0]);
        assert_eq!(t.mean_ms(7, "absent"), 0.0);
        assert!(t.durations_ms(1, "inner").is_empty());
        assert_eq!(t.to_json().as_arr().map(<[Json]>::len), Some(2));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
