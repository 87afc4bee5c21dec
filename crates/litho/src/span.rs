//! Named stage intervals from any thread: where a run's wall time went.
//!
//! Off by default, a [`span`] costs one relaxed atomic load and records
//! nothing. Once [`enable`]d, each span is timed from its creation to its
//! drop and pushed, with the tile it belongs to and its thread's number,
//! onto its thread's own buffer; [`drain`] collects every thread's buffer
//! in start order. Names are `&'static str`s (the stage table is the
//! binary's), so recording allocates nothing but buffer growth.
//!
//! A span opened for a tile ([`tile_span`]) makes that tile the thread's
//! current one until it closes, so spans opened inside it — in layers that
//! do not know about tiles, such as the MRC resolve inside the OPC flow —
//! carry the same tile.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Stage name.
    pub name: &'static str,
    /// The tile the span belongs to, if any.
    pub tile: Option<usize>,
    /// The recording thread, numbered from 0 in order of first record.
    pub thread: usize,
    /// Start, nanoseconds since [`enable`].
    pub start_ns: u64,
    /// End, nanoseconds since [`enable`].
    pub end_ns: u64,
}

type Buffer = Arc<Mutex<Vec<Record>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
/// Every thread's buffer, in order of first record (the thread numbers).
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: OnceCell<(usize, Buffer)> = const { OnceCell::new() };
    static TILE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Starts recording; time zero is the first call.
pub fn enable() {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span(Option<Open>);

struct Open {
    name: &'static str,
    tile: Option<usize>,
    /// The thread's current tile before a tile span opened, restored on
    /// close.
    outer: Option<Option<usize>>,
    start: Instant,
}

/// Opens a span named `name`, of the thread's current tile if any.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let tile = TILE.with(Cell::get);
    Span(Some(Open {
        name,
        tile,
        outer: None,
        start: Instant::now(),
    }))
}

/// Opens a span named `name` for `tile`, which is the thread's current
/// tile until the span closes.
pub fn tile_span(name: &'static str, tile: usize) -> Span {
    if !enabled() {
        return Span(None);
    }
    let outer = TILE.with(|t| t.replace(Some(tile)));
    Span(Some(Open {
        name,
        tile: Some(tile),
        outer: Some(outer),
        start: Instant::now(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        if let Some(outer) = open.outer {
            TILE.with(|t| t.set(outer));
        }
        // Set before `ENABLED`; a thread that saw the flag through its
        // relaxed load without seeing this yet drops the span.
        let Some(&origin) = ORIGIN.get() else {
            return;
        };
        let ns = |at: Instant| at.saturating_duration_since(origin).as_nanos() as u64;
        LOCAL.with(|local| {
            let (thread, buffer) = local.get_or_init(|| {
                let mut all = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
                all.push(Buffer::default());
                (all.len() - 1, Arc::clone(&all[all.len() - 1]))
            });
            let mut records = buffer.lock().unwrap_or_else(PoisonError::into_inner);
            records.push(Record {
                name: open.name,
                tile: open.tile,
                thread: *thread,
                start_ns: ns(open.start),
                end_ns: ns(end),
            });
        });
    }
}

/// Takes every record so far from every thread, sorted by start (ties by
/// thread, then end).
pub fn drain() -> Vec<Record> {
    let all = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut records: Vec<Record> = all
        .iter()
        .flat_map(|b| std::mem::take(&mut *b.lock().unwrap_or_else(PoisonError::into_inner)))
        .collect();
    records.sort_by_key(|r| (r.start_ns, r.thread, r.end_ns));
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, since recording is process-wide: off records nothing; on,
    /// spans nest, inherit their tile, and come from every thread.
    #[test]
    fn spans_record_tiles_threads_and_nothing_when_off() {
        drop(span("off"));
        drop(tile_span("off_tile", 1));
        assert!(!enabled());
        assert!(drain().is_empty());

        enable();
        {
            let _run = span("run");
            let tile = tile_span("correct", 7);
            drop(span("resolve"));
            drop(tile);
            drop(span("after"));
        }
        std::thread::scope(|s| {
            s.spawn(|| drop(tile_span("correct", 9)));
        });
        let records = drain();
        let find = |name: &str| records.iter().find(|r| r.name == name).unwrap();
        assert!(records.iter().all(|r| !r.name.starts_with("off")));
        assert_eq!(records.len(), 5);
        assert_eq!(find("run").tile, None);
        assert_eq!(find("resolve").tile, Some(7));
        assert_eq!(find("after").tile, None);
        let run = find("run");
        assert!(records.iter().all(|r| r.start_ns <= r.end_ns));
        assert!(run.start_ns <= find("resolve").start_ns && find("resolve").end_ns <= run.end_ns);
        let other = records.iter().find(|r| r.tile == Some(9)).unwrap();
        assert_ne!(other.thread, run.thread);
        assert!(drain().is_empty());
    }
}
