//! Replay a traced run's application calls into a standalone
//! [`BufferCache`], timing each call.
//!
//! The engine calls `BufferCache::read` and `write` once per application
//! call, in call order, and nothing else changes which pages are
//! resident. So the replay sees the same hits, misses and readahead as
//! the engine did, and its host time stands in for the cache's share of
//! a pass. Flushes are replayed at the recorded `WritebackFlush` instants
//! with the disk assumed awake; they cost time but change no residency.

use crate::timed::{timed, Layer, SharedTracer};
use ff_base::{Error, Result};
use ff_cache::{BufferCache, CacheStats};
use ff_sim::{Event, EventLog};
use ff_trace::FileId;
use std::hint::black_box;

/// Call counts of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// `read` calls.
    pub reads: u64,
    /// `write` calls.
    pub writes: u64,
    /// The replayed cache's counters at the end.
    pub stats: CacheStats,
}

/// Replay `log` (a [`crate::timed::TimedRecorder`]'s kept events for one
/// cell) into a fresh cache built from the cell's config.
pub fn replay(
    cell: &crate::workloads::Cell,
    index: usize,
    log: &EventLog,
    tracer: &SharedTracer,
) -> Result<ReplayCounts> {
    let root = tracer.borrow_mut().open(Layer::Replay, index, None);
    let mut cache = BufferCache::new(cell.config.cache.clone());
    let mut counts = ReplayCounts::default();
    let span = |layer, f: &mut dyn FnMut()| timed(tracer, layer, index, root, f);
    for event in log.events() {
        match *event {
            Event::AppCall {
                at,
                file,
                op,
                offset,
                len,
            } => {
                let id = FileId(file);
                if op == "read" {
                    let size = cell
                        .trace
                        .files
                        .get(id)
                        .map(|m| m.size)
                        .ok_or(Error::UnknownFile(file))?;
                    counts.reads += 1;
                    span(Layer::CacheRead, &mut || {
                        black_box(cache.read(at, id, offset, len, size));
                    });
                } else {
                    counts.writes += 1;
                    span(Layer::CacheWrite, &mut || {
                        black_box(cache.write(at, id, offset, len));
                    });
                }
            }
            Event::WritebackFlush { at, .. } => span(Layer::CacheFlush, &mut || {
                black_box(cache.flush_due(at, true));
            }),
            _ => {}
        }
    }
    span(Layer::CacheFlush, &mut || {
        black_box(cache.flush_all());
    });
    counts.stats = cache.stats();
    tracer.borrow_mut().close(root);
    Ok(counts)
}
