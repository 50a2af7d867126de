//! # ff-cache — the buffer-cache substrate
//!
//! §3.1: *"It simulates the management of two storage devices … and the
//! buffer cache in the memory. The simulator emulates the policies used
//! for Linux buffer cache management, including the 2Q-like page
//! replacement algorithm, the two-window readahead policy that prefetches
//! up to 32 pages, the C-SCAN I/O request scheduling mechanism, and the
//! asynchronous write-back scheme. We also simulate the policies adopted
//! in the Linux laptop mode, such as eager writing back dirty blocks to
//! active disks and delaying write-back to disks in the standby mode."*
//!
//! Modules:
//!
//! * [`page`] — page keys, `(first_page, n_pages)` runs, and the one
//!   page table ([`page::PageTable`]) every queue below is built on: a
//!   slab of nodes on intrusive lists, found through an ordered
//!   directory of 64-page chunks.
//! * [`twoq`] — the 2Q-like replacement algorithm (A1in FIFO, A1out
//!   ghost queue, Am LRU), which also keeps the dirty pages on a list
//!   by first-dirtied time in the same page table.
//! * [`readahead`] — Linux 2.6 two-window readahead, window doubling up
//!   to 32 pages (128 KiB).
//! * [`cscan`] — the C-SCAN elevator with contiguous-request merging.
//! * [`writeback`] — the flusher: dirty-page aging plus the laptop-mode
//!   eager/deferred flush rules, popping the due prefix of 2Q's dirty
//!   list.
//! * [`cache`] — the [`BufferCache`] front end the replayer calls;
//!   returns page-granular miss ranges so hits never reach a device
//!   (needed for FlexFetch's §2.3.2 cache filtering).

//! ```
//! use ff_base::{Bytes, SimTime};
//! use ff_cache::{BufferCache, CacheConfig};
//! use ff_trace::FileId;
//!
//! let mut cache = BufferCache::new(CacheConfig::default());
//! let file = FileId(7);
//! let size = Bytes::mib(1);
//! // Cold read misses; the re-read hits without touching a device.
//! let cold = cache.read(SimTime::ZERO, file, 0, Bytes::kib(64), size);
//! assert!(!cold.fully_hit());
//! let warm = cache.read(SimTime::ZERO, file, 0, Bytes::kib(64), size);
//! assert!(warm.fully_hit());
//! ```

pub mod cache;
pub mod cscan;
pub mod flashcache;
pub mod page;
pub mod readahead;
pub mod twoq;
pub mod writeback;

pub use cache::{BufferCache, CacheConfig, CacheStats, ReadOutcome, WriteOutcome};
pub use cscan::CScanQueue;
pub use flashcache::FlashCache;
pub use page::PageKey;
pub use readahead::Readahead;
pub use twoq::{Access, TwoQ, Victim};
pub use writeback::{Writeback, WritebackConfig};
