//! The device I/O path: demand and readahead fetches, dirty-page
//! write-back, and the optional flash tier in front of both.

use super::Runner;
use crate::record::{emit, Event as ObsEvent};
use ff_base::{size::PAGE_SIZE, Bytes, Joules, SimTime};
use ff_cache::cscan::{BlockRequest, CScanQueue};
use ff_cache::page::push_run;
use ff_cache::{FlashCache, PageKey};
use ff_device::{DeviceRequest, FlashModel, Live, PowerModel, ServiceOutcome};
use ff_policy::{AppRequest, Source};
use ff_trace::{FileId, IoOp};

/// A list of contiguous page runs `(first_page, n_pages)`.
type PageRuns = Vec<(u64, u64)>;

/// A list of per-file page runs `(file, (first_page, n_pages))`.
type FileRuns = Vec<(FileId, (u64, u64))>;

/// The buffers the I/O path reuses from call to call, so that a fetch
/// or a write-back allocates nothing once they have grown. Each one is
/// taken out for the span of a call and put back after it.
#[derive(Default)]
pub(super) struct IoBuffers {
    /// Demand runs resident in flash, then (discarded) readahead ones.
    flash_hits: PageRuns,
    /// Demand runs the flash tier leaves to the routed device.
    demand: PageRuns,
    /// Readahead runs the flash tier leaves to the routed device.
    prefetch: PageRuns,
    /// Dirty pages squeezed out of flash, bound for the disk.
    spilled: Vec<PageKey>,
    /// The sort buffer of [`file_runs`].
    sorted: Vec<PageKey>,
    /// [`Runner::write_dirty`]'s runs, held while each is written.
    dirty_runs: FileRuns,
    /// [`Runner::write_pages_to_disk`]'s runs; it runs while
    /// `dirty_runs` is held.
    disk_runs: FileRuns,
    /// The C-SCAN queue of a disk fetch.
    queue: CScanQueue,
}

/// The flash tier (DESIGN §7): its live device and its page membership.
pub(super) struct FlashTier {
    pub(super) model: Live<FlashModel>,
    pub(super) pages: FlashCache,
}

impl FlashTier {
    /// Split page runs of `file` by flash residency into `hits` and
    /// `misses`, cleared first (runs stay contiguous). Flash LRU
    /// positions refresh on lookups.
    fn partition(
        &mut self,
        file: FileId,
        runs: &[(u64, u64)],
        hits: &mut PageRuns,
        misses: &mut PageRuns,
    ) {
        hits.clear();
        misses.clear();
        for &(page, n) in runs {
            for pg in page..page + n {
                let hit = self.pages.lookup(PageKey { file, index: pg });
                push_run(if hit { &mut *hits } else { &mut *misses }, pg);
            }
        }
    }

    /// Copy page runs of `file` into flash — clean copies of fetched
    /// pages, or parked writes when `dirty`. Appends the dirty pages
    /// squeezed out, which must reach the disk now, to `spilled`.
    fn fill(&mut self, file: FileId, runs: &[(u64, u64)], dirty: bool, spilled: &mut Vec<PageKey>) {
        for &(page, n) in runs {
            for index in page..page + n {
                let key = PageKey { file, index };
                spilled.extend(if dirty {
                    self.pages.buffer_write(key)
                } else {
                    self.pages.insert_clean(key)
                });
            }
        }
    }
}

impl Runner<'_, '_> {
    /// Energy drawn by the flash tier so far (zero without one).
    pub(super) fn flash_energy(&self) -> Joules {
        self.flash
            .as_ref()
            .map_or(Joules::ZERO, |f| f.model.meter.total())
    }

    /// Service one request on the disk or the WNIC.
    pub(super) fn service(
        &mut self,
        at: SimTime,
        source: Source,
        req: DeviceRequest,
    ) -> ServiceOutcome {
        match source {
            Source::Disk => self.disk.service(at, &req),
            Source::Wnic => self.wnic.service(at, &req),
        }
    }

    /// Fetch a set of page runs of `file` from `source`. `demand` runs
    /// gate the application (their max completion is returned); the
    /// `prefetch` runs (readahead) just occupy the device.
    pub(super) fn fetch_runs(
        &mut self,
        mut t: SimTime,
        file: FileId,
        mut source: Source,
        demand: &[(u64, u64)],
        prefetch: &[(u64, u64)],
    ) -> (SimTime, Joules) {
        // A WNIC-bound fetch first clears the server: during an injected
        // server outage it walks the retry ladder and may fail over to
        // the disk (hoarded files) or stall (network-only files).
        if source == Source::Wnic && !(demand.is_empty() && prefetch.is_empty()) {
            (t, source) = self.wnic_gate(t, file);
        }
        let mut app_done = t;
        let mut energy = Joules::ZERO;

        // Flash tier: pages resident in flash are served there; the rest
        // go to the routed device and are then copied into flash.
        let mut miss_d = std::mem::take(&mut self.io.demand);
        let mut miss_p = std::mem::take(&mut self.io.prefetch);
        let (demand, prefetch) = if let Some(flash) = self.flash.as_mut() {
            let hits = &mut self.io.flash_hits;
            flash.partition(file, demand, hits, &mut miss_d);
            // Serve flash hits (blocking for the application).
            let mut cur = t;
            for &(_, n) in hits.iter() {
                let req = DeviceRequest::read(Bytes(n * PAGE_SIZE), None);
                let out = flash.model.service(cur, &req);
                cur = out.complete;
                energy += out.energy;
            }
            app_done = app_done.max(cur);
            // Readahead pages resident in flash need no fetch at all.
            flash.partition(file, prefetch, hits, &mut miss_p);
            // Populate flash with what the device is about to fetch.
            let mut spilled = std::mem::take(&mut self.io.spilled);
            spilled.clear();
            flash.fill(file, &miss_d, false, &mut spilled);
            flash.fill(file, &miss_p, false, &mut spilled);
            energy += self.write_pages_to_disk(cur, &spilled).1;
            self.io.spilled = spilled;
            (&miss_d[..], &miss_p[..])
        } else {
            (demand, prefetch)
        };
        match source {
            Source::Disk => {
                // C-SCAN over the combined batch; tag 1 = demand.
                let mut q = std::mem::take(&mut self.io.queue);
                q.clear();
                for (runs, tag) in [(demand, 1), (prefetch, 0)] {
                    for &(page, n) in runs {
                        if let Some(start) = self.layout.block_of(file, page * PAGE_SIZE) {
                            q.push(BlockRequest {
                                start,
                                blocks: n,
                                tag,
                            });
                        }
                    }
                }
                let mut cur = t;
                while let Some(r) = q.pop() {
                    let req = DeviceRequest::read(Bytes(r.blocks * PAGE_SIZE), Some(r.start));
                    let out = self.service(cur, Source::Disk, req);
                    cur = out.complete;
                    energy += out.energy;
                    if r.tag == 1 {
                        app_done = app_done.max(out.complete);
                    }
                }
                self.io.queue = q;
            }
            Source::Wnic => {
                let mut cur = t;
                for (runs, blocking) in [(demand, true), (prefetch, false)] {
                    for &(_, n) in runs {
                        let req = DeviceRequest::read(Bytes(n * PAGE_SIZE), None);
                        let out = self.service(cur, Source::Wnic, req);
                        cur = out.complete;
                        energy += out.energy;
                        if blocking {
                            app_done = app_done.max(out.complete);
                        }
                    }
                }
            }
        }
        (self.io.demand, self.io.prefetch) = (miss_d, miss_p);
        (app_done, energy)
    }

    /// Force pages to the physical disk (flash spill / destage path).
    fn write_pages_to_disk(&mut self, t: SimTime, pages: &[PageKey]) -> (SimTime, Joules) {
        let mut cur = t;
        let mut energy = Joules::ZERO;
        let mut runs = std::mem::take(&mut self.io.disk_runs);
        file_runs(pages, &mut self.io.sorted, &mut runs);
        for &(file, (start, n)) in &runs {
            let block = self.layout.block_of(file, start * PAGE_SIZE);
            let req = DeviceRequest::write(Bytes(n * PAGE_SIZE), block);
            let out = self.service(cur, Source::Disk, req);
            cur = out.complete;
            energy += out.energy;
        }
        self.io.disk_runs = runs;
        (cur, energy)
    }

    /// Destage the flash tier's buffered writes to the disk at `at`.
    pub(super) fn destage_flash(&mut self, at: SimTime) {
        if let Some(flash) = &mut self.flash {
            let destage = flash.pages.take_destage();
            let _ = self.write_pages_to_disk(at, &destage);
        }
    }

    /// Write back a batch of dirty `pages` at `at` (no-op when empty):
    /// pinned files go to the disk, the rest wherever the policy
    /// currently routes the batch's first page.
    pub(super) fn write_back(&mut self, at: SimTime, pages: &[PageKey]) {
        let Some(first) = pages.first() else {
            return;
        };
        emit(&mut self.recorder, || ObsEvent::WritebackFlush {
            at,
            pages: u64::try_from(pages.len()).unwrap_or(u64::MAX),
        });
        let probe = AppRequest {
            file: first.file,
            op: IoOp::Write,
            offset: first.index * PAGE_SIZE,
            len: Bytes(PAGE_SIZE),
        };
        let (source, _, _) = self.route(at, &probe);
        let _ = self.write_dirty(at, pages, source);
    }

    /// Write evicted-dirty pages out synchronously (they gate the
    /// operation that forced the eviction).
    pub(super) fn write_dirty(
        &mut self,
        t: SimTime,
        pages: &[PageKey],
        source: Source,
    ) -> (SimTime, Joules) {
        let mut cur = t;
        let mut energy = Joules::ZERO;
        let mut runs = std::mem::take(&mut self.io.dirty_runs);
        file_runs(pages, &mut self.io.sorted, &mut runs);
        for &(file, (index, n)) in &runs {
            let block = self.layout.block_of(file, index * PAGE_SIZE);
            let mut src = if self.cfg.disk_only_files.contains(&file) {
                Source::Disk
            } else if self.cfg.network_only_files.contains(&file) {
                Source::Wnic
            } else {
                source
            };
            // Server outage: uploads walk the same ladder as fetches.
            // After the first exhausted ladder the dead-server mark makes
            // the rest of the batch fail over without re-paying it.
            if src == Source::Wnic {
                (cur, src) = self.wnic_gate(cur, file);
            }
            let bytes = Bytes(n * PAGE_SIZE);
            // Flash write buffering: a write aimed at a sleeping disk
            // parks in flash instead of forcing a spin-up.
            let parked = src == Source::Disk && !self.disk.model.is_ready();
            if let Some(flash) = self.flash.as_mut().filter(|_| parked) {
                let out = flash.model.service(cur, &DeviceRequest::write(bytes, None));
                cur = out.complete;
                energy += out.energy;
                let mut spilled = std::mem::take(&mut self.io.spilled);
                spilled.clear();
                flash.fill(file, &[(index, n)], true, &mut spilled);
                let (d, e) = self.write_pages_to_disk(cur, &spilled);
                self.io.spilled = spilled;
                cur = d;
                energy += e;
                continue;
            }
            let req = DeviceRequest::write(bytes, if src == Source::Disk { block } else { None });
            let out = self.service(cur, src, req);
            cur = out.complete;
            energy += out.energy;
            // §5 extension: synchronise local writes to the server. The
            // upload rides the WNIC asynchronously (device busy, app not
            // blocked beyond the primary write).
            if self.cfg.sync_writes && src == Source::Disk {
                let up = DeviceRequest::write(bytes, None);
                let out = self.service(cur, Source::Wnic, up);
                energy += out.energy;
            }
        }
        self.io.dirty_runs = runs;
        (cur, energy)
    }
}

/// Sort `pages` into per-file contiguous runs `(file, (first_page,
/// n_pages))` in `runs`, built with [`push_run`]'s rule: a page that
/// does not directly follow the last run, a duplicate included, starts
/// a new one. Both buffers are cleared first; `sorted` only holds the sort.
fn file_runs(pages: &[PageKey], sorted: &mut Vec<PageKey>, runs: &mut FileRuns) {
    sorted.clear();
    sorted.extend_from_slice(pages);
    // Equal keys are identical, so an unstable sort orders them as a
    // stable one would, without its merge buffer.
    sorted.sort_unstable();
    runs.clear();
    for &PageKey { file, index } in sorted.iter() {
        match runs.last_mut() {
            Some((f, (first, n))) if *f == file && *first + *n == index => *n += 1,
            _ => runs.push((file, (index, 1))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_runs_group_sorted_pages_by_file() {
        let key = |file, index| PageKey {
            file: FileId(file),
            index,
        };
        let pages = [
            key(1, 3),
            key(2, 4),
            key(1, 1),
            key(1, 2),
            key(1, 2),
            key(1, 7),
            key(2, 5),
        ];
        // Left-over contents of both buffers are dropped.
        let mut sorted = vec![key(9, 9)];
        let mut runs = vec![(FileId(9), (9, 9))];
        file_runs(&pages, &mut sorted, &mut runs);
        // A duplicate page starts a new run, as a non-adjacent one does;
        // runs never span two files.
        assert_eq!(
            runs,
            [
                (FileId(1), (1, 2)),
                (FileId(1), (2, 2)),
                (FileId(1), (7, 1)),
                (FileId(2), (4, 2)),
            ]
        );
        file_runs(&[key(3, 0), key(3, 0)], &mut sorted, &mut runs);
        assert_eq!(runs, [(FileId(3), (0, 1)), (FileId(3), (0, 1))]);
        file_runs(&[], &mut sorted, &mut runs);
        assert!(runs.is_empty());
    }
}
