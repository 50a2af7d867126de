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

/// The flash tier (DESIGN §7): its live device and its page membership.
pub(super) struct FlashTier {
    pub(super) model: Live<FlashModel>,
    pub(super) pages: FlashCache,
}

impl FlashTier {
    /// Split page runs of `file` by flash residency (runs stay
    /// contiguous). Flash LRU positions refresh on lookups.
    fn partition(&mut self, file: FileId, runs: &[(u64, u64)]) -> (PageRuns, PageRuns) {
        let mut hits: PageRuns = Vec::new();
        let mut misses: PageRuns = Vec::new();
        for &(page, n) in runs {
            for pg in page..page + n {
                let hit = self.pages.lookup(PageKey { file, index: pg });
                push_run(if hit { &mut hits } else { &mut misses }, pg);
            }
        }
        (hits, misses)
    }

    /// Copy page runs of `file` into flash — clean copies of fetched
    /// pages, or parked writes when `dirty`. Returns the dirty pages
    /// squeezed out, which must reach the disk now.
    fn fill(&mut self, file: FileId, runs: &[(u64, u64)], dirty: bool) -> Vec<PageKey> {
        let mut spilled = Vec::new();
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
        spilled
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
        let misses;
        let (demand, prefetch) = if let Some(flash) = self.flash.as_mut() {
            let (hit_d, miss_d) = flash.partition(file, demand);
            let (_, miss_p) = flash.partition(file, prefetch);
            // Serve flash hits (blocking for the application).
            let mut cur = t;
            for &(_, n) in &hit_d {
                let req = DeviceRequest::read(Bytes(n * PAGE_SIZE), None);
                let out = flash.model.service(cur, &req);
                cur = out.complete;
                energy += out.energy;
            }
            app_done = app_done.max(cur);
            // Populate flash with what the device is about to fetch.
            let mut spilled = flash.fill(file, &miss_d, false);
            spilled.extend(flash.fill(file, &miss_p, false));
            energy += self.write_pages_to_disk(cur, &spilled).1;
            misses = (miss_d, miss_p);
            (&misses.0[..], &misses.1[..])
        } else {
            (demand, prefetch)
        };
        match source {
            Source::Disk => {
                // C-SCAN over the combined batch; tag 1 = demand.
                let mut q = CScanQueue::new();
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
                for r in q.drain_sweep() {
                    let req = DeviceRequest::read(Bytes(r.blocks * PAGE_SIZE), Some(r.start));
                    let out = self.service(cur, Source::Disk, req);
                    cur = out.complete;
                    energy += out.energy;
                    if r.tag == 1 {
                        app_done = app_done.max(out.complete);
                    }
                }
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
        (app_done, energy)
    }

    /// Force pages to the physical disk (flash spill / destage path).
    fn write_pages_to_disk(&mut self, t: SimTime, pages: &[PageKey]) -> (SimTime, Joules) {
        let mut cur = t;
        let mut energy = Joules::ZERO;
        for (file, (start, n)) in file_runs(pages) {
            let block = self.layout.block_of(file, start * PAGE_SIZE);
            let req = DeviceRequest::write(Bytes(n * PAGE_SIZE), block);
            let out = self.service(cur, Source::Disk, req);
            cur = out.complete;
            energy += out.energy;
        }
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
        for (file, (index, n)) in file_runs(pages) {
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
                let spilled = flash.fill(file, &[(index, n)], true);
                let (d, e) = self.write_pages_to_disk(cur, &spilled);
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
        (cur, energy)
    }
}

/// Sort `pages` into per-file contiguous runs `(file, (first_page,
/// n_pages))`, built with [`push_run`].
fn file_runs(pages: &[PageKey]) -> impl Iterator<Item = (FileId, (u64, u64))> {
    let mut sorted = pages.to_vec();
    sorted.sort();
    let mut by_file: Vec<(FileId, PageRuns)> = Vec::new();
    for p in sorted {
        match by_file.last_mut() {
            Some((file, runs)) if *file == p.file => push_run(runs, p.index),
            _ => by_file.push((p.file, vec![(p.index, 1)])),
        }
    }
    (by_file.into_iter()).flat_map(|(file, runs)| runs.into_iter().map(move |run| (file, run)))
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
        ];
        let runs: Vec<_> = file_runs(&pages).collect();
        // A duplicate page starts a new run, as a non-adjacent one does.
        assert_eq!(
            runs,
            [
                (FileId(1), (1, 2)),
                (FileId(1), (2, 2)),
                (FileId(1), (7, 1)),
                (FileId(2), (4, 1)),
            ]
        );
        assert_eq!(file_runs(&[]).count(), 0);
    }
}
