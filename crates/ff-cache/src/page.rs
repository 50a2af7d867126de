//! Page identity, page runs, and the one page table every replacement
//! queue is built on.

use ff_base::size::PAGE_SIZE;
use ff_base::SimTime;
use ff_trace::FileId;

/// One 4 KiB page of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageKey {
    /// The file (inode).
    pub file: FileId,
    /// Page index within the file (offset / 4096).
    pub index: u64,
}

/// Iterate the page indices covering `len` bytes at `offset`. The range
/// may end at the last byte `u64` addresses.
pub fn pages_covering(offset: u64, len: u64) -> std::ops::RangeInclusive<u64> {
    debug_assert!(len > 0);
    let first = offset / PAGE_SIZE;
    let last = (offset + (len - 1)) / PAGE_SIZE;
    first..=last
}

/// Append `page` to a list of `(first_page, n_pages)` runs: extend the
/// last run when `page` directly follows it, else start a new run.
pub fn push_run(runs: &mut Vec<(u64, u64)>, page: u64) {
    match runs.last_mut() {
        Some((first, n)) if *first + *n == page => *n += 1,
        _ => runs.push((page, 1)),
    }
}

/// Pages per directory chunk: consecutive pages of one file share a
/// chunk, so a request's run of pages pays one directory probe per
/// chunk it spans.
const CHUNK: u64 = 64;

/// The null link.
const NIL: u32 = u32::MAX;

/// A chunk's directory key: its file and its page index / `CHUNK`.
type ChunkKey = (FileId, u64);

/// One directory slot: a chunk's key and id, or `NIL` for an empty slot.
#[derive(Debug, Clone, Copy)]
struct DirSlot {
    at: ChunkKey,
    chunk: u32,
}

const EMPTY: DirSlot = DirSlot {
    at: (FileId(0), 0),
    chunk: NIL,
};

/// The directory from a chunk's key to its id: an open-addressed table
/// with linear probing, at most half full, whose slot count is a power
/// of two. The hash is a fixed function of the key, and the table has
/// no iterator, so its slot order cannot reach any output. Removal
/// shifts the rest of the cluster back instead of leaving tombstones,
/// so a probe ends at the first empty slot.
#[derive(Debug, Clone, Default)]
struct Dir {
    slots: Vec<DirSlot>,
    len: usize,
}

/// The home slot of `at` in a table of `mask + 1` slots: both key words
/// through a 64-bit finaliser (MurmurHash3's fmix64), so every key bit
/// reaches the low bits the mask keeps.
fn home(at: ChunkKey, mask: usize) -> usize {
    let mut h = at.0 .0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ at.1;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h as usize & mask
}

impl Dir {
    fn len(&self) -> usize {
        self.len
    }

    /// The slot holding `at`, or the empty slot that ends its probe
    /// (`None` only while the table has no slots).
    fn probe(&self, at: ChunkKey) -> Option<usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = home(at, mask);
        loop {
            let slot = self.slots.get(i)?;
            if slot.chunk == NIL || slot.at == at {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, at: ChunkKey) -> Option<u32> {
        let slot = self.slots.get(self.probe(at)?)?;
        (slot.chunk != NIL).then_some(slot.chunk)
    }

    /// Enter `at`, which must be absent, as chunk `chunk`.
    fn insert(&mut self, at: ChunkKey, chunk: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![EMPTY; (self.slots.len() * 2).max(16)];
            let old = std::mem::replace(&mut self.slots, grown);
            for slot in old.into_iter().filter(|s| s.chunk != NIL) {
                self.put(slot);
            }
        }
        debug_assert!(self.get(at).is_none(), "{at:?} is already in the directory");
        self.put(DirSlot { at, chunk });
        self.len += 1;
    }

    /// Write `slot` into the empty slot that ends its key's probe.
    fn put(&mut self, slot: DirSlot) {
        if let Some(free) = self.probe(slot.at).and_then(|i| self.slots.get_mut(i)) {
            *free = slot;
        }
    }

    /// Drop `at` if present. Each later slot of its cluster moves back
    /// into the hole when the hole lies between that slot's home and
    /// the slot, so no probe meets an empty slot before its key.
    fn remove(&mut self, at: ChunkKey) {
        let present = |&i: &usize| self.slots.get(i).is_some_and(|s| s.chunk != NIL);
        let Some(mut hole) = self.probe(at).filter(present) else {
            return;
        };
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some(&next) = self.slots.get(j).filter(|s| s.chunk != NIL) else {
                break;
            };
            if j.wrapping_sub(home(next.at, mask)) & mask >= j.wrapping_sub(hole) & mask {
                if let Some(h) = self.slots.get_mut(hole) {
                    *h = next;
                }
                hole = j;
            }
        }
        if let Some(h) = self.slots.get_mut(hole) {
            *h = EMPTY;
        }
        self.len -= 1;
    }
}

/// A page in the table: its key, its links on its list and the chunk
/// holding its slot and its list's tag.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: PageKey,
    prev: u32,
    next: u32,
    chunk: u32,
}

/// `CHUNK` consecutive pages of one file: the node of each (or `NIL`),
/// the tag of the list each present page is on, one mark bit per page
/// (set while the page is stamped), how many are present, and the
/// directory key the chunk sits under. A tag is only meaningful where
/// its slot is not `NIL`; a mark is set only where its slot is not
/// `NIL`.
#[derive(Debug, Clone)]
struct Chunk {
    slots: [u32; CHUNK as usize],
    tags: [u8; CHUNK as usize],
    marks: u64,
    live: u32,
    at: ChunkKey,
}

/// A handle on a page's node, valid until the page is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// One intrusive doubly linked list threaded through a [`PageTable`]'s
/// nodes, oldest first. `tag` marks the pages on it, so a lookup says
/// which list a page is on; the list's owner gives the tags meaning.
#[derive(Debug, Clone, Copy)]
pub struct PageList {
    head: u32,
    tail: u32,
    len: usize,
    tag: u8,
}

impl PageList {
    /// An empty list whose nodes carry `tag`.
    pub const fn new(tag: u8) -> Self {
        PageList {
            head: NIL,
            tail: NIL,
            len: 0,
            tag,
        }
    }

    /// Number of pages on the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A page's links on a [`StampList`] and the time it was stamped.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    prev: u32,
    next: u32,
    at: SimTime,
}

const UNLINKED: Stamp = Stamp {
    prev: NIL,
    next: NIL,
    at: SimTime::ZERO,
};

/// The marked pages of a [`PageTable`], oldest stamp first: a second
/// intrusive list a page can be on beside its [`PageList`]. Its links
/// and times sit in an array beside the node slab, so walks of the
/// page lists never load them.
#[derive(Debug, Clone, Copy)]
pub struct StampList {
    head: u32,
    tail: u32,
    len: usize,
}

impl StampList {
    /// An empty list.
    pub const fn new() -> Self {
        StampList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of pages on the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for StampList {
    fn default() -> Self {
        StampList::new()
    }
}

/// Pages on any number of [`PageList`]s: a FIFO when pages are only
/// pushed and popped, an LRU when hits move them to the back.
///
/// Nodes live in a slab with a free list; list operations are O(1).
/// A page is found through a hashed directory from `(file, index /
/// CHUNK)` to a chunk of slots. `finger` caches the answer of the last
/// mutable lookup — the chunk it reached, or `NIL` when there was none
/// — so a run of pages in one chunk pays one directory probe whether
/// the chunk exists or not. A chunk enters the directory only in
/// `insert`, which points the finger at it, and freeing the finger's
/// chunk clears the finger, so a cached answer is always exact. Each
/// page's list tag and mark bit sit in its chunk beside its slot, so
/// counting a range's pages by tag reads contiguous bytes and touches
/// no node. Moving or removing a page reaches its slot, tag and mark
/// through `Node::chunk`, with no probe, and a chunk leaves the
/// directory when its last page does.
///
/// An owner may keep some of its pages on a [`StampList`] in the order
/// of the times they were stamped; a stamped page is marked in its
/// chunk, and `stamps` holds the links, indexed like `nodes` and grown
/// only when a page is first stamped. Such an owner unstamps a page
/// before it removes it.
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    stamps: Vec<Stamp>,
    free_node: u32,
    chunks: Vec<Chunk>,
    free_chunks: Vec<u32>,
    dir: Dir,
    finger: Option<(ChunkKey, u32)>,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable {
            nodes: Vec::new(),
            stamps: Vec::new(),
            free_node: NIL,
            chunks: Vec::new(),
            free_chunks: Vec::new(),
            dir: Dir::default(),
            finger: None,
        }
    }
}

/// The directory key of `key`'s chunk and its slot within the chunk.
fn split(key: PageKey) -> (ChunkKey, usize) {
    ((key.file, key.index / CHUNK), (key.index % CHUNK) as usize)
}

/// A chunk for directory key `at`: a freed one (whose slots are all
/// `NIL` and marks clear) or a new one. The caller enters it in the
/// directory.
fn alloc_chunk(chunks: &mut Vec<Chunk>, free_chunks: &mut Vec<u32>, at: ChunkKey) -> u32 {
    match free_chunks.pop() {
        Some(c) => {
            if let Some(chunk) = chunks.get_mut(c as usize) {
                chunk.at = at;
            }
            c
        }
        None => {
            chunks.push(Chunk {
                slots: [NIL; CHUNK as usize],
                tags: [0; CHUNK as usize],
                marks: 0,
                live: 0,
                at,
            });
            (chunks.len() - 1) as u32
        }
    }
}

impl PageTable {
    /// The page's slot and its list's tag, moving the finger to its
    /// chunk, or to the absence of one.
    pub fn find(&mut self, key: PageKey) -> Option<(Slot, u8)> {
        let (at, i) = split(key);
        let c = self.chunk_at(at);
        self.finger = Some((at, c.unwrap_or(NIL)));
        self.node_at(c?, i)
    }

    /// The tag of the list holding `key`, if any (no state change).
    pub fn tag_of(&self, key: PageKey) -> Option<u8> {
        let (at, i) = split(key);
        self.node_at(self.chunk_at(at)?, i).map(|(_, tag)| tag)
    }

    /// The chunk under directory key `at`: the finger's answer, or one
    /// probe.
    fn chunk_at(&self, at: ChunkKey) -> Option<u32> {
        match self.finger {
            Some((f, c)) if f == at => (c != NIL).then_some(c),
            _ => self.dir.get(at),
        }
    }

    fn node_at(&self, chunk: u32, i: usize) -> Option<(Slot, u8)> {
        let chunk = self.chunks.get(chunk as usize)?;
        let s = *chunk.slots.get(i)?;
        (s != NIL).then_some((Slot(s), *chunk.tags.get(i)?))
    }

    /// The list tag of the page in `slot`, read from its chunk.
    fn tag_at(&self, slot: Slot) -> Option<u8> {
        let (c, i) = self.place(slot)?;
        self.chunks.get(c)?.tags.get(i).copied()
    }

    /// Add `key`, which must not be in the table, at the back of `list`.
    pub fn insert(&mut self, list: &mut PageList, key: PageKey) -> Slot {
        debug_assert!(
            self.tag_of(key).is_none(),
            "{key:?} is already in the table"
        );
        let (at, i) = split(key);
        let c = self.chunk_for(at);
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
            chunk: c,
        };
        let s = match self.nodes.get_mut(self.free_node as usize) {
            Some(free) => {
                let s = self.free_node;
                self.free_node = free.next;
                *free = node;
                s
            }
            None => {
                // Links are `u32`: a cache holds far fewer than 2^32 - 1
                // pages and ghosts.
                debug_assert!(self.nodes.len() < NIL as usize);
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        if let Some(chunk) = self.chunks.get_mut(c as usize) {
            if let Some(slot) = chunk.slots.get_mut(i) {
                *slot = s;
                chunk.live += 1;
            }
        }
        self.push_back(list, Slot(s));
        Slot(s)
    }

    /// The chunk under directory key `at`, created when there is none,
    /// with the finger moved to it. The one place a chunk enters the
    /// directory: no lookup when the finger already answers, else one.
    fn chunk_for(&mut self, at: ChunkKey) -> u32 {
        let c = match self.finger {
            Some((f, c)) if f == at => c,
            _ => self.dir.get(at).unwrap_or(NIL),
        };
        let c = if c == NIL {
            let c = alloc_chunk(&mut self.chunks, &mut self.free_chunks, at);
            self.dir.insert(at, c);
            c
        } else {
            c
        };
        self.finger = Some((at, c));
        c
    }

    /// Link the unlinked `slot` at the back of `list`.
    pub fn push_back(&mut self, list: &mut PageList, slot: Slot) {
        let Slot(s) = slot;
        let tail = list.tail;
        let Some(node) = self.nodes.get_mut(s as usize) else {
            return;
        };
        node.prev = tail;
        node.next = NIL;
        let (c, i) = (node.chunk, split(node.key).1);
        if let Some(tag) = self
            .chunks
            .get_mut(c as usize)
            .and_then(|c| c.tags.get_mut(i))
        {
            *tag = list.tag;
        }
        match self.nodes.get_mut(tail as usize) {
            Some(prev) => prev.next = s,
            None => list.head = s,
        }
        list.tail = s;
        list.len += 1;
    }

    /// Unlink `slot` from `list`, which must hold it. The page stays in
    /// the table until it is pushed onto a list again or removed.
    pub fn unlink(&mut self, list: &mut PageList, slot: Slot) {
        let Slot(s) = slot;
        let Some(&Node { prev, next, .. }) = self.nodes.get(s as usize) else {
            return;
        };
        debug_assert_eq!(
            self.tag_at(slot),
            Some(list.tag),
            "slot {s} is not on this list"
        );
        match self.nodes.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => list.head = next,
        }
        match self.nodes.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => list.tail = prev,
        }
        list.len -= 1;
    }

    /// Unlink the oldest page of `list`, keeping it in the table.
    pub fn take_front(&mut self, list: &mut PageList) -> Option<(Slot, PageKey)> {
        let key = self.nodes.get(list.head as usize)?.key;
        let slot = Slot(list.head);
        self.unlink(list, slot);
        Some((slot, key))
    }

    /// Remove the oldest page of `list`, which must not be stamped,
    /// from the table.
    pub fn pop_front(&mut self, list: &mut PageList) -> Option<PageKey> {
        let (slot, key) = self.take_front(list)?;
        self.remove(slot);
        Some(key)
    }

    /// The chunk holding the page in `slot`, and the page's position
    /// in it.
    fn place(&self, slot: Slot) -> Option<(usize, usize)> {
        let node = self.nodes.get(slot.0 as usize)?;
        Some((node.chunk as usize, split(node.key).1))
    }

    /// Mark the page in `slot` and link it into `list` by `at`, after
    /// every page stamped no later. A marked page keeps its place and
    /// its time. The insert walks back from the tail, so it is O(1)
    /// when times do not decrease and exact for any order.
    pub fn stamp(&mut self, list: &mut StampList, slot: Slot, at: SimTime) {
        let Slot(s) = slot;
        let Some((c, i)) = self.place(slot) else {
            return;
        };
        match self.chunks.get_mut(c) {
            Some(chunk) if chunk.marks >> i & 1 == 0 => chunk.marks |= 1 << i,
            _ => return,
        }
        if self.stamps.len() <= s as usize {
            self.stamps.resize(self.nodes.len(), UNLINKED);
        }
        let mut prev = list.tail;
        while let Some(p) = self.stamps.get(prev as usize).filter(|p| p.at > at) {
            prev = p.prev;
        }
        let next = match self.stamps.get_mut(prev as usize) {
            Some(p) => std::mem::replace(&mut p.next, s),
            None => std::mem::replace(&mut list.head, s),
        };
        match self.stamps.get_mut(next as usize) {
            Some(n) => n.prev = s,
            None => list.tail = s,
        }
        if let Some(stamp) = self.stamps.get_mut(s as usize) {
            *stamp = Stamp { prev, next, at };
        }
        list.len += 1;
    }

    /// Clear the mark of the page in `slot` and unlink it from `list`,
    /// which holds every marked page of the table. Returns whether the
    /// page was marked.
    pub fn unstamp(&mut self, list: &mut StampList, slot: Slot) -> bool {
        if !self.clear_mark(slot) {
            return false;
        }
        let Some(&Stamp { prev, next, .. }) = self.stamps.get(slot.0 as usize) else {
            return false;
        };
        match self.stamps.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => list.head = next,
        }
        match self.stamps.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => list.tail = prev,
        }
        list.len -= 1;
        true
    }

    /// Unstamp the pages at the front of `list` whose stamp `due`
    /// accepts, up to the first it refuses, appending their keys to
    /// `out` in stamp order. When `due` accepts every time at or before
    /// some instant, those are all the pages it accepts.
    pub fn take_stamped(
        &mut self,
        list: &mut StampList,
        due: impl Fn(SimTime) -> bool,
        out: &mut Vec<PageKey>,
    ) {
        while let Some(stamp) = self.stamps.get(list.head as usize) {
            let slot = Slot(list.head);
            let Some(node) = self.nodes.get(slot.0 as usize).filter(|_| due(stamp.at)) else {
                break;
            };
            out.push(node.key);
            self.unstamp(list, slot);
        }
    }

    /// Clear the mark of the page in `slot`; returns whether it was set.
    fn clear_mark(&mut self, slot: Slot) -> bool {
        let Some((c, i)) = self.place(slot) else {
            return false;
        };
        let Some(chunk) = self.chunks.get_mut(c) else {
            return false;
        };
        let was = chunk.marks >> i & 1 == 1;
        chunk.marks &= !(1 << i);
        was
    }

    /// Remove the unlinked, unstamped `slot` from the table: clear its
    /// chunk slot, and free the chunk (and the finger, if it points
    /// there) once it is empty.
    pub fn remove(&mut self, slot: Slot) {
        let Slot(s) = slot;
        let Some(node) = self.nodes.get_mut(s as usize) else {
            return;
        };
        let (c, i) = (node.chunk, split(node.key).1);
        node.next = self.free_node;
        self.free_node = s;
        let Some(chunk) = self.chunks.get_mut(c as usize) else {
            return;
        };
        debug_assert_eq!(chunk.marks >> i & 1, 0, "slot {s} is still stamped");
        if let Some(slot) = chunk.slots.get_mut(i) {
            *slot = NIL;
            chunk.live -= 1;
        }
        if chunk.live == 0 {
            self.dir.remove(chunk.at);
            self.free_chunks.push(c);
            if matches!(self.finger, Some((_, f)) if f == c) {
                self.finger = None;
            }
        }
    }

    /// Pages of `file` with index in `first..=last` whose list tag
    /// passes `keep`. A range inside one chunk takes the finger or one
    /// probe. A longer one probes each of its chunk keys when there are
    /// fewer of those than live chunks, else scans the chunks, so a
    /// range of any length costs at most one pass over the live chunks.
    pub fn count_in(
        &self,
        file: FileId,
        first: u64,
        last: u64,
        keep: impl Fn(u8) -> bool,
    ) -> usize {
        let (lo, hi) = (first / CHUNK, last / CHUNK);
        if lo == hi {
            return self
                .chunk_at((file, lo))
                .map_or(0, |c| self.count_chunk(c, first, last, &keep));
        }
        if hi - lo < self.dir.len() as u64 {
            return (lo..=hi)
                .filter_map(|ci| self.dir.get((file, ci)))
                .map(|c| self.count_chunk(c, first, last, &keep))
                .sum();
        }
        // A freed chunk keeps its old key, but all its slots are `NIL`.
        self.chunks
            .iter()
            .filter(|chunk| chunk.at.0 == file && (lo..=hi).contains(&chunk.at.1))
            .map(|chunk| chunk.count(first, last, &keep))
            .sum()
    }

    /// `count_in` over chunk `c` alone.
    fn count_chunk(&self, c: u32, first: u64, last: u64, keep: &impl Fn(u8) -> bool) -> usize {
        self.chunks
            .get(c as usize)
            .map_or(0, |chunk| chunk.count(first, last, keep))
    }
}

impl Chunk {
    /// Pages of this chunk with index in `first..=last`, a range that
    /// overlaps the chunk, whose tag passes `keep`.
    fn count(&self, first: u64, last: u64, keep: &impl Fn(u8) -> bool) -> usize {
        let base = self.at.1 * CHUNK;
        let lo = (first.max(base) - base) as usize;
        let hi = (last.min(base + (CHUNK - 1)) - base) as usize;
        let slots = self.slots.get(lo..=hi).unwrap_or_default();
        let tags = self.tags.get(lo..=hi).unwrap_or_default();
        slots
            .iter()
            .zip(tags)
            .filter(|&(&s, &tag)| s != NIL && keep(tag))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn key(file: u64, index: u64) -> PageKey {
        PageKey {
            file: FileId(file),
            index,
        }
    }

    fn drain(t: &mut PageTable, list: &mut PageList) -> Vec<u64> {
        std::iter::from_fn(|| t.pop_front(list))
            .map(|k| k.index)
            .collect()
    }

    #[test]
    fn covering_ranges() {
        assert_eq!(pages_covering(0, 1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(pages_covering(0, 4096).collect::<Vec<_>>(), vec![0]);
        assert_eq!(pages_covering(0, 4097).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(pages_covering(4095, 2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(pages_covering(8192, 8192).collect::<Vec<_>>(), vec![2, 3]);
        let last = u64::MAX / 4096;
        assert_eq!(pages_covering(u64::MAX - 4096, 4097), (last - 1)..=last);
    }

    #[test]
    fn push_run_extends_only_a_directly_following_page() {
        let mut runs = Vec::new();
        for p in [3, 4, 5, 7, 8, 2] {
            push_run(&mut runs, p);
        }
        assert_eq!(runs, vec![(3, 3), (7, 2), (2, 1)]);
    }

    #[test]
    fn unlink_and_repush_reorder() {
        let mut t = PageTable::default();
        let (mut a, mut b) = (PageList::new(0), PageList::new(1));
        let slots: Vec<Slot> = (0..5).map(|i| t.insert(&mut a, key(1, i))).collect();
        // Move 1 to the back of the same list, 3 onto the other list,
        // and 0 off and back on.
        t.unlink(&mut a, slots[1]);
        t.push_back(&mut a, slots[1]);
        t.unlink(&mut a, slots[3]);
        t.push_back(&mut b, slots[3]);
        t.unlink(&mut a, slots[0]);
        t.push_back(&mut a, slots[0]);
        assert_eq!((a.len(), b.len()), (4, 1));
        assert_eq!(t.find(key(1, 3)), Some((slots[3], 1)));
        assert_eq!(t.tag_of(key(1, 1)), Some(0));
        assert_eq!(drain(&mut t, &mut a), vec![2, 4, 1, 0]);
        assert!(a.is_empty());
        assert_eq!(t.tag_of(key(1, 2)), None, "a popped page leaves the table");
        assert_eq!(drain(&mut t, &mut b), vec![3]);
        // Freed nodes are reused, and order still holds.
        for i in [9, 7, 8] {
            t.insert(&mut a, key(2, i));
        }
        assert_eq!(t.nodes.len(), 5);
        assert_eq!(drain(&mut t, &mut a), vec![9, 7, 8]);
    }

    #[test]
    fn take_front_keeps_the_page_in_the_table() {
        let mut t = PageTable::default();
        let (mut a, mut b) = (PageList::new(0), PageList::new(1));
        t.insert(&mut a, key(1, 0));
        t.insert(&mut a, key(1, 1));
        let (slot, k) = t.take_front(&mut a).unwrap();
        assert_eq!(k, key(1, 0));
        assert_eq!(t.tag_of(k), Some(0), "still in the table, off every list");
        t.push_back(&mut b, slot);
        assert_eq!(t.tag_of(k), Some(1));
        assert_eq!((a.len(), b.len()), (1, 1));
    }

    #[test]
    fn empty_chunk_is_freed_and_clears_the_finger() {
        let mut t = PageTable::default();
        let mut a = PageList::new(0);
        // Pages 0 and 63 share chunk 0; 64 is in chunk 1.
        for i in [0, 63, 64] {
            t.insert(&mut a, key(1, i));
        }
        assert_eq!(t.dir.len(), 2);
        assert!(t.find(key(1, 0)).is_some());
        assert_eq!(t.finger.map(|(at, _)| at), Some((FileId(1), 0)));
        t.pop_front(&mut a); // page 0: chunk 0 keeps page 63
        assert_eq!(t.dir.len(), 2);
        assert!(t.finger.is_some());
        t.pop_front(&mut a); // page 63: chunk 0 is empty
        assert_eq!(t.dir.len(), 1);
        assert_eq!(
            t.finger, None,
            "a freed chunk must not stay under the finger"
        );
        assert_eq!(t.free_chunks.len(), 1);
        // The freed chunk is reused for another file's pages, and the
        // old pages are not found through it.
        t.insert(&mut a, key(2, 5));
        assert_eq!(t.chunks.len(), 2);
        assert_eq!(t.find(key(1, 5)), None);
        assert_eq!(t.tag_of(key(1, 63)), None);
        assert_eq!(t.tag_of(key(2, 5)), Some(0));
    }

    #[test]
    fn count_in_reads_the_tags_every_list_operation_leaves() {
        // A model of which list each page is on, kept beside the table
        // through random inserts, moves, pops and chunk reuse.
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut t = PageTable::default();
        let mut lists = [PageList::new(0), PageList::new(1), PageList::new(2)];
        let mut model: BTreeMap<PageKey, u8> = BTreeMap::new();
        let mut chunks_reused = 0;
        for step in 0..4_000 {
            let index = match next(3) {
                0 => next(200),
                1 => 120 + next(20),
                _ => u64::MAX - next(130),
            };
            let k = key(1 + next(3), index);
            let l = next(3) as usize;
            match next(4) {
                0 | 1 => match t.find(k) {
                    // A hit moves the page to the back of list `l`.
                    Some((slot, tag)) => {
                        t.unlink(&mut lists[tag as usize], slot);
                        t.push_back(&mut lists[l], slot);
                        model.insert(k, l as u8);
                    }
                    None => {
                        let free = t.free_chunks.len();
                        t.insert(&mut lists[l], k);
                        chunks_reused += usize::from(t.free_chunks.len() < free);
                        model.insert(k, l as u8);
                    }
                },
                2 => {
                    // The oldest page of `l` moves onto the next list.
                    let to = (l + 1) % lists.len();
                    if let Some((slot, k)) = t.take_front(&mut lists[l]) {
                        t.push_back(&mut lists[to], slot);
                        model.insert(k, to as u8);
                    }
                }
                _ => {
                    if let Some(k) = t.pop_front(&mut lists[l]) {
                        model.remove(&k);
                    }
                }
            }
            if step % 8 != 0 {
                continue;
            }
            let file = FileId(1 + next(3));
            let (a, b) = if next(2) == 0 {
                (next(260), next(260))
            } else {
                (u64::MAX - next(200), u64::MAX - next(200))
            };
            let (first, last) = (a.min(b), a.max(b));
            for want_tag in [None, Some(0), Some(1), Some(2)] {
                let keep = |tag: u8| want_tag.is_none_or(|w| w == tag);
                // The reference: page by page through the model.
                let want = model
                    .iter()
                    .filter(|(k, &tag)| {
                        k.file == file && (first..=last).contains(&k.index) && keep(tag)
                    })
                    .count();
                assert_eq!(
                    t.count_in(file, first, last, keep),
                    want,
                    "step {step}: {file:?} {first}..={last} tag {want_tag:?}"
                );
            }
        }
        // Every list still holds exactly the pages the model puts on it.
        for (tag, list) in lists.iter().enumerate() {
            let on_list = model.values().filter(|&&v| v == tag as u8).count();
            assert_eq!(list.len(), on_list);
        }
        assert!(chunks_reused > 10, "{chunks_reused} chunk reuses");
    }

    #[test]
    fn the_finger_answers_absence_exactly() {
        // Random failed finds, inserts into absent and present chunks,
        // pops that free chunks, and chunk reuse across files; after
        // every step `find`, `tag_of` and `count_in` agree with a model.
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut t = PageTable::default();
        let mut lists = [PageList::new(0), PageList::new(1)];
        let mut model: BTreeMap<PageKey, u8> = BTreeMap::new();
        let (mut absent_finds, mut absent_inserts, mut chunks_reused) = (0, 0, 0);
        for step in 0..6_000 {
            // Six chunks per file, the last one at the top of `u64`,
            // five pages in each, at both of its edges.
            let chunk = match next(6) {
                5 => u64::MAX / CHUNK,
                c => c,
            };
            let index = chunk * CHUNK + [0, 1, 31, 62, 63][next(5) as usize];
            let k = key(1 + next(3), index);
            let l = next(2) as usize;
            match next(6) {
                0 | 1 => {
                    let found = t.find(k).map(|(_, tag)| tag);
                    assert_eq!(found, model.get(&k).copied(), "step {step}: find {k:?}");
                    absent_finds += usize::from(matches!(t.finger, Some((_, NIL))));
                }
                2 | 3 if !model.contains_key(&k) => {
                    // Callers find before they insert; the other half of
                    // the time the insert starts from wherever the last
                    // probe left the finger.
                    if next(2) == 0 {
                        assert_eq!(t.find(k), None, "step {step}");
                    }
                    let (free, dirs) = (t.free_chunks.len(), t.dir.len());
                    t.insert(&mut lists[l], k);
                    absent_inserts += usize::from(t.dir.len() > dirs);
                    chunks_reused += usize::from(t.free_chunks.len() < free);
                    model.insert(k, l as u8);
                }
                _ => {
                    if let Some(k) = t.pop_front(&mut lists[l]) {
                        model.remove(&k);
                    }
                }
            }
            // Probe the chunk just touched, through the finger, then a
            // neighbour: page by page, then by range.
            for probe in [k, key(k.file.0 % 3 + 1, k.index ^ CHUNK)] {
                let want = model.get(&probe).copied();
                assert_eq!(t.tag_of(probe), want, "step {step}: tag_of {probe:?}");
                let (first, last) = (probe.index & !(CHUNK - 1), probe.index | (CHUNK - 1));
                let in_chunk = model
                    .range(key(probe.file.0, first)..=key(probe.file.0, last))
                    .count();
                assert_eq!(
                    t.count_in(probe.file, first, last, |_| true),
                    in_chunk,
                    "step {step}: count_in {probe:?}"
                );
                assert_eq!(t.find(probe).map(|(_, tag)| tag), want, "step {step}");
            }
        }
        assert!(absent_finds > 500, "{absent_finds} cached absences");
        assert!(
            absent_inserts > 500,
            "{absent_inserts} inserts into absent chunks"
        );
        assert!(chunks_reused > 500, "{chunks_reused} chunk reuses");
    }

    #[test]
    fn stamps_stay_with_their_pages() {
        let mut t = PageTable::default();
        let (mut a, mut dirty) = (PageList::new(0), StampList::new());
        let keys = [
            key(2, 0),
            key(1, u64::MAX),
            key(1, 63),
            key(1, 64),
            key(2, 5),
        ];
        let slots: Vec<Slot> = keys.iter().map(|&k| t.insert(&mut a, k)).collect();
        for (at, &s) in (0..).zip(&slots) {
            t.stamp(&mut dirty, s, SimTime::from_secs(at));
        }
        // Stamping twice keeps the first place and time.
        t.stamp(&mut dirty, slots[0], SimTime::from_secs(9));
        assert_eq!(dirty.len(), 5);
        // The oldest page leaves unstamped, and its slot is clean for
        // the page that reuses it.
        let (slot, k) = t.take_front(&mut a).unwrap();
        assert_eq!(k, keys[0]);
        assert!(t.unstamp(&mut dirty, slot));
        t.remove(slot);
        let reused = t.insert(&mut a, key(3, 1));
        assert_eq!(reused, slots[0]);
        assert!(
            !t.unstamp(&mut dirty, reused),
            "a freed page's mark survived"
        );
        let mut out = Vec::new();
        t.take_stamped(&mut dirty, |at| at <= SimTime::from_secs(2), &mut out);
        assert_eq!(out, keys[1..3], "the due prefix, in stamp order");
        t.take_stamped(&mut dirty, |_| true, &mut out);
        assert_eq!(out, keys[1..]);
        assert!(dirty.is_empty());
        assert!(slots[1..].iter().all(|&s| !t.unstamp(&mut dirty, s)));
    }

    #[test]
    fn directory_matches_a_btreemap() {
        // Random inserts, removes and gets against a `BTreeMap`. Most
        // keys are drawn from ones whose hash puts them in the last 16
        // slots of every table from 32 to 256 slots, so their clusters
        // wrap the table's end and removals land inside clusters; the
        // table grows from 16 to 256 slots and shrinks back.
        let mut rng = 0x5851_f42d_4c95_7f2d_u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let all: Vec<ChunkKey> = (1..4)
            .flat_map(|f| (0..1_000).map(move |ci| (FileId(f), ci)))
            .chain([(FileId(u64::MAX), u64::MAX / CHUNK)])
            .collect();
        let clustered: Vec<ChunkKey> = all
            .iter()
            .copied()
            .filter(|&at| home(at, 255) >= 240)
            .collect();
        assert!(clustered.len() > 100, "{} clustered keys", clustered.len());
        let mut dir = Dir::default();
        let mut model: BTreeMap<ChunkKey, u32> = BTreeMap::new();
        let (mut wrapped, mut shifts, mut sizes) = (0, 0, BTreeSet::new());
        for step in 0..20_000_u32 {
            let pool = if next(5) == 0 { &all } else { &clustered };
            let at = pool[next(pool.len() as u64) as usize];
            // Fill to 120 keys (a 256-slot table), drain to 8, repeat.
            let target = if step / 2_500 % 2 == 0 { 120 } else { 8 };
            match next(4) {
                0 => assert_eq!(dir.get(at), model.get(&at).copied(), "step {step}"),
                1 | 2 if model.len() < target => {
                    if !model.contains_key(&at) {
                        dir.insert(at, step);
                        model.insert(at, step);
                    }
                }
                _ => {
                    // Half the removals take a present key.
                    let at = match next(2) {
                        0 => model.keys().nth(next(model.len().max(1) as u64) as usize),
                        _ => None,
                    }
                    .copied()
                    .unwrap_or(at);
                    let mid_cluster = model.contains_key(&at)
                        && dir.probe(at).is_some_and(|i| {
                            dir.slots[(i + 1) & (dir.slots.len() - 1)].chunk != NIL
                        });
                    shifts += usize::from(mid_cluster);
                    dir.remove(at);
                    model.remove(&at);
                }
            }
            assert_eq!(dir.len(), model.len(), "step {step}");
            sizes.insert(dir.slots.len());
            if step % 64 == 0 {
                for &k in &clustered {
                    assert_eq!(dir.get(k), model.get(&k).copied(), "step {step}: {k:?}");
                }
                let mask = dir.slots.len().wrapping_sub(1);
                wrapped += (0..)
                    .zip(&dir.slots)
                    .filter(|&(i, s)| s.chunk != NIL && i < home(s.at, mask))
                    .count();
            }
        }
        assert_eq!(
            sizes.into_iter().collect::<Vec<_>>(),
            [16, 32, 64, 128, 256]
        );
        assert!(wrapped > 1_000, "{wrapped} wrapped entries seen");
        assert!(shifts > 1_000, "{shifts} removals inside a cluster");
    }

    #[test]
    fn count_in_stays_inside_one_file() {
        let mut t = PageTable::default();
        let (mut a, mut ghost) = (PageList::new(0), PageList::new(1));
        for (file, index) in [
            (1, 0),
            (1, u64::MAX),
            (2, 0),
            (2, 63),
            (2, 64),
            (2, 9),
            (3, 0),
        ] {
            t.insert(&mut a, key(file, index));
        }
        t.insert(&mut ghost, key(2, 5));
        t.insert(&mut ghost, key(1, u64::MAX - 1));
        let all = |_| true;
        let live = |tag| tag == 0;
        assert_eq!(t.count_in(FileId(2), 0, u64::MAX, all), 5);
        assert_eq!(t.count_in(FileId(2), 0, u64::MAX, live), 4);
        assert_eq!(t.count_in(FileId(2), 1, 63, live), 2);
        assert_eq!(t.count_in(FileId(2), 63, 64, live), 2);
        assert_eq!(t.count_in(FileId(2), 64, 64, live), 1);
        assert_eq!(t.count_in(FileId(2), 65, u64::MAX, live), 0);
        assert_eq!(t.count_in(FileId(1), 1, u64::MAX, live), 1);
        assert_eq!(t.count_in(FileId(1), u64::MAX - 1, u64::MAX, all), 2);
        assert_eq!(t.count_in(FileId(1), u64::MAX, u64::MAX, live), 1);
        assert_eq!(t.count_in(FileId(4), 0, u64::MAX, all), 0);
        let (slot, _) = t.find(key(2, 63)).unwrap();
        t.unlink(&mut a, slot);
        t.remove(slot);
        assert_eq!(t.count_in(FileId(2), 0, u64::MAX, live), 3);
    }
}
