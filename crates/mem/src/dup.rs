//! Duplicate handling (§2.4, Fig. 4 of the paper).
//!
//! Storing duplicates as linked lists of individually allocated nodes causes
//! random memory accesses during scans. QPPT instead stores the values of a
//! key in *contiguous segments*: the first segment holds 64 bytes worth of
//! values, and each further segment doubles in size until it reaches the
//! 4 KB page size, because hardware prefetchers do not cross page boundaries
//! anyway. Segments never straddle a slab, so every segment is a single
//! contiguous run of memory.
//!
//! The paper puts new segments *in front* of the list so that appends never
//! traverse it. Here each segment links to the next newer one and the
//! list's first segment remembers the newest, which keeps appends O(1) and
//! lets a reader walk the list oldest-first — insertion order — without
//! collecting the chain: [`Values`] yields a list segment by segment
//! ([`Values::next_slice`]) or value by value, and allocates nothing.
//!
//! [`DupArena`] implements that scheme. [`LinkedDupArena`] implements the
//! naive one-node-per-value linked list the paper argues against; it exists
//! solely so the ablation benchmark (Ablation A2 in DESIGN.md) can quantify
//! the difference.

const PAGE_BYTES: usize = 4096;
const MIN_SEG_BYTES: usize = 64;
/// Each slab holds this many pages; segments never straddle slabs.
const SLAB_PAGES: usize = 256;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Seg {
    /// Slab index.
    slab: u32,
    /// Element offset of this segment inside its slab.
    off: u32,
    /// Number of values currently stored in this segment.
    len: u32,
    /// Element capacity of this segment.
    cap: u32,
    /// Next (newer) segment, or `NONE`.
    next: u32,
    /// The list's newest segment — maintained in the list's first segment
    /// only, where appends look it up.
    last: u32,
}

/// Handle to one key's duplicate list inside a [`DupArena`].
///
/// A list always holds at least one value (it is created by
/// [`DupArena::new_list`] with its first value), matching the paper's layout
/// where the first value lives with the key and the list holds the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DupList {
    /// The list's first (oldest) segment.
    head: u32,
    len: u32,
}

impl DupList {
    /// Total number of values in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// A duplicate list is never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Segmented duplicate-value storage with page-aligned growth (Fig. 4).
///
/// Values must be `Copy + Default`; `Default` lets slabs be pre-initialised
/// with safe code (the cost is a one-time zeroing per slab, which the OS does
/// for large allocations anyway).
#[derive(Debug)]
pub struct DupArena<V> {
    slabs: Vec<Vec<V>>,
    segs: Vec<Seg>,
    /// Remaining free elements at the tail of the last slab.
    tail_free: usize,
    elems_per_page: usize,
    slab_elems: usize,
    min_seg_elems: usize,
}

impl<V: Copy + Default> Default for DupArena<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> DupArena<V> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        let vsize = core::mem::size_of::<V>().max(1);
        let elems_per_page = (PAGE_BYTES / vsize).max(1);
        Self {
            slabs: Vec::new(),
            segs: Vec::new(),
            tail_free: 0,
            elems_per_page,
            slab_elems: elems_per_page * SLAB_PAGES,
            min_seg_elems: (MIN_SEG_BYTES / vsize).max(1),
        }
    }

    /// Starts a new list holding `first` as its only value.
    pub fn new_list(&mut self, first: V) -> DupList {
        let seg = self.alloc_seg(self.min_seg_elems);
        self.write(seg, 0, first);
        self.segs[seg as usize].len = 1;
        DupList { head: seg, len: 1 }
    }

    /// Appends a value to an existing list, growing it with a doubled
    /// segment linked behind the newest one when that is full.
    pub fn push(&mut self, list: &mut DupList, value: V) {
        let last = self.segs[list.head as usize].last;
        let Seg { len, cap, .. } = self.segs[last as usize];
        if len < cap {
            self.write(last, len, value);
            self.segs[last as usize].len = len + 1;
        } else {
            // Grow: double up to the page limit, link the new segment last.
            let next_cap = (cap as usize * 2)
                .min(self.elems_per_page)
                .max(self.min_seg_elems);
            let seg = self.alloc_seg(next_cap);
            self.write(seg, 0, value);
            self.segs[seg as usize].len = 1;
            self.segs[last as usize].next = seg;
            self.segs[list.head as usize].last = seg;
        }
        list.len += 1;
    }

    /// The values of `list` in insertion order.
    #[inline]
    pub fn iter<'a>(&'a self, list: &DupList) -> Values<'a, V> {
        Values {
            arena: self,
            cur: self.segment(list.head),
            next: self.segs[list.head as usize].next,
            len: list.len(),
        }
    }

    /// A lone value as [`Values`] — how a tree hands out a key that stores
    /// its only value inline, so single values and lists read alike.
    #[inline]
    pub fn one<'a>(&'a self, value: &'a V) -> Values<'a, V> {
        Values {
            arena: self,
            cur: core::slice::from_ref(value),
            next: NONE,
            len: 1,
        }
    }

    /// Copies all values of `list`, in insertion order, into `out`.
    pub fn extend_into(&self, list: &DupList, out: &mut Vec<V>) {
        out.reserve(list.len());
        for v in self.iter(list) {
            out.push(*v);
        }
    }

    /// Calls `f` for each contiguous segment slice, oldest first. Each
    /// slice is sequential memory.
    pub fn for_each_segment<F: FnMut(&[V])>(&self, list: &DupList, mut f: F) {
        let mut vs = self.iter(list);
        while let Some(seg) = vs.next_slice() {
            f(seg);
        }
    }

    /// Number of segments a list occupies (observable growth behaviour).
    pub fn segment_count(&self, list: &DupList) -> usize {
        let mut n = 0;
        let mut cur = list.head;
        while cur != NONE {
            n += 1;
            cur = self.segs[cur as usize].next;
        }
        n
    }

    /// Capacity (in values) of each segment of a list, oldest first.
    pub fn segment_caps(&self, list: &DupList) -> Vec<usize> {
        let mut caps = Vec::new();
        let mut cur = list.head;
        while cur != NONE {
            caps.push(self.segs[cur as usize].cap as usize);
            cur = self.segs[cur as usize].next;
        }
        caps
    }

    /// Total heap bytes held by the arena's slabs.
    pub fn allocated_bytes(&self) -> usize {
        self.slabs
            .iter()
            .map(|s| s.capacity() * core::mem::size_of::<V>())
            .sum()
    }

    /// The stored values of segment `seg`.
    #[inline]
    fn segment(&self, seg: u32) -> &[V] {
        let s = &self.segs[seg as usize];
        &self.slabs[s.slab as usize][s.off as usize..(s.off + s.len) as usize]
    }

    #[inline]
    fn write(&mut self, seg: u32, idx: u32, value: V) {
        let s = self.segs[seg as usize];
        self.slabs[s.slab as usize][(s.off + idx) as usize] = value;
    }

    /// A fresh segment of `cap` values, linked to nothing; it is its own
    /// list's newest segment until another is linked behind it.
    fn alloc_seg(&mut self, cap: usize) -> u32 {
        debug_assert!(cap <= self.slab_elems);
        if self.tail_free < cap {
            // Fresh slab; any leftover tail in the previous slab is wasted,
            // mirroring page-aligned allocation slack.
            self.slabs.push(vec![V::default(); self.slab_elems]);
            self.tail_free = self.slab_elems;
        }
        let slab = (self.slabs.len() - 1) as u32;
        let off = (self.slab_elems - self.tail_free) as u32;
        self.tail_free -= cap;
        let id = self.segs.len() as u32;
        self.segs.push(Seg {
            slab,
            off,
            len: 0,
            cap: cap as u32,
            next: NONE,
            last: id,
        });
        id
    }
}

/// The values stored under one key, in insertion order — a lone value
/// ([`DupArena::one`]) or a duplicate list ([`DupArena::iter`]).
///
/// It walks the list's segment links oldest-first and allocates nothing.
/// Besides the value-at-a-time [`Iterator`], [`next_slice`](Self::next_slice)
/// hands out what is left of the current segment as one slice, so a reader
/// can look ahead inside contiguous memory — to prefetch what the values
/// point at, say — without staging them.
pub struct Values<'a, V> {
    arena: &'a DupArena<V>,
    /// The current segment's values not yet yielded.
    cur: &'a [V],
    /// The segment after the current one, or `NONE`.
    next: u32,
    /// Values not yet yielded.
    len: usize,
}

impl<'a, V: Copy + Default> Values<'a, V> {
    /// The not yet yielded values of the current segment, or of the next
    /// one when the current is used up; `None` at the end. Slices are never
    /// empty, and concatenated they are exactly what the iterator would
    /// yield.
    #[inline]
    pub fn next_slice(&mut self) -> Option<&'a [V]> {
        if !self.refill() {
            return None;
        }
        self.len -= self.cur.len();
        Some(core::mem::take(&mut self.cur))
    }

    /// Steps to the next segment once the current one is used up; `false`
    /// at the end. Segments are never empty.
    #[inline]
    fn refill(&mut self) -> bool {
        if self.cur.is_empty() {
            if self.next == NONE {
                return false;
            }
            self.cur = self.arena.segment(self.next);
            self.next = self.arena.segs[self.next as usize].next;
        }
        true
    }
}

impl<'a, V: Copy + Default> Iterator for Values<'a, V> {
    type Item = &'a V;

    #[inline]
    fn next(&mut self) -> Option<&'a V> {
        if !self.refill() {
            return None;
        }
        let (v, rest) = self.cur.split_first()?;
        self.cur = rest;
        self.len -= 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl<V: Copy + Default> ExactSizeIterator for Values<'_, V> {}

/// Handle to a list inside [`LinkedDupArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkedList {
    head: u32,
    tail: u32,
    len: u32,
}

impl LinkedList {
    /// Number of values in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// A list always holds at least one value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[derive(Debug, Clone, Copy)]
struct LinkNode<V> {
    value: V,
    next: u32,
}

/// One-node-per-value duplicate storage — the strawman of §2.4.
///
/// Nodes are allocated in global insertion order, so the nodes of any one
/// key's list end up scattered across memory when inserts to different keys
/// interleave (the common case while an operator builds its output index).
/// Scanning a list then chases pointers across pages, defeating the hardware
/// prefetcher. Kept only for the Ablation A2 benchmark.
#[derive(Debug)]
pub struct LinkedDupArena<V> {
    nodes: Vec<LinkNode<V>>,
}

impl<V: Copy> Default for LinkedDupArena<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> LinkedDupArena<V> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Starts a new list holding `first`.
    pub fn new_list(&mut self, first: V) -> LinkedList {
        let id = self.nodes.len() as u32;
        self.nodes.push(LinkNode {
            value: first,
            next: NONE,
        });
        LinkedList {
            head: id,
            tail: id,
            len: 1,
        }
    }

    /// Appends a value (O(1) via the tail pointer).
    pub fn push(&mut self, list: &mut LinkedList, value: V) {
        let id = self.nodes.len() as u32;
        self.nodes.push(LinkNode { value, next: NONE });
        self.nodes[list.tail as usize].next = id;
        list.tail = id;
        list.len += 1;
    }

    /// Iterates values in insertion order, chasing node pointers.
    pub fn iter<'a>(&'a self, list: &LinkedList) -> LinkedIter<'a, V> {
        LinkedIter {
            arena: self,
            cur: list.head,
        }
    }
}

/// Pointer-chasing iterator over a [`LinkedList`].
pub struct LinkedIter<'a, V> {
    arena: &'a LinkedDupArena<V>,
    cur: u32,
}

impl<'a, V: Copy> Iterator for LinkedIter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<&'a V> {
        if self.cur == NONE {
            return None;
        }
        let node = &self.arena.nodes[self.cur as usize];
        self.cur = node.next;
        Some(&node.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_list() {
        let mut a = DupArena::<u64>::new();
        let l = a.new_list(42);
        assert_eq!(l.len(), 1);
        assert_eq!(a.iter(&l).copied().collect::<Vec<_>>(), vec![42]);
        assert_eq!(a.segment_count(&l), 1);
    }

    #[test]
    fn insertion_order_preserved_across_segments() {
        let mut a = DupArena::<u64>::new();
        let mut l = a.new_list(0);
        for i in 1..10_000u64 {
            a.push(&mut l, i);
        }
        let got: Vec<u64> = a.iter(&l).copied().collect();
        let expect: Vec<u64> = (0..10_000).collect();
        assert_eq!(got, expect);
        assert_eq!(l.len(), 10_000);
    }

    #[test]
    fn segments_double_then_cap_at_page() {
        // u64: min seg = 64B/8 = 8 elems, page = 4096/8 = 512 elems.
        let mut a = DupArena::<u64>::new();
        let mut l = a.new_list(0);
        for i in 1..5000u64 {
            a.push(&mut l, i);
        }
        let caps = a.segment_caps(&l);
        assert_eq!(&caps[..8], &[8, 16, 32, 64, 128, 256, 512, 512]);
        assert!(caps.iter().all(|&c| c <= 512));
    }

    #[test]
    fn interleaved_lists_stay_separate() {
        let mut a = DupArena::<u32>::new();
        let mut l1 = a.new_list(1);
        let mut l2 = a.new_list(1000);
        for i in 0..500u32 {
            a.push(&mut l1, 2 + i);
            a.push(&mut l2, 1001 + i);
        }
        let v1: Vec<u32> = a.iter(&l1).copied().collect();
        let v2: Vec<u32> = a.iter(&l2).copied().collect();
        assert_eq!(v1, (1..=501).collect::<Vec<_>>());
        assert_eq!(v2, (1000..=1500).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_segment_concatenates_to_full_list() {
        let mut a = DupArena::<u16>::new();
        let mut l = a.new_list(0);
        for i in 1..3000u16 {
            a.push(&mut l, i);
        }
        let mut got = Vec::new();
        a.for_each_segment(&l, |seg| got.extend_from_slice(seg));
        assert_eq!(got, (0..3000).collect::<Vec<_>>());
    }

    #[test]
    fn segment_runs_are_contiguous_slices() {
        let mut a = DupArena::<u64>::new();
        let mut l = a.new_list(7);
        for _ in 0..600 {
            a.push(&mut l, 7);
        }
        let mut seg_lens = Vec::new();
        a.for_each_segment(&l, |seg| seg_lens.push(seg.len()));
        assert_eq!(seg_lens.iter().sum::<usize>(), 601);
    }

    #[test]
    fn linked_arena_matches_segmented() {
        let mut seg = DupArena::<u32>::new();
        let mut lnk = LinkedDupArena::<u32>::new();
        let mut sl = seg.new_list(9);
        let mut ll = lnk.new_list(9);
        for i in 0..777u32 {
            seg.push(&mut sl, i);
            lnk.push(&mut ll, i);
        }
        let a: Vec<u32> = seg.iter(&sl).copied().collect();
        let b: Vec<u32> = lnk.iter(&ll).copied().collect();
        assert_eq!(a, b);
        assert_eq!(ll.len(), 778);
    }

    #[test]
    fn large_value_type_has_at_least_one_elem_per_seg() {
        #[derive(Copy, Clone, Default, PartialEq, Debug)]
        struct Big([u64; 32]); // 256 B > 64 B min segment
        let mut a = DupArena::<Big>::new();
        let mut l = a.new_list(Big([1; 32]));
        a.push(&mut l, Big([2; 32]));
        a.push(&mut l, Big([3; 32]));
        let got: Vec<Big> = a.iter(&l).copied().collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[2], Big([3; 32]));
    }

    #[test]
    fn allocated_bytes_grows_with_content() {
        let mut a = DupArena::<u64>::new();
        assert_eq!(a.allocated_bytes(), 0);
        let _ = a.new_list(1);
        assert!(a.allocated_bytes() > 0);
    }
}
