//! Fixed-width payload rows in 32-bit lanes, widened to 64 bits on demand.
//!
//! Every field of a table row is a `u64` code, but the codes of real data —
//! every SSB column, every rid — fit 32 bits. A [`PayloadBuf`] therefore
//! starts out storing each field in a `u32` **lane** and keeps doing so
//! while every pushed value fits. The first value that does not fit widens
//! the whole buffer in place to `u64` lanes: the stored rows are copied
//! once, row ids stay what they were, and nothing above the buffer — the
//! index that maps keys to row ids, the plan, an option — notices. A buffer
//! never narrows again.
//!
//! Readers see the width in one of two ways:
//! - [`PayloadBuf::lanes`] hands out the rows typed by their current width
//!   ([`Lanes`] → [`Rows<L>`]). A hot loop matches it once and runs an
//!   instantiation per width, so no field read branches on the width.
//! - [`PayloadBuf::row`] hands out one row as a [`Row`], whose
//!   [`get`](Row::get) widens each field to `u64` — for cold paths and
//!   tests.
//!
//! Rows are stored back to back, so a row is `width` lanes at
//! `id × width`. [`Rows::for_each_row_of`] hands out each id a tree holds
//! for one key together with its row, hinting each row into cache a few
//! ids before it is read.

use qppt_mem::prefetch::prefetch_read;
use qppt_mem::Values;

/// How far ahead, in row ids, [`Rows::for_each_row_of`] prefetches: far
/// enough to cover a DRAM miss behind the work on one row, near enough
/// that the line is still in L1 when its row comes up.
const PREFETCH_DISTANCE: usize = 8;

/// A lane width of a [`PayloadBuf`]: `u32` or `u64`. Every lane widens to
/// the `u64` code it stores.
pub trait Lane: Copy + Default + Into<u64> + Send + Sync {
    /// `code` in one lane; the caller has checked that it fits.
    fn from_code(code: u64) -> Self;

    /// [`PayloadBuf::from_lanes`] at this width.
    fn payload(width: usize, rows: usize, lanes: Vec<Self>) -> PayloadBuf;
}

impl Lane for u32 {
    #[inline]
    fn from_code(code: u64) -> Self {
        debug_assert!(code <= u32::MAX as u64, "{code} in a 32-bit lane");
        code as u32
    }

    fn payload(width: usize, rows: usize, lanes: Vec<Self>) -> PayloadBuf {
        PayloadBuf::of(width, rows, Data::U32(lanes))
    }
}

impl Lane for u64 {
    #[inline]
    fn from_code(code: u64) -> Self {
        code
    }

    fn payload(width: usize, rows: usize, lanes: Vec<Self>) -> PayloadBuf {
        PayloadBuf::of(width, rows, Data::U64(lanes))
    }
}

/// The rows of a [`PayloadBuf`] at one lane width.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a, L> {
    data: &'a [L],
    width: usize,
}

impl<'a, L: Lane> Rows<'a, L> {
    /// The lanes of row `id`.
    #[inline]
    pub fn row(&self, id: u32) -> &'a [L] {
        let at = id as usize * self.width;
        &self.data[at..at + self.width]
    }

    /// Hints the first cache line of row `id` into cache. Never faults,
    /// whatever the id.
    #[inline(always)]
    fn prefetch(&self, id: u32) {
        prefetch_read(self.data.as_ptr().wrapping_add(id as usize * self.width));
    }

    /// Calls `f` with every id in `ids` and its row, in order. The ids are
    /// walked segment by segment, and while one row is handed out the row
    /// 8 ids further on in the same segment is prefetched.
    ///
    /// Rows that a clustered build laid out in key order are sequential
    /// memory, which the hardware prefetcher streams anyway. Rows appended
    /// after the build sit at the buffer's tail, interleaved with every
    /// other key's appends, and without the hint each one is a DRAM miss.
    /// A reader that keeps the id to read the row again soon — a join
    /// buffer holding row ids, not copies — finds it still in cache.
    #[inline]
    pub fn for_each_row_of(&self, mut ids: Values<'_, u32>, mut f: impl FnMut(u32, &'a [L])) {
        while let Some(seg) = ids.next_slice() {
            for &id in seg.iter().take(PREFETCH_DISTANCE) {
                self.prefetch(id);
            }
            for (i, &id) in seg.iter().enumerate() {
                if let Some(&ahead) = seg.get(i + PREFETCH_DISTANCE) {
                    self.prefetch(ahead);
                }
                f(id, self.row(id));
            }
        }
    }
}

/// The rows of a [`PayloadBuf`], typed by its current lane width.
#[derive(Debug, Clone, Copy)]
pub enum Lanes<'a> {
    /// Every stored value fits 32 bits.
    U32(Rows<'a, u32>),
    /// Some stored value needed 64 bits.
    U64(Rows<'a, u64>),
}

/// One payload row, whatever its lane width.
#[derive(Debug, Clone, Copy)]
pub enum Row<'a> {
    /// A row of a buffer in 32-bit lanes.
    U32(&'a [u32]),
    /// A row of a buffer in 64-bit lanes.
    U64(&'a [u64]),
}

impl Row<'_> {
    /// Field `i`, widened to its `u64` code.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            Row::U32(r) => r[i].into(),
            Row::U64(r) => r[i],
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        match self {
            Row::U32(r) => r.len(),
            Row::U64(r) => r.len(),
        }
    }

    /// `true` for a row of a zero-width buffer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fields as `u64` codes.
    pub fn to_vec(&self) -> Vec<u64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

#[derive(Debug, Clone)]
enum Data {
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// Fixed-width payload storage for indexed tables, in 32-bit lanes until a
/// value needs 64 (see the module docs).
#[derive(Debug, Clone)]
pub struct PayloadBuf {
    width: usize,
    data: Data,
    rows: usize,
}

impl PayloadBuf {
    /// Creates a buffer of `width` fields per row (0 is allowed — pure key
    /// indexes store no payload).
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// A buffer with room for exactly `rows` rows of 32-bit lanes: a
    /// builder that knows its row count holds no slack.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        Self {
            width,
            data: Data::U32(Vec::with_capacity(width * rows)),
            rows: 0,
        }
    }

    /// `rows` rows of `width` fields, stored back to back in `lanes`: a
    /// builder that knows every value's width fills the buffer whole at its
    /// final lane width, and the buffer holds exactly those rows.
    pub fn from_lanes<L: Lane>(width: usize, rows: usize, lanes: Vec<L>) -> Self {
        L::payload(width, rows, lanes)
    }

    fn of(width: usize, rows: usize, data: Data) -> Self {
        let buf = Self { width, data, rows };
        assert_eq!(buf.lanes_len(), width * rows, "lanes of {rows} rows");
        buf
    }

    /// Fields per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bytes per stored field: 4 until a value needed 64 bits, 8 after.
    pub fn lane_bytes(&self) -> usize {
        match self.data {
            Data::U32(_) => 4,
            Data::U64(_) => 8,
        }
    }

    /// Appends a row of `width` fields; returns its id. A value wider than
    /// 32 bits widens the buffer first (see the module docs).
    #[inline]
    pub fn push(&mut self, row: impl IntoIterator<Item = u64>) -> u32 {
        let id = self.rows as u32;
        let reserved = self.capacity();
        for v in row {
            if let Data::U32(d) = &mut self.data {
                if let Ok(narrow) = u32::try_from(v) {
                    d.push(narrow);
                    continue;
                }
                self.widen(reserved);
            }
            match &mut self.data {
                Data::U64(d) => d.push(v),
                Data::U32(_) => unreachable!("widened above"),
            }
        }
        self.rows += 1;
        debug_assert_eq!(self.lanes_len(), self.rows * self.width);
        id
    }

    /// Moves the rows to 64-bit lanes, mid-row. The capacity, in fields,
    /// is what was `reserved` before the row began — grown to end the row —
    /// so a buffer reserved exactly stays exact across the move.
    #[cold]
    fn widen(&mut self, reserved: usize) {
        if let Data::U32(narrow) = &self.data {
            let fields = reserved.max((self.rows + 1) * self.width);
            let mut wide = Vec::with_capacity(fields);
            wide.extend(narrow.iter().map(|&v| u64::from(v)));
            self.data = Data::U64(wide);
        }
    }

    /// Fields stored.
    fn lanes_len(&self) -> usize {
        match &self.data {
            Data::U32(d) => d.len(),
            Data::U64(d) => d.len(),
        }
    }

    /// Fields allocated.
    fn capacity(&self) -> usize {
        match &self.data {
            Data::U32(d) => d.capacity(),
            Data::U64(d) => d.capacity(),
        }
    }

    /// The rows, typed by the current lane width.
    #[inline]
    pub fn lanes(&self) -> Lanes<'_> {
        let width = self.width;
        match &self.data {
            Data::U32(data) => Lanes::U32(Rows { data, width }),
            Data::U64(data) => Lanes::U64(Rows { data, width }),
        }
    }

    /// Row `id`.
    #[inline]
    pub fn row(&self, id: u32) -> Row<'_> {
        match self.lanes() {
            Lanes::U32(rows) => Row::U32(rows.row(id)),
            Lanes::U64(rows) => Row::U64(rows.row(id)),
        }
    }

    /// Heap footprint in bytes: the allocated lanes.
    pub fn memory_bytes(&self) -> usize {
        self.capacity() * self.lane_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(p: &PayloadBuf) -> Vec<Vec<u64>> {
        (0..p.len() as u32).map(|id| p.row(id).to_vec()).collect()
    }

    #[test]
    fn narrow_until_a_value_needs_64_bits() {
        let mut p = PayloadBuf::with_capacity(2, 3);
        p.push([1, u32::MAX as u64]);
        p.push([2, 3]);
        assert_eq!((p.lane_bytes(), p.memory_bytes()), (4, 3 * 2 * 4));
        // The wide value is the row's second field: the first one was
        // pushed narrow and moves with the rest.
        p.push([4, 1 << 40]);
        assert_eq!((p.lane_bytes(), p.memory_bytes()), (8, 3 * 2 * 8));
        assert_eq!(
            rows(&p),
            vec![vec![1, u32::MAX as u64], vec![2, 3], vec![4, 1 << 40]]
        );
        assert!(matches!(p.lanes(), Lanes::U64(_)));
    }

    #[test]
    fn rows_of_ids_arrive_in_order_at_both_widths() {
        use qppt_mem::DupArena;
        for top in [7u64, 1 << 33] {
            let mut p = PayloadBuf::new(1);
            for v in 0..100u64 {
                p.push([v * top]);
            }
            let mut arena = DupArena::new();
            let mut list = arena.new_list(99u32);
            for id in (0..99).rev() {
                arena.push(&mut list, id);
            }
            let mut got = Vec::new();
            match p.lanes() {
                Lanes::U32(r) => {
                    r.for_each_row_of(arena.iter(&list), |id, row| got.push((id, row[0].into())))
                }
                Lanes::U64(r) => {
                    r.for_each_row_of(arena.iter(&list), |id, row| got.push((id, row[0])))
                }
            }
            let expect: Vec<(u32, u64)> = (0..100u32).rev().map(|v| (v, v as u64 * top)).collect();
            assert_eq!(got, expect);
        }
    }
}
