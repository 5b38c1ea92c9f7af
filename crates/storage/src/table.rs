//! Fixed-width row tables.
//!
//! Tuples are stored "as physical units" (§5) in row-major order: every
//! field is one order-preserving `u64` code (ints as-is, strings as
//! dictionary codes), so a row is a fixed-width `&[u64]` slice and the rid
//! is the row index. Per-column statistics (min/max code, 32-bit-ness)
//! drive the planner's KISS-vs-prefix-tree index choice.
//!
//! [`TableBuilder`] encodes each row on arrival and remaps string codes
//! once at the end, so a bulk load holds the codes and each column's
//! distinct strings, never a staged copy of every field.

use std::collections::HashMap;

use crate::dict::Dictionary;
use crate::types::{ColumnType, Schema, StorageError, Value};

/// Per-column statistics collected at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Smallest encoded value (u64::MAX when the table is empty).
    pub min: u64,
    /// Largest encoded value (0 when the table is empty).
    pub max: u64,
}

impl ColumnStats {
    /// `true` if every encoded value fits the KISS-Tree's 32-bit key domain.
    pub fn fits_u32(&self) -> bool {
        self.min > self.max // empty
            || self.max <= u32::MAX as u64
    }
}

/// An immutable, bulk-loaded row table. Mutation goes through
/// [`MvccTable`](crate::mvcc::MvccTable), which appends row versions here.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    dicts: Vec<Option<Dictionary>>,
    /// Row-major encoded data; row `r` occupies
    /// `data[r * width .. (r + 1) * width]`.
    data: Vec<u64>,
    stats: Vec<ColumnStats>,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (including dead versions when used under MVCC).
    pub fn row_count(&self) -> usize {
        if self.schema.width() == 0 {
            0
        } else {
            self.data.len() / self.schema.width()
        }
    }

    /// The encoded row slice for `rid`.
    #[inline]
    pub fn row(&self, rid: u32) -> &[u64] {
        let w = self.schema.width();
        &self.data[rid as usize * w..(rid as usize + 1) * w]
    }

    /// Encoded field accessor.
    #[inline]
    pub fn get(&self, rid: u32, col: usize) -> u64 {
        self.data[rid as usize * self.schema.width() + col]
    }

    /// Decoded field accessor.
    pub fn value(&self, rid: u32, col: usize) -> Value {
        let code = self.get(rid, col);
        match self.schema.column(col).ty {
            ColumnType::Int => Value::Int(code as i64),
            ColumnType::Str => Value::Str(
                self.dicts[col]
                    .as_ref()
                    .expect("string columns always have dictionaries")
                    .decode(code as u32)
                    .to_string(),
            ),
        }
    }

    /// The dictionary of a string column (`None` for int columns).
    pub fn dict(&self, col: usize) -> Option<&Dictionary> {
        self.dicts[col].as_ref()
    }

    /// Column statistics.
    pub fn stats(&self, col: usize) -> ColumnStats {
        self.stats[col]
    }

    /// Encodes a predicate constant for comparisons against this column.
    /// Exact match semantics: `Ok(None)` means the value cannot match any
    /// row (e.g. a string absent from the dictionary).
    pub fn encode_value(&self, col: usize, v: &Value) -> Result<Option<u64>, StorageError> {
        let def = self.schema.column(col);
        match (def.ty, v) {
            (ColumnType::Int, Value::Int(i)) => {
                if *i < 0 {
                    return Err(StorageError::NegativeInt {
                        column: def.name.clone(),
                        value: *i,
                    });
                }
                Ok(Some(*i as u64))
            }
            (ColumnType::Str, Value::Str(s)) => Ok(self.dicts[col]
                .as_ref()
                .and_then(|d| d.encode(s))
                .map(|c| c as u64)),
            (expected, got) => Err(StorageError::TypeMismatch {
                column: def.name.clone(),
                expected,
                got: got.column_type(),
            }),
        }
    }

    /// Encodes an *inclusive range bound*: returns the tightest encoded
    /// `[lo, hi]` covering values `[lo_v, hi_v]`, or `None` when the range
    /// cannot match (e.g. entirely outside the dictionary domain).
    pub fn encode_range(
        &self,
        col: usize,
        lo_v: &Value,
        hi_v: &Value,
    ) -> Result<Option<(u64, u64)>, StorageError> {
        let def = self.schema.column(col);
        match (def.ty, lo_v, hi_v) {
            (ColumnType::Int, Value::Int(lo), Value::Int(hi)) => {
                let lo = (*lo).max(0) as u64;
                if *hi < 0 {
                    return Ok(None);
                }
                let hi = *hi as u64;
                Ok((lo <= hi).then_some((lo, hi)))
            }
            (ColumnType::Str, Value::Str(lo), Value::Str(hi)) => {
                let d = self.dicts[col].as_ref().expect("str column has dictionary");
                let lo_c = d.lower_bound(lo);
                let Some(hi_c) = d.upper_bound(hi) else {
                    return Ok(None);
                };
                Ok((lo_c <= hi_c).then_some((lo_c as u64, hi_c as u64)))
            }
            _ => Err(StorageError::TypeMismatch {
                column: def.name.clone(),
                expected: def.ty,
                got: lo_v.column_type(),
            }),
        }
    }

    /// Appends an already-encoded row (MVCC path; dictionaries must already
    /// cover string codes). Returns the new rid.
    pub(crate) fn push_encoded(&mut self, row: &[u64]) -> u32 {
        debug_assert_eq!(row.len(), self.schema.width());
        let rid = self.row_count() as u32;
        self.data.extend_from_slice(row);
        for (c, &v) in row.iter().enumerate() {
            let s = &mut self.stats[c];
            s.min = s.min.min(v);
            s.max = s.max.max(v);
        }
        rid
    }

    /// Encodes a [`Value`] row using the existing dictionaries; fails if a
    /// string is outside the dictionary domain (extending domains would
    /// reassign codes and is not supported after load — see crate docs).
    pub fn encode_row(&self, values: &[Value]) -> Result<Vec<u64>, StorageError> {
        if values.len() != self.schema.width() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.width(),
                got: values.len(),
            });
        }
        let mut row = Vec::with_capacity(values.len());
        for (c, v) in values.iter().enumerate() {
            match self.encode_value(c, v)? {
                Some(code) => row.push(code),
                None => {
                    return Err(StorageError::ValueNotInDictionary {
                        column: self.schema.column(c).name.clone(),
                        value: v.to_string(),
                    })
                }
            }
        }
        Ok(row)
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.capacity() * 8
            + self
                .dicts
                .iter()
                .flatten()
                .map(|d| d.values().iter().map(|s| s.len() + 24).sum::<usize>())
                .sum::<usize>()
    }
}

/// Table construction that encodes each row on arrival and remaps once.
///
/// [`push_row`](Self::push_row) writes int fields straight into the
/// row-major codes, and gives each string field a provisional code: the
/// value's position in its column's first-seen order. Only the distinct
/// strings are kept beside the codes. [`finish`](Self::finish) sorts each
/// column's distinct strings into an order-preserving [`Dictionary`], then
/// makes one pass over the rows that rewrites provisional codes as sorted
/// codes and collects the [`ColumnStats`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    /// Row-major codes; string fields hold provisional codes until `finish`.
    data: Vec<u64>,
    /// Per column: each distinct string → its provisional code (`None` for
    /// int columns).
    interners: Vec<Option<HashMap<String, u32>>>,
}

impl TableBuilder {
    /// Starts building a table.
    pub fn new(name: &str, schema: Schema) -> Self {
        let interners = schema
            .columns()
            .iter()
            .map(|def| (def.ty == ColumnType::Str).then(HashMap::new))
            .collect();
        Self {
            name: name.to_string(),
            schema,
            data: Vec::new(),
            interners,
        }
    }

    /// Type-checks a row of raw values and encodes it. A rejected row
    /// leaves the builder as it was.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<(), StorageError> {
        if values.len() != self.schema.width() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.width(),
                got: values.len(),
            });
        }
        for (c, v) in values.iter().enumerate() {
            let def = self.schema.column(c);
            if v.column_type() != def.ty {
                return Err(StorageError::TypeMismatch {
                    column: def.name.clone(),
                    expected: def.ty,
                    got: v.column_type(),
                });
            }
            if let Value::Int(i) = v {
                if *i < 0 {
                    return Err(StorageError::NegativeInt {
                        column: def.name.clone(),
                        value: *i,
                    });
                }
            }
        }
        for (v, interner) in values.into_iter().zip(&mut self.interners) {
            let code = match v {
                Value::Int(i) => i as u64,
                Value::Str(s) => {
                    let interner = interner.as_mut().expect("str column has an interner");
                    let next = interner.len() as u32;
                    *interner.entry(s).or_insert(next) as u64
                }
            };
            self.data.push(code);
        }
        Ok(())
    }

    /// Number of rows staged so far.
    pub fn staged_rows(&self) -> usize {
        self.data
            .len()
            .checked_div(self.schema.width())
            .unwrap_or(0)
    }

    /// Builds the dictionaries, remaps every string field to its sorted
    /// code, and returns the table.
    pub fn finish(self) -> Table {
        let width = self.schema.width();
        let mut dicts: Vec<Option<Dictionary>> = Vec::with_capacity(width);
        // Per string column: provisional code → sorted code.
        let mut remaps: Vec<Option<Vec<u64>>> = Vec::with_capacity(width);
        for interner in self.interners {
            let Some(interner) = interner else {
                dicts.push(None);
                remaps.push(None);
                continue;
            };
            let mut distinct: Vec<(String, u32)> = interner.into_iter().collect();
            distinct.sort_unstable();
            let mut remap = vec![0; distinct.len()];
            for (code, (_, provisional)) in distinct.iter().enumerate() {
                remap[*provisional as usize] = code as u64;
            }
            let values = distinct.into_iter().map(|(s, _)| s).collect();
            dicts.push(Some(Dictionary::from_sorted_distinct(values)));
            remaps.push(Some(remap));
        }
        let mut data = self.data;
        data.shrink_to_fit();
        let mut stats = vec![
            ColumnStats {
                min: u64::MAX,
                max: 0
            };
            width
        ];
        if width > 0 {
            for row in data.chunks_exact_mut(width) {
                for ((code, remap), s) in row.iter_mut().zip(&remaps).zip(&mut stats) {
                    if let Some(remap) = remap {
                        *code = remap[*code as usize];
                    }
                    s.min = s.min.min(*code);
                    s.max = s.max.max(*code);
                }
            }
        }
        Table {
            name: self.name,
            schema: self.schema,
            dicts,
            data,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut b = TableBuilder::new(
            "t",
            Schema::of(&[("id", ColumnType::Int), ("region", ColumnType::Str)]),
        );
        for (id, r) in [(3, "EUROPE"), (1, "ASIA"), (2, "EUROPE"), (4, "AMERICA")] {
            b.push_row(vec![Value::Int(id), Value::str(r)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn roundtrip_values() {
        let t = sample();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.value(0, 0), Value::Int(3));
        assert_eq!(t.value(0, 1), Value::str("EUROPE"));
        assert_eq!(t.value(3, 1), Value::str("AMERICA"));
    }

    #[test]
    fn dictionary_codes_sorted() {
        let t = sample();
        let d = t.dict(1).unwrap();
        assert_eq!(d.values(), &["AMERICA", "ASIA", "EUROPE"]);
        // AMERICA < ASIA < EUROPE in code space.
        assert!(t.get(3, 1) < t.get(1, 1));
        assert!(t.get(1, 1) < t.get(0, 1));
    }

    #[test]
    fn stats_track_min_max() {
        let t = sample();
        let s = t.stats(0);
        assert_eq!((s.min, s.max), (1, 4));
        assert!(s.fits_u32());
    }

    #[test]
    fn encode_value_and_missing_string() {
        let t = sample();
        assert_eq!(t.encode_value(1, &Value::str("ASIA")).unwrap(), Some(1));
        assert_eq!(t.encode_value(1, &Value::str("MOON")).unwrap(), None);
        assert!(matches!(
            t.encode_value(0, &Value::str("x")),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.encode_value(0, &Value::Int(-1)),
            Err(StorageError::NegativeInt { .. })
        ));
    }

    #[test]
    fn encode_range_clamps_to_domain() {
        let t = sample();
        // String range partially outside the dictionary.
        let r = t
            .encode_range(1, &Value::str("AACHEN"), &Value::str("AZORES"))
            .unwrap();
        assert_eq!(r, Some((0, 1))); // AMERICA..=ASIA
        let none = t
            .encode_range(1, &Value::str("X"), &Value::str("Z"))
            .unwrap();
        assert_eq!(none, None);
        let ints = t.encode_range(0, &Value::Int(-5), &Value::Int(2)).unwrap();
        assert_eq!(ints, Some((0, 2)));
        assert_eq!(
            t.encode_range(0, &Value::Int(5), &Value::Int(2)).unwrap(),
            None
        );
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let mut b = TableBuilder::new("t", Schema::of(&[("a", ColumnType::Int)]));
        assert!(matches!(
            b.push_row(vec![Value::str("x")]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            b.push_row(vec![]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            b.push_row(vec![Value::Int(-3)]),
            Err(StorageError::NegativeInt { .. })
        ));
    }

    #[test]
    fn empty_table() {
        let t = TableBuilder::new("e", Schema::of(&[("a", ColumnType::Int)])).finish();
        assert_eq!(t.row_count(), 0);
        assert!(t.stats(0).fits_u32());
    }

    /// The two-phase builder `TableBuilder` replaced: stage every field as
    /// a `Value`, then build each dictionary from the column's full
    /// multiset and encode every row. The reference for the differential.
    struct StagingBuilder {
        schema: Schema,
        raw: Vec<Value>,
    }

    impl StagingBuilder {
        fn finish(self, name: &str) -> Table {
            let width = self.schema.width();
            let nrows = self.raw.len().checked_div(width).unwrap_or(0);
            let dicts: Vec<Option<Dictionary>> = (0..width)
                .map(|c| {
                    (self.schema.column(c).ty == ColumnType::Str).then(|| {
                        Dictionary::build((0..nrows).map(|r| self.raw[r * width + c].as_str()))
                    })
                })
                .collect();
            let mut data = Vec::with_capacity(self.raw.len());
            let mut stats = vec![
                ColumnStats {
                    min: u64::MAX,
                    max: 0
                };
                width
            ];
            for (i, v) in self.raw.iter().enumerate() {
                let c = i % width;
                let code = match v {
                    Value::Int(i) => *i as u64,
                    Value::Str(s) => dicts[c].as_ref().unwrap().encode(s).unwrap() as u64,
                };
                stats[c].min = stats[c].min.min(code);
                stats[c].max = stats[c].max.max(code);
                data.push(code);
            }
            Table {
                name: name.to_string(),
                schema: self.schema,
                dicts,
                data,
                stats,
            }
        }
    }

    fn assert_same_table(got: &Table, want: &Table) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.schema.columns(), want.schema.columns());
        assert_eq!(got.data, want.data, "codes");
        assert_eq!(got.data.capacity(), want.data.capacity(), "capacity");
        assert_eq!(got.stats, want.stats, "stats");
        assert_eq!(got.memory_bytes(), want.memory_bytes());
        for (g, w) in got.dicts.iter().zip(&want.dicts) {
            assert_eq!(g.is_some(), w.is_some());
            if let (Some(g), Some(w)) = (g, w) {
                assert_eq!(g.values(), w.values(), "dictionary");
                for v in w.values() {
                    assert_eq!(g.encode(v), w.encode(v), "code of {v}");
                }
            }
        }
    }

    /// Pushes `rows` into both builders and compares the finished tables;
    /// rows the new builder rejects must leave no trace in it.
    fn differential(schema: Schema, rows: Vec<Vec<Value>>) {
        let mut builder = TableBuilder::new("d", schema.clone());
        let mut staging = StagingBuilder {
            schema,
            raw: Vec::new(),
        };
        for row in rows {
            if builder.push_row(row.clone()).is_ok() {
                staging.raw.extend(row);
            }
            assert_eq!(
                builder.staged_rows(),
                staging
                    .raw
                    .len()
                    .checked_div(staging.schema.width())
                    .unwrap_or(0)
            );
        }
        assert_same_table(&builder.finish(), &staging.finish("d"));
    }

    fn mixed_schema() -> Schema {
        Schema::of(&[
            ("id", ColumnType::Int),
            ("word", ColumnType::Str),
            ("reversed", ColumnType::Str),
            ("single", ColumnType::Str),
            ("wide", ColumnType::Int),
        ])
    }

    #[test]
    fn builder_matches_staging_builder_on_seeded_rows() {
        let mut rng = qppt_mem::Xoshiro256StarStar::new(0x7461_626c);
        let words = ["delta", "alpha", "echo", "charlie", "bravo", "", "alpha2"];
        let rows: Vec<Vec<Value>> = (0..2_000u64)
            .map(|r| {
                vec![
                    Value::Int(rng.below(1_000) as i64),
                    Value::str(words[rng.below(words.len() as u64) as usize]),
                    // First-seen order is the reverse of sorted order.
                    Value::Str(format!("k{:05}", 99_999 - r)),
                    Value::str("only"),
                    Value::Int((rng.next_u64() >> 1) as i64),
                ]
            })
            .collect();
        differential(mixed_schema(), rows);
    }

    #[test]
    fn builder_matches_staging_builder_at_the_edges() {
        // An empty table: every column's stats stay empty.
        differential(mixed_schema(), Vec::new());
        // A width-0 schema stages nothing, however many rows arrive.
        differential(Schema::of(&[]), vec![Vec::new(); 3]);
        // One row; a single-value string column.
        differential(
            mixed_schema(),
            vec![vec![
                Value::Int(0),
                Value::str("x"),
                Value::str("y"),
                Value::str("z"),
                Value::Int(i64::MAX),
            ]],
        );
    }

    #[test]
    fn rejected_rows_leave_no_trace() {
        let mut rng = qppt_mem::Xoshiro256StarStar::new(0x6261_6421);
        let good = |rng: &mut qppt_mem::Xoshiro256StarStar| {
            vec![
                Value::Int(rng.below(50) as i64),
                Value::Str(format!("w{}", rng.below(30))),
                Value::Str(format!("r{}", rng.below(30))),
                Value::str("only"),
                Value::Int(rng.below(1 << 40) as i64),
            ]
        };
        let mut rows = Vec::new();
        for _ in 0..500 {
            rows.push(good(&mut rng));
            // A bad row whose valid-looking strings would otherwise take
            // fresh provisional codes ahead of the check that rejects it.
            let mut bad = good(&mut rng);
            bad[1] = Value::Str(format!("unseen{}", rng.below(1_000)));
            match rng.below(3) {
                0 => bad.truncate(4),
                1 => bad[3] = Value::Int(1),
                _ => bad[4] = Value::Int(-1 - rng.below(10) as i64),
            }
            rows.push(bad);
        }
        differential(mixed_schema(), rows);
    }
}
