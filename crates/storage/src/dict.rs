//! Order-preserving string dictionaries.
//!
//! Prefix-tree order must equal logical attribute order, so string columns
//! are encoded as positions in the *sorted* value domain. Dictionaries are
//! built once at load time (OLAP string domains are static in SSB and most
//! star schemas); consequently `code(a) < code(b) ⇔ a < b`, and string range
//! predicates become code range predicates.

use std::collections::HashMap;

/// A sorted string domain with bidirectional value ↔ code mapping.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<String>,
    codes: HashMap<String, u32>,
}

impl Dictionary {
    /// Builds a dictionary from an arbitrary collection of values
    /// (duplicates are fine; codes are assigned from the sorted, deduplicated
    /// domain).
    pub fn build<S: AsRef<str>, I: IntoIterator<Item = S>>(values: I) -> Self {
        let mut v: Vec<String> = values.into_iter().map(|s| s.as_ref().to_string()).collect();
        v.sort_unstable();
        v.dedup();
        Self::from_sorted_distinct(v)
    }

    /// The dictionary over `values`, which must be strictly ascending; code
    /// `i` is `values[i]`.
    pub(crate) fn from_sorted_distinct(values: Vec<String>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        let codes = values
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
        Self { values, codes }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Exact code of a value, if present.
    pub fn encode(&self, value: &str) -> Option<u32> {
        self.codes.get(value).copied()
    }

    /// Decodes a code (panics on out-of-range codes — they cannot be
    /// produced by this dictionary).
    pub fn decode(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Smallest code whose value is `>= bound` (for range-predicate lower
    /// bounds over values that may be absent from the domain). Returns
    /// `len()` if every value is smaller.
    pub fn lower_bound(&self, bound: &str) -> u32 {
        self.values.partition_point(|v| v.as_str() < bound) as u32
    }

    /// Largest code whose value is `<= bound`, or `None` if every value is
    /// greater (range-predicate upper bounds).
    pub fn upper_bound(&self, bound: &str) -> Option<u32> {
        let p = self.values.partition_point(|v| v.as_str() <= bound);
        p.checked_sub(1).map(|i| i as u32)
    }

    /// The sorted domain.
    pub fn values(&self) -> &[String] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_order_preserving() {
        let d = Dictionary::build(["EUROPE", "ASIA", "AMERICA", "AFRICA", "MIDDLE EAST"]);
        assert_eq!(d.len(), 5);
        let codes: Vec<u32> = d.values().iter().map(|v| d.encode(v).unwrap()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4]);
        for a in d.values() {
            for b in d.values() {
                assert_eq!(a < b, d.encode(a) < d.encode(b));
            }
        }
    }

    #[test]
    fn duplicates_collapse() {
        let d = Dictionary::build(["x", "y", "x", "x"]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.decode(d.encode("x").unwrap()), "x");
    }

    #[test]
    fn encode_missing_is_none() {
        let d = Dictionary::build(["a", "b"]);
        assert_eq!(d.encode("c"), None);
    }

    #[test]
    fn bounds_for_absent_values() {
        let d = Dictionary::build(["b", "d", "f"]);
        // lower_bound: first code with value >= bound.
        assert_eq!(d.lower_bound("a"), 0);
        assert_eq!(d.lower_bound("b"), 0);
        assert_eq!(d.lower_bound("c"), 1);
        assert_eq!(d.lower_bound("g"), 3); // past the end
                                           // upper_bound: last code with value <= bound.
        assert_eq!(d.upper_bound("a"), None);
        assert_eq!(d.upper_bound("b"), Some(0));
        assert_eq!(d.upper_bound("e"), Some(1));
        assert_eq!(d.upper_bound("z"), Some(2));
    }

    #[test]
    fn ssb_brand_range_example() {
        // Q2.2: p_brand1 between 'MFGR#2221' and 'MFGR#2228'.
        let brands: Vec<String> = (2221..=2240).map(|b| format!("MFGR#{b}")).collect();
        let d = Dictionary::build(brands.iter());
        let lo = d.lower_bound("MFGR#2221");
        let hi = d.upper_bound("MFGR#2228").unwrap();
        let in_range: Vec<&str> = (lo..=hi).map(|c| d.decode(c)).collect();
        assert_eq!(in_range.len(), 8);
        assert_eq!(in_range[0], "MFGR#2221");
        assert_eq!(in_range[7], "MFGR#2228");
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::build(Vec::<String>::new());
        assert!(d.is_empty());
        assert_eq!(d.lower_bound("x"), 0);
        assert_eq!(d.upper_bound("x"), None);
    }
}
