//! Declarative star-query descriptions and the shared result format.
//!
//! A [`QuerySpec`] captures exactly the query class of the SSB (and of the
//! paper's evaluation): a fact table joined to dimension tables on foreign
//! keys, per-table conjunctive predicates, group-by over dimension columns,
//! sum aggregates over fact expressions, and an order-by. All three engines
//! (QPPT, column-at-a-time, vector-at-a-time) and the reference oracle plan
//! from this single description, so result comparisons are apples-to-apples.

use crate::types::Value;

/// A `table.column` reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    pub table: String,
    pub column: String,
}

impl ColRef {
    /// Shorthand constructor.
    pub fn new(table: &str, column: &str) -> Self {
        Self {
            table: table.to_string(),
            column: column.to_string(),
        }
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// A single-column predicate. Conjunctions are lists of predicates;
/// disjunctions over one column are [`Predicate::In`] (the only disjunction
/// form SSB needs — e.g. Q4.1's `p_mfgr = 'MFGR#1' or p_mfgr = 'MFGR#2'`).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column = value`
    Eq { column: String, value: Value },
    /// `column IN (values)`
    In { column: String, values: Vec<Value> },
    /// `column BETWEEN lo AND hi` (inclusive)
    Between {
        column: String,
        lo: Value,
        hi: Value,
    },
    /// `column < value`
    Lt { column: String, value: Value },
}

impl Predicate {
    /// Shorthand: equality.
    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        Predicate::Eq {
            column: column.to_string(),
            value: value.into(),
        }
    }

    /// Shorthand: membership.
    pub fn is_in(column: &str, values: Vec<Value>) -> Self {
        Predicate::In {
            column: column.to_string(),
            values,
        }
    }

    /// Shorthand: inclusive range.
    pub fn between(column: &str, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Predicate::Between {
            column: column.to_string(),
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Shorthand: strictly less-than.
    pub fn lt(column: &str, value: impl Into<Value>) -> Self {
        Predicate::Lt {
            column: column.to_string(),
            value: value.into(),
        }
    }

    /// The column this predicate constrains.
    pub fn column(&self) -> &str {
        match self {
            Predicate::Eq { column, .. }
            | Predicate::In { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::Lt { column, .. } => column,
        }
    }
}

/// A dimension table's role in a star query.
#[derive(Debug, Clone, PartialEq)]
pub struct DimSpec {
    /// Dimension table name.
    pub table: String,
    /// Join key column on the dimension side (e.g. `d_datekey`).
    pub join_col: String,
    /// Foreign-key column on the fact side (e.g. `lo_orderdate`).
    pub fact_col: String,
    /// Conjunctive predicates on dimension columns.
    pub predicates: Vec<Predicate>,
    /// Dimension columns referenced downstream (group-by columns).
    pub carried: Vec<String>,
}

/// Arithmetic over fact columns, as the SSB aggregates need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A fact column.
    Col(String),
    /// `a * b` (Q1.x: `lo_extendedprice * lo_discount`).
    Mul(String, String),
    /// `a - b` (Q4.x: `lo_revenue - lo_supplycost`).
    Sub(String, String),
}

impl Expr {
    /// Fact columns this expression reads.
    pub fn columns(&self) -> Vec<&str> {
        match self {
            Expr::Col(a) => vec![a],
            Expr::Mul(a, b) | Expr::Sub(a, b) => vec![a, b],
        }
    }

    /// Evaluates over encoded fact values (non-negative codes are the raw
    /// integers for `Int` columns).
    #[inline]
    pub fn eval(&self, get: impl Fn(&str) -> u64) -> i64 {
        match self {
            Expr::Col(a) => get(a) as i64,
            Expr::Mul(a, b) => get(a) as i64 * get(b) as i64,
            Expr::Sub(a, b) => get(a) as i64 - get(b) as i64,
        }
    }
}

/// Aggregate operator (SSB only needs SUM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    Sum,
}

/// An aggregate over a fact expression.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub op: AggOp,
    pub expr: Expr,
    /// Output column label (e.g. `revenue`, `profit`).
    pub label: String,
}

impl AggExpr {
    /// `SUM(expr) AS label`.
    pub fn sum(expr: Expr, label: &str) -> Self {
        Self {
            op: AggOp::Sum,
            expr,
            label: label.to_string(),
        }
    }
}

/// One order-by term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderTerm {
    /// Position in `group_by`.
    Group(usize),
    /// Position in `aggregates`.
    Agg(usize),
}

/// Order-by key with direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderKey {
    pub term: OrderTerm,
    pub desc: bool,
}

impl OrderKey {
    /// Ascending group column.
    pub fn group(i: usize) -> Self {
        Self {
            term: OrderTerm::Group(i),
            desc: false,
        }
    }

    /// Descending aggregate.
    pub fn agg_desc(i: usize) -> Self {
        Self {
            term: OrderTerm::Agg(i),
            desc: true,
        }
    }
}

/// A star query (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Identifier, e.g. `"Q2.3"`.
    pub id: String,
    /// Fact table name.
    pub fact: String,
    /// Dimension joins. Order hints the join order (most selective first,
    /// as the paper's example plans do).
    pub dims: Vec<DimSpec>,
    /// Residual predicates on fact columns (Q1.x quantity/discount).
    pub fact_predicates: Vec<Predicate>,
    /// Group-by columns (dimension columns; empty = scalar aggregate).
    pub group_by: Vec<ColRef>,
    /// Aggregates.
    pub aggregates: Vec<AggExpr>,
    /// Order-by over group columns / aggregates.
    pub order_by: Vec<OrderKey>,
}

impl QuerySpec {
    /// The dimension spec joined through the given fact column.
    pub fn dim_by_fact_col(&self, fact_col: &str) -> Option<&DimSpec> {
        self.dims.iter().find(|d| d.fact_col == fact_col)
    }

    /// Fact columns read by any aggregate expression.
    pub fn agg_input_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self
            .aggregates
            .iter()
            .flat_map(|a| a.expr.columns().into_iter().map(str::to_string))
            .collect();
        cols.sort();
        cols.dedup();
        cols
    }
}

/// A predicate compiled against a concrete table: constants are encoded to
/// the table's order-preserving code space, so evaluation is pure integer
/// comparison. Every engine (QPPT index scans and residual filters, the
/// columnar engines, the reference oracle) evaluates predicates through this
/// form, which keeps their selection semantics identical by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledPred {
    /// `lo <= code(col) <= hi`.
    Range { col: usize, lo: u64, hi: u64 },
    /// `code(col) ∈ codes` (sorted).
    InSet { col: usize, codes: Vec<u64> },
    /// Statically unsatisfiable (e.g. a string outside the dictionary).
    Never,
}

impl CompiledPred {
    /// Evaluates against encoded field accessors.
    #[inline]
    pub fn matches(&self, get: impl Fn(usize) -> u64) -> bool {
        match self {
            CompiledPred::Range { col, lo, hi } => {
                let v = get(*col);
                *lo <= v && v <= *hi
            }
            CompiledPred::InSet { col, codes } => codes.binary_search(&get(*col)).is_ok(),
            CompiledPred::Never => false,
        }
    }

    /// [`matches`](Self::matches) for `v`, the value of the predicate's
    /// column, in the form a branch-free scan pass evaluates: a `Range` is
    /// one unsigned compare, `v − lo ≤ hi − lo` with the subtraction
    /// wrapping, so a `v` below `lo` lands above `hi − lo`. That needs
    /// `lo ≤ hi`, which [`compile_predicate`] guarantees by compiling an
    /// empty range to [`CompiledPred::Never`].
    #[inline]
    pub fn admits(&self, v: u64) -> bool {
        match self {
            CompiledPred::Range { lo, hi, .. } => {
                debug_assert!(lo <= hi, "an empty range compiles to Never");
                v.wrapping_sub(*lo) <= hi - lo
            }
            _ => self.matches(|_| v),
        }
    }

    /// The column this predicate reads (`None` for [`CompiledPred::Never`]).
    pub fn column(&self) -> Option<usize> {
        match self {
            CompiledPred::Range { col, .. } | CompiledPred::InSet { col, .. } => Some(*col),
            CompiledPred::Never => None,
        }
    }
}

/// Compiles a [`Predicate`] against a table (see [`CompiledPred`]).
pub fn compile_predicate(
    table: &crate::table::Table,
    pred: &Predicate,
) -> Result<CompiledPred, crate::types::StorageError> {
    let schema = table.schema();
    match pred {
        Predicate::Eq { column, value } => {
            let col = schema.col(column)?;
            Ok(match table.encode_value(col, value)? {
                Some(code) => CompiledPred::Range {
                    col,
                    lo: code,
                    hi: code,
                },
                None => CompiledPred::Never,
            })
        }
        Predicate::In { column, values } => {
            let col = schema.col(column)?;
            let mut codes = Vec::with_capacity(values.len());
            for v in values {
                if let Some(code) = table.encode_value(col, v)? {
                    codes.push(code);
                }
            }
            codes.sort_unstable();
            codes.dedup();
            Ok(if codes.is_empty() {
                CompiledPred::Never
            } else {
                CompiledPred::InSet { col, codes }
            })
        }
        Predicate::Between { column, lo, hi } => {
            let col = schema.col(column)?;
            Ok(match table.encode_range(col, lo, hi)? {
                Some((lo, hi)) => CompiledPred::Range { col, lo, hi },
                None => CompiledPred::Never,
            })
        }
        Predicate::Lt { column, value } => {
            let col = schema.col(column)?;
            let ty = schema.column(col).ty;
            match (ty, value) {
                (crate::types::ColumnType::Int, Value::Int(v)) => Ok(if *v <= 0 {
                    CompiledPred::Never
                } else {
                    CompiledPred::Range {
                        col,
                        lo: 0,
                        hi: (*v - 1) as u64,
                    }
                }),
                (crate::types::ColumnType::Str, Value::Str(s)) => {
                    let d = table.dict(col).expect("str column has dictionary");
                    let ub = d.lower_bound(s); // first code >= s
                    Ok(if ub == 0 {
                        CompiledPred::Never
                    } else {
                        CompiledPred::Range {
                            col,
                            lo: 0,
                            hi: (ub - 1) as u64,
                        }
                    })
                }
                (expected, got) => Err(crate::types::StorageError::TypeMismatch {
                    column: column.clone(),
                    expected,
                    got: got.column_type(),
                }),
            }
        }
    }
}

/// One result row: decoded group-by values plus aggregate values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRow {
    pub key_values: Vec<Value>,
    pub agg_values: Vec<i64>,
}

/// A query result in the shared cross-engine format.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Labels of the group-by columns.
    pub group_cols: Vec<String>,
    /// Labels of the aggregate columns.
    pub agg_cols: Vec<String>,
    pub rows: Vec<ResultRow>,
}

impl QueryResult {
    /// Rough resident bytes of the decoded rows (labels, group values,
    /// accumulators) — the cache's result-tier byte accounting.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = size_of::<Self>();
        for s in self.group_cols.iter().chain(&self.agg_cols) {
            b += size_of::<String>() + s.len();
        }
        for row in &self.rows {
            b += size_of::<ResultRow>() + row.agg_values.len() * size_of::<i64>();
            for v in &row.key_values {
                b += size_of::<Value>()
                    + match v {
                        Value::Str(s) => s.len(),
                        Value::Int(_) => 0,
                    };
            }
        }
        b
    }

    /// Applies the query's order-by (stable sort; ties keep group-key
    /// order, making the result deterministic across engines).
    pub fn apply_order(&mut self, order_by: &[OrderKey]) {
        use std::cmp::Ordering;
        self.rows.sort_by(|a, b| {
            for key in order_by {
                let ord = match key.term {
                    OrderTerm::Group(i) => a.key_values[i].cmp(&b.key_values[i]),
                    OrderTerm::Agg(i) => a.agg_values[i].cmp(&b.agg_values[i]),
                };
                let ord = if key.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            // Tie-break on the full group key for determinism.
            a.key_values.cmp(&b.key_values)
        });
    }

    /// Canonical form for cross-engine comparisons: rows sorted by group key.
    pub fn canonicalized(mut self) -> Self {
        self.rows.sort_by(|a, b| a.key_values.cmp(&b.key_values));
        self
    }

    /// Renders the result as an aligned text table (examples/demos).
    pub fn to_pretty_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let headers: Vec<String> = self
            .group_cols
            .iter()
            .cloned()
            .chain(self.agg_cols.iter().cloned())
            .collect();
        let mut table: Vec<Vec<String>> = vec![headers];
        for row in &self.rows {
            table.push(
                row.key_values
                    .iter()
                    .map(|v| v.to_string())
                    .chain(row.agg_values.iter().map(|v| v.to_string()))
                    .collect(),
            );
        }
        let ncols = table[0].len().max(1);
        let mut widths = vec![0usize; ncols];
        for row in &table {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (ri, row) in table.iter().enumerate() {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(s, "{:width$}  ", cell, width = widths[i]);
            }
            s.push('\n');
            if ri == 0 {
                for w in &widths {
                    let _ = write!(s, "{}  ", "-".repeat(*w));
                }
                s.push('\n');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_agrees_with_matches_at_every_range_edge() {
        let edges = [(5, 5), (0, 7), (9, u64::MAX), (0, u64::MAX), (0, 0)];
        for (lo, hi) in edges {
            let p = CompiledPred::Range { col: 0, lo, hi };
            // `lo − 1` wraps to `u64::MAX` at `lo = 0`, and `hi + 1` to 0
            // at `hi = u64::MAX`: both must still read as outside.
            for v in [lo.wrapping_sub(1), lo, hi, hi.wrapping_add(1), 0, u64::MAX] {
                assert_eq!(p.admits(v), p.matches(|_| v), "{v} in [{lo}, {hi}]");
            }
        }
        let set = CompiledPred::InSet {
            col: 0,
            codes: vec![2, 4],
        };
        for v in 0..6 {
            assert_eq!(set.admits(v), set.matches(|_| v));
        }
        assert!(!CompiledPred::Never.admits(0));
    }

    #[test]
    fn expr_eval() {
        let get = |c: &str| match c {
            "a" => 6u64,
            "b" => 7u64,
            _ => 0,
        };
        assert_eq!(Expr::Col("a".into()).eval(get), 6);
        assert_eq!(Expr::Mul("a".into(), "b".into()).eval(get), 42);
        assert_eq!(Expr::Sub("a".into(), "b".into()).eval(get), -1);
        assert_eq!(Expr::Mul("a".into(), "b".into()).columns(), vec!["a", "b"]);
    }

    #[test]
    fn order_by_group_and_agg() {
        let mut r = QueryResult {
            group_cols: vec!["year".into()],
            agg_cols: vec!["revenue".into()],
            rows: vec![
                ResultRow {
                    key_values: vec![Value::Int(1993)],
                    agg_values: vec![50],
                },
                ResultRow {
                    key_values: vec![Value::Int(1992)],
                    agg_values: vec![70],
                },
                ResultRow {
                    key_values: vec![Value::Int(1994)],
                    agg_values: vec![70],
                },
            ],
        };
        // Order by revenue desc, tie-broken by group key.
        r.apply_order(&[OrderKey::agg_desc(0)]);
        let years: Vec<i64> = r.rows.iter().map(|r| r.key_values[0].as_int()).collect();
        assert_eq!(years, vec![1992, 1994, 1993]);
        // Order by year asc.
        r.apply_order(&[OrderKey::group(0)]);
        let years: Vec<i64> = r.rows.iter().map(|r| r.key_values[0].as_int()).collect();
        assert_eq!(years, vec![1992, 1993, 1994]);
    }

    #[test]
    fn canonicalized_sorts_by_key() {
        let r = QueryResult {
            group_cols: vec!["g".into()],
            agg_cols: vec![],
            rows: vec![
                ResultRow {
                    key_values: vec![Value::str("b")],
                    agg_values: vec![],
                },
                ResultRow {
                    key_values: vec![Value::str("a")],
                    agg_values: vec![],
                },
            ],
        }
        .canonicalized();
        assert_eq!(r.rows[0].key_values[0], Value::str("a"));
    }

    #[test]
    fn pretty_print_contains_headers_and_rows() {
        let r = QueryResult {
            group_cols: vec!["year".into()],
            agg_cols: vec!["revenue".into()],
            rows: vec![ResultRow {
                key_values: vec![Value::Int(1997)],
                agg_values: vec![12345],
            }],
        };
        let s = r.to_pretty_string();
        assert!(s.contains("year"));
        assert!(s.contains("revenue"));
        assert!(s.contains("1997"));
        assert!(s.contains("12345"));
    }

    #[test]
    fn compile_predicates_against_table() {
        use crate::table::TableBuilder;
        use crate::types::{ColumnType, Schema};
        let mut b = TableBuilder::new(
            "t",
            Schema::of(&[("n", ColumnType::Int), ("s", ColumnType::Str)]),
        );
        for (n, s) in [(5, "b"), (10, "d"), (15, "f")] {
            b.push_row(vec![Value::Int(n), Value::str(s)]).unwrap();
        }
        let t = b.finish();

        let eq = compile_predicate(&t, &Predicate::eq("n", 10i64)).unwrap();
        assert_eq!(
            eq,
            CompiledPred::Range {
                col: 0,
                lo: 10,
                hi: 10
            }
        );
        assert!(eq.matches(|_| 10));
        assert!(!eq.matches(|_| 11));

        let eq_missing_str = compile_predicate(&t, &Predicate::eq("s", "zzz")).unwrap();
        assert_eq!(eq_missing_str, CompiledPred::Never);

        let lt = compile_predicate(&t, &Predicate::lt("n", 15i64)).unwrap();
        assert_eq!(
            lt,
            CompiledPred::Range {
                col: 0,
                lo: 0,
                hi: 14
            }
        );
        let lt0 = compile_predicate(&t, &Predicate::lt("n", 0i64)).unwrap();
        assert_eq!(lt0, CompiledPred::Never);

        // A string bound on an int column is a typed error, not a panic.
        assert!(matches!(
            compile_predicate(&t, &Predicate::lt("n", "x")),
            Err(crate::types::StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            compile_predicate(&t, &Predicate::lt("s", 3i64)),
            Err(crate::types::StorageError::TypeMismatch { .. })
        ));

        let lt_str = compile_predicate(&t, &Predicate::lt("s", "d")).unwrap();
        // codes: b=0, d=1, f=2 → s < "d" ⇔ code <= 0
        assert_eq!(
            lt_str,
            CompiledPred::Range {
                col: 1,
                lo: 0,
                hi: 0
            }
        );

        let between = compile_predicate(&t, &Predicate::between("s", "a", "e")).unwrap();
        assert_eq!(
            between,
            CompiledPred::Range {
                col: 1,
                lo: 0,
                hi: 1
            }
        );

        let inset = compile_predicate(
            &t,
            &Predicate::is_in(
                "s",
                vec![Value::str("f"), Value::str("b"), Value::str("nope")],
            ),
        )
        .unwrap();
        assert_eq!(
            inset,
            CompiledPred::InSet {
                col: 1,
                codes: vec![0, 2]
            }
        );
        assert!(inset.matches(|_| 2));
        assert!(!inset.matches(|_| 1));

        let in_empty =
            compile_predicate(&t, &Predicate::is_in("s", vec![Value::str("q")])).unwrap();
        assert_eq!(in_empty, CompiledPred::Never);
        assert!(!CompiledPred::Never.matches(|_| 0));
    }

    #[test]
    fn spec_helpers() {
        let spec = QuerySpec {
            id: "T".into(),
            fact: "f".into(),
            dims: vec![DimSpec {
                table: "d".into(),
                join_col: "dk".into(),
                fact_col: "fk".into(),
                predicates: vec![Predicate::eq("x", 1i64)],
                carried: vec![],
            }],
            fact_predicates: vec![],
            group_by: vec![],
            aggregates: vec![
                AggExpr::sum(Expr::Mul("p".into(), "q".into()), "s1"),
                AggExpr::sum(Expr::Col("p".into()), "s2"),
            ],
            order_by: vec![],
        };
        assert!(spec.dim_by_fact_col("fk").is_some());
        assert!(spec.dim_by_fact_col("zz").is_none());
        assert_eq!(
            spec.agg_input_columns(),
            vec!["p".to_string(), "q".to_string()]
        );
    }
}
