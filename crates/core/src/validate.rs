//! Catalog validation of user-supplied [`QuerySpec`]s.
//!
//! The planner historically assumed well-formed specs (the 13 SSB queries
//! are constructed by code that cannot get them wrong) and panicked on the
//! rest — a `Layout::expect` on a group column that was never carried, a
//! dictionary unwrap on a mistyped constant, an index-payload unwrap on a
//! column the startup `prepare_indexes` never saw. With the ad-hoc `QUERY`
//! frontend any of those shapes arrives over TCP, so every reachable
//! assumption becomes a typed [`PlanError`] here, checked *before*
//! planning:
//!
//! * [`validate_spec`] — pure catalog checks: tables and columns exist,
//!   predicate constants and aggregate inputs match column types, group-by
//!   columns are carried by a joined dimension, order-by terms index into
//!   the group/aggregate lists, fact FKs are distinct across dims.
//!   [`build_plan`](crate::plan::build_plan) runs this first, so the
//!   planner itself can no longer be driven into a panic by a malformed
//!   spec, whichever path a spec arrives through.
//! * [`validate_indexes`] — serving-time check that every base
//!   index the plan will read exists and carries the needed payload
//!   columns. The server prepares indexes at startup (`Database` is behind
//!   an `Arc` while serving), so an ad-hoc query needing an absent index
//!   is answered with a structured `ERR`, not a mid-execution unwrap.
//! * [`validate`] — both, in order: the full pre-flight of the serving
//!   path's validate→plan→cache→execute pipeline.

use qppt_storage::{ColumnType, Database, Predicate, QuerySpec, Value};

use crate::options::PlanOptions;
use crate::plan::planned_indexes;
use crate::QpptError;

/// A structured validation error (surfaced to protocol clients as one
/// `ERR` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The spec names a table the catalog does not have.
    UnknownTable(String),
    /// The spec names a column its table does not have.
    UnknownColumn { table: String, column: String },
    /// A predicate constant or aggregate input disagrees with the column
    /// type.
    TypeMismatch {
        table: String,
        column: String,
        expected: ColumnType,
        got: ColumnType,
    },
    /// Star queries need at least one dimension join.
    NoDimensions,
    /// Star queries need at least one aggregate.
    NoAggregates,
    /// Two dimensions join through the same fact FK column; the pipeline
    /// consumes each stage key exactly once.
    DuplicateFactColumn(String),
    /// A group-by column's table is not among the joined dimensions.
    GroupNotADim { table: String, column: String },
    /// A group-by column is not in its dimension's `carry` list, so no
    /// join stage would deliver it to the aggregation.
    GroupColumnNotCarried { table: String, column: String },
    /// An order-by term points past the group/aggregate lists.
    OrderOutOfRange {
        what: &'static str,
        index: usize,
        len: usize,
    },
    /// An `IN` predicate with no values.
    EmptyInList { table: String, column: String },
    /// A base index the plan reads does not exist (the server prepares
    /// indexes at startup; ad-hoc queries can only use prepared ones).
    MissingIndex { table: String, key: String },
    /// The index exists but does not carry a payload column the plan
    /// reads.
    IndexMissingColumn {
        table: String,
        key: String,
        column: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            PlanError::UnknownColumn { table, column } => {
                write!(f, "table {table:?} has no column {column:?}")
            }
            PlanError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "{table}.{column} is {expected:?} but the query uses it as {got:?}"
            ),
            PlanError::NoDimensions => write!(f, "star queries need at least one dim= clause"),
            PlanError::NoAggregates => write!(f, "star queries need at least one agg= clause"),
            PlanError::DuplicateFactColumn(c) => {
                write!(f, "two dims join through the same fact column {c:?}")
            }
            PlanError::GroupNotADim { table, column } => write!(
                f,
                "group column {table}.{column}: {table:?} is not a joined dim"
            ),
            PlanError::GroupColumnNotCarried { table, column } => write!(
                f,
                "group column {table}.{column} must be in dim {table}'s carry= list"
            ),
            PlanError::OrderOutOfRange { what, index, len } => write!(
                f,
                "order term {what}:{index} is out of range (the query has {len} {what} column(s))"
            ),
            PlanError::EmptyInList { table, column } => {
                write!(f, "empty IN list on {table}.{column}")
            }
            PlanError::MissingIndex { table, key } => write!(
                f,
                "no base index on {table}.{key} — the server prepares indexes at startup; \
                 ad-hoc predicates/joins must use already-indexed columns"
            ),
            PlanError::IndexMissingColumn { table, key, column } => write!(
                f,
                "the base index on {table}.{key} does not carry column {column:?} \
                 the query reads"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for QpptError {
    fn from(e: PlanError) -> Self {
        QpptError::Plan(e)
    }
}

/// The full pre-flight of the serving path: catalog checks, then index
/// availability under the effective plan options.
pub fn validate(db: &Database, spec: &QuerySpec, opts: &PlanOptions) -> Result<(), QpptError> {
    validate_spec(db, spec)?;
    validate_indexes(db, spec, opts)?;
    Ok(())
}

/// Pure catalog validation (no index requirements) — see module docs.
/// [`build_plan`](crate::plan::build_plan) calls this first, so every
/// panic path a malformed spec could previously reach now fails here with
/// a typed [`PlanError`].
pub fn validate_spec(db: &Database, spec: &QuerySpec) -> Result<(), PlanError> {
    let table_of = |name: &str| {
        db.table(name)
            .map(|mvt| mvt.table())
            .map_err(|_| PlanError::UnknownTable(name.to_string()))
    };
    let fact = table_of(&spec.fact)?;
    let col_ty = |t: &qppt_storage::Table, tname: &str, col: &str| {
        t.schema()
            .col(col)
            .map(|c| t.schema().column(c).ty)
            .map_err(|_| PlanError::UnknownColumn {
                table: tname.to_string(),
                column: col.to_string(),
            })
    };

    if spec.dims.is_empty() {
        return Err(PlanError::NoDimensions);
    }
    if spec.aggregates.is_empty() {
        return Err(PlanError::NoAggregates);
    }

    let mut fact_cols_seen: Vec<&str> = Vec::with_capacity(spec.dims.len());
    for d in &spec.dims {
        let t = table_of(&d.table)?;
        col_ty(t, &d.table, &d.join_col)?;
        col_ty(fact, &spec.fact, &d.fact_col)?;
        if fact_cols_seen.contains(&d.fact_col.as_str()) {
            return Err(PlanError::DuplicateFactColumn(d.fact_col.clone()));
        }
        fact_cols_seen.push(&d.fact_col);
        for p in &d.predicates {
            validate_predicate(t, &d.table, p, &col_ty)?;
        }
        for c in &d.carried {
            col_ty(t, &d.table, c)?;
        }
    }

    for p in &spec.fact_predicates {
        validate_predicate(fact, &spec.fact, p, &col_ty)?;
    }

    for a in &spec.aggregates {
        for c in a.expr.columns() {
            let ty = col_ty(fact, &spec.fact, c)?;
            if ty != ColumnType::Int {
                // Aggregating a dictionary code would sum codes, not values.
                return Err(PlanError::TypeMismatch {
                    table: spec.fact.clone(),
                    column: c.to_string(),
                    expected: ty,
                    got: ColumnType::Int,
                });
            }
        }
    }

    for g in &spec.group_by {
        let dim = spec
            .dims
            .iter()
            .find(|d| d.table == g.table)
            .ok_or_else(|| PlanError::GroupNotADim {
                table: g.table.clone(),
                column: g.column.clone(),
            })?;
        col_ty(table_of(&g.table)?, &g.table, &g.column)?;
        if !dim.carried.contains(&g.column) {
            return Err(PlanError::GroupColumnNotCarried {
                table: g.table.clone(),
                column: g.column.clone(),
            });
        }
    }

    for o in &spec.order_by {
        let (what, index, len) = match o.term {
            qppt_storage::OrderTerm::Group(i) => ("group", i, spec.group_by.len()),
            qppt_storage::OrderTerm::Agg(i) => ("agg", i, spec.aggregates.len()),
        };
        if index >= len {
            return Err(PlanError::OrderOutOfRange { what, index, len });
        }
    }
    Ok(())
}

fn validate_predicate(
    t: &qppt_storage::Table,
    tname: &str,
    p: &Predicate,
    col_ty: &impl Fn(&qppt_storage::Table, &str, &str) -> Result<ColumnType, PlanError>,
) -> Result<(), PlanError> {
    let ty = col_ty(t, tname, p.column())?;
    let check = |v: &Value| {
        if v.column_type() != ty {
            Err(PlanError::TypeMismatch {
                table: tname.to_string(),
                column: p.column().to_string(),
                expected: ty,
                got: v.column_type(),
            })
        } else {
            Ok(())
        }
    };
    match p {
        Predicate::Eq { value, .. } | Predicate::Lt { value, .. } => check(value),
        Predicate::Between { lo, hi, .. } => {
            check(lo)?;
            check(hi)
        }
        Predicate::In { values, .. } => {
            if values.is_empty() {
                return Err(PlanError::EmptyInList {
                    table: tname.to_string(),
                    column: p.column().to_string(),
                });
            }
            values.iter().try_for_each(check)
        }
    }
}

/// Checks that every base index the plan will read exists and carries the
/// payload columns the executor fetches — the exact set
/// [`planned_indexes`] would create. On the serving path this turns every
/// `find_index`/payload unwrap an unprepared ad-hoc query could hit into a
/// [`PlanError::MissingIndex`] / [`PlanError::IndexMissingColumn`] before
/// any work is done.
pub fn validate_indexes(
    db: &Database,
    spec: &QuerySpec,
    opts: &PlanOptions,
) -> Result<(), QpptError> {
    for def in &planned_indexes(db, spec, opts)? {
        let bi = db
            .find_index_on(&def.table, &def.keys)
            .map_err(|_| PlanError::MissingIndex {
                table: def.table.clone(),
                key: def.key_name(),
            })?;
        if let Some(c) = def
            .carried
            .iter()
            .find(|c| bi.payload_pos_by_name(c).is_none())
        {
            return Err(PlanError::IndexMissingColumn {
                table: def.table.clone(),
                key: def.key_name(),
                column: c.clone(),
            }
            .into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_storage::{AggExpr, ColRef, DimSpec, Expr, OrderKey};

    fn db() -> Database {
        use qppt_storage::{Schema, TableBuilder};
        let mut b = TableBuilder::new(
            "fact",
            Schema::of(&[
                ("fk", ColumnType::Int),
                ("m", ColumnType::Int),
                ("s", ColumnType::Str),
            ]),
        );
        b.push_row(vec![Value::Int(1), Value::Int(10), Value::str("a")])
            .unwrap();
        let fact = b.finish();
        let mut b = TableBuilder::new(
            "dim",
            Schema::of(&[
                ("k", ColumnType::Int),
                ("x", ColumnType::Int),
                ("name", ColumnType::Str),
            ]),
        );
        b.push_row(vec![Value::Int(1), Value::Int(7), Value::str("n")])
            .unwrap();
        let dim = b.finish();
        let mut db = Database::new();
        db.add_table(fact);
        db.add_table(dim);
        db
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            id: "t".into(),
            fact: "fact".into(),
            dims: vec![DimSpec {
                table: "dim".into(),
                join_col: "k".into(),
                fact_col: "fk".into(),
                predicates: vec![Predicate::eq("x", 7i64)],
                carried: vec!["name".into()],
            }],
            fact_predicates: vec![Predicate::lt("m", 100i64)],
            group_by: vec![ColRef::new("dim", "name")],
            aggregates: vec![AggExpr::sum(Expr::Col("m".into()), "s")],
            order_by: vec![OrderKey::group(0), OrderKey::agg_desc(0)],
        }
    }

    #[test]
    fn well_formed_spec_validates() {
        validate_spec(&db(), &spec()).unwrap();
    }

    #[test]
    fn catalog_errors_are_typed() {
        let db = db();
        let mut q = spec();
        q.fact = "nope".into();
        assert_eq!(
            validate_spec(&db, &q),
            Err(PlanError::UnknownTable("nope".into()))
        );

        let mut q = spec();
        q.dims[0].join_col = "zz".into();
        assert!(matches!(
            validate_spec(&db, &q),
            Err(PlanError::UnknownColumn { .. })
        ));

        let mut q = spec();
        q.dims[0].predicates = vec![Predicate::eq("x", "seven")];
        assert!(matches!(
            validate_spec(&db, &q),
            Err(PlanError::TypeMismatch { .. })
        ));

        let mut q = spec();
        q.dims.clear();
        assert_eq!(validate_spec(&db, &q), Err(PlanError::NoDimensions));

        let mut q = spec();
        q.aggregates.clear();
        assert_eq!(validate_spec(&db, &q), Err(PlanError::NoAggregates));

        let mut q = spec();
        q.dims.push(q.dims[0].clone());
        assert_eq!(
            validate_spec(&db, &q),
            Err(PlanError::DuplicateFactColumn("fk".into()))
        );

        let mut q = spec();
        q.group_by = vec![ColRef::new("other", "name")];
        assert!(matches!(
            validate_spec(&db, &q),
            Err(PlanError::GroupNotADim { .. })
        ));

        let mut q = spec();
        q.group_by = vec![ColRef::new("dim", "x")];
        assert!(matches!(
            validate_spec(&db, &q),
            Err(PlanError::GroupColumnNotCarried { .. })
        ));

        let mut q = spec();
        q.order_by = vec![OrderKey::group(3)];
        assert_eq!(
            validate_spec(&db, &q),
            Err(PlanError::OrderOutOfRange {
                what: "group",
                index: 3,
                len: 1
            })
        );

        let mut q = spec();
        q.aggregates = vec![AggExpr::sum(Expr::Col("s".into()), "s")];
        assert!(
            matches!(validate_spec(&db, &q), Err(PlanError::TypeMismatch { .. })),
            "aggregating a string column must be rejected"
        );

        let mut q = spec();
        q.dims[0].predicates = vec![Predicate::is_in("x", vec![])];
        assert!(matches!(
            validate_spec(&db, &q),
            Err(PlanError::EmptyInList { .. })
        ));
    }

    #[test]
    fn index_availability_is_checked() {
        let mut db = db();
        let q = spec();
        let opts = PlanOptions::default();
        assert!(matches!(
            validate(&db, &q, &opts),
            Err(QpptError::Plan(PlanError::MissingIndex { .. }))
        ));
        crate::plan::prepare_indexes(&mut db, &q, &opts).unwrap();
        validate(&db, &q, &opts).unwrap();

        // A query reading a column the prepared index does not carry.
        let mut wide = q.clone();
        wide.dims[0].carried.push("x".into());
        match validate(&db, &wide, &opts) {
            // Depending on overlap this is a missing payload column.
            Err(QpptError::Plan(
                PlanError::IndexMissingColumn { .. } | PlanError::MissingIndex { .. },
            )) => {}
            other => panic!("want index error, got {other:?}"),
        }
    }
}
