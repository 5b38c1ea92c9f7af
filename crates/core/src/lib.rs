//! # QPPT — the indexed table-at-a-time query engine
//!
//! This crate is the paper's primary contribution: a query engine in which
//! **indexes are the first-class citizens**. Operators exchange *clustered
//! indexes* (prefix trees / KISS-Trees holding sets of tuples) instead of
//! tuples, columns or vectors:
//!
//! * **Intermediate indexed tables** (§1, [`inter::InterTable`]) — every
//!   operator's output is an index, handed to the next operator as a single
//!   index handle.
//! * **Cooperative operators** (§1) — an operator's output index is keyed on
//!   exactly the attribute(s) the *next* operator requests, so downstream
//!   operators never build internal hash tables.
//! * **Composed operators** (§4) — join-group (level 1: grouping as a side
//!   effect of output indexing), multi-way/star joins over the synchronous
//!   index scan with join-buffered assisting probes (level 2), and the
//!   select-join that streams a selection straight into the join without
//!   materializing it (level 3).
//!
//! The [`engine::QpptEngine`] plans and executes
//! [`qppt_storage::QuerySpec`] star queries; [`options::PlanOptions`]
//! exposes the demonstrator's optimization knobs (select-join on/off, join
//! buffer size, maximum star-join width, KISS vs. prefix-tree indexes).
//!
//! ```
//! use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
//! use qppt_ssb::{queries, SsbDb};
//!
//! let mut ssb = SsbDb::generate(0.01, 42);
//! let opts = PlanOptions::default();
//! let spec = queries::q2_3();
//! prepare_indexes(&mut ssb.db, &spec, &opts).unwrap();
//! let engine = QpptEngine::new(&ssb.db);
//! let (result, stats) = engine.run_with_stats(&spec, &opts).unwrap();
//! assert!(!result.rows.is_empty());
//! assert!(stats.ops.len() >= 2); // selections + composed joins
//! ```

pub mod engine;
pub mod exec;
pub mod fingerprint;
pub mod inter;
pub mod layout;
pub mod options;
pub mod partial;
pub mod plan;
pub mod prepared;
pub mod stats;
pub mod validate;

pub use engine::QpptEngine;
pub use exec::{DimSelection, KeyRange};
pub use fingerprint::{
    fingerprint_dim, fingerprint_opts, fingerprint_query, fingerprint_spec, Fnv64,
};
pub use inter::GroupRun;
pub use options::{BatchMode, PlanOptions};
pub use partial::PartialAggregate;
pub use plan::{build_plan, planned_indexes, prepare_indexes, prepare_indexes_with, Plan};
pub use prepared::PreparedQuery;
pub use stats::{ExecStats, OpStats};
pub use validate::{validate, validate_indexes, validate_spec, PlanError};

/// Errors from planning or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum QpptError {
    /// Invalid [`PlanOptions`].
    InvalidOptions(String),
    /// A malformed user-supplied query, rejected by the
    /// [`validate`](mod@crate::validate) pass (unknown tables/columns, type
    /// mismatches, bad group/order references, missing indexes).
    Plan(validate::PlanError),
    /// Catalog/type errors from the storage layer.
    Storage(qppt_storage::StorageError),
    /// The query shape is outside QPPT's star-query class.
    Unsupported(String),
    /// The composite group-by key does not fit 64 bits.
    GroupKeyTooWide { bits: u32 },
    /// Internal invariant violation (planner/executor disagreement).
    Internal(String),
}

impl core::fmt::Display for QpptError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QpptError::InvalidOptions(m) => write!(f, "invalid plan options: {m}"),
            QpptError::Plan(e) => write!(f, "invalid query: {e}"),
            QpptError::Storage(e) => write!(f, "storage error: {e}"),
            QpptError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            QpptError::GroupKeyTooWide { bits } => {
                write!(f, "composite group key needs {bits} bits (max 64)")
            }
            QpptError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for QpptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QpptError::Storage(e) => Some(e),
            QpptError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qppt_storage::StorageError> for QpptError {
    fn from(e: qppt_storage::StorageError) -> Self {
        QpptError::Storage(e)
    }
}
