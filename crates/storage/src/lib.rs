//! In-memory row-store substrate for QPPT (the DexterDB analogue of §3/§5).
//!
//! The paper implements QPPT inside DexterDB, "an in-memory database system
//! that stores tuples in a row-store and uses MVCC for transactional
//! isolation". This crate provides that substrate, built from scratch:
//!
//! * [`types`] — column types, runtime values, schemas;
//! * [`dict`] — order-preserving string dictionaries (strings must become
//!   order-preserving integer codes so prefix-tree order equals logical
//!   order; SSB string domains are known at load time, so codes are assigned
//!   from the sorted domain);
//! * [`table`] — fixed-width row tables (`u64`-encoded fields, rid = row
//!   index) with per-column statistics;
//! * [`mvcc`] — begin/end-timestamp row versioning with snapshot visibility
//!   ("base indexes have to care for transactional isolation, intermediate
//!   indexes do not have to, because they are private for the query" — §3);
//! * [`index`] — the unified tree-index handle ([`index::TreeIndex`]:
//!   KISS-Tree for 32-bit key domains, prefix tree otherwise, chosen at plan
//!   time exactly as §2.2 describes, and §2.1's one-level tree for a
//!   dimension selection over a compact key range, [`dense`]) and base
//!   indexes (secondary or partially clustered, §3), whose build runs as
//!   a few linear passes of tasks behind one hook ([`BuildTasks`]);
//! * [`payload`] — the fixed-width payload rows behind every index, in
//!   32-bit lanes until a value needs 64;
//! * [`db`] — the catalog: tables plus their base indexes, with index
//!   maintenance on writes;
//! * [`query`] — the declarative star-query description ([`query::QuerySpec`])
//!   and result format shared by the QPPT engine, both comparison engines,
//!   and the reference oracle.

mod build;
pub mod db;
pub mod dense;
pub mod dict;
pub mod index;
pub mod mvcc;
pub mod payload;
pub mod query;
pub mod table;
pub mod types;

pub use build::{key_order, BuildTasks, SerialTasks};
pub use db::{Database, IndexDef};
pub use dense::{DenseIndex, DenseSlots};
pub use dict::Dictionary;
pub use index::{
    stable_key_order, sync_scan_indexes, sync_scan_indexes_range, BaseIndex, IndexedTable,
    KeyWidth, ProbeScratch, TreeIndex,
};
pub use mvcc::{MvccTable, Snapshot, TxnManager};
pub use payload::{Lane, Lanes, PayloadBuf, Row, Rows};
pub use qppt_mem::Values;
pub use query::{
    compile_predicate, AggExpr, AggOp, ColRef, CompiledPred, DimSpec, Expr, OrderKey, OrderTerm,
    Predicate, QueryResult, QuerySpec, ResultRow,
};
pub use table::{ColumnStats, Table, TableBuilder};
pub use types::{ColumnDef, ColumnType, Schema, StorageError, Value};
