//! # QPPT — Query Processing on Prefix Trees
//!
//! A from-scratch Rust reproduction of *QPPT: Query Processing on Prefix
//! Trees* (Kissinger, Schlegel, Habich, Lehner — CIDR 2013).
//!
//! QPPT is an **indexed table-at-a-time** processing model for in-memory
//! row stores: operators exchange *clustered indexes* (prefix trees holding
//! sets of tuples) instead of tuples, columns, or vectors. Every operator's
//! output is an index keyed on exactly the attribute(s) the next operator
//! needs, so grouping and sorting happen "for free" while building the
//! output, and composed operators (select-join, multi-way/star join) skip
//! intermediate materialisation entirely.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`trie`] / [`kiss`] — the index structures of §2 (generalized prefix
//!   tree, KISS-Tree) with batch processing and synchronous index scans.
//! * [`hash`] — the hash-table comparators used in the paper's Fig. 3.
//! * [`storage`] — the in-memory row-store substrate (schema, dictionaries,
//!   MVCC, base indexes, star-query specs).
//! * [`ssb`] — the Star Schema Benchmark generator, the 13 SSB queries, and
//!   a naive reference executor used as correctness oracle.
//! * [`core`] — the QPPT engine itself (the paper's contribution);
//!   [`core::QpptEngine`] is the single-threaded model and the sequential
//!   oracle every other path is tested against.
//! * [`columnar`] — the column-at-a-time and vector-at-a-time comparison
//!   engines of §5.
//! * [`mem`] — arenas, segmented duplicate storage, prefetching, and the
//!   deterministic PRNG underneath everything.
//! * [`par`] — morsel-driven parallel execution over prefix-tree
//!   partitions: [`par::PooledEngine`] — the one parallel engine — runs
//!   the same plans as [`core`] on a persistent shared
//!   [`par::WorkerPool`] serving many concurrent queries, byte-identical
//!   results.
//! * [`cache`] — the snapshot-keyed query cache: bounded sharded LRU
//!   tiers for plans, materialized dimension selections, and full results,
//!   invalidated exactly by per-table versions
//!   ([`cache::QueryCache`], [`cache::QueryFingerprint`]).
//! * [`query`] — the textual query language: a line-oriented grammar over
//!   [`storage::QuerySpec`] with a lossless parser/pretty-printer pair
//!   ([`query::parse`], [`query::print`]) — the server's `QUERY` verb.
//! * [`server`] — the TCP query service on top: ad-hoc `QUERY` text and
//!   named SSB aliases over a line protocol, thread-per-connection
//!   frontend, every query validated and executed on the shared pool
//!   through the cache ([`server::ServeEngine`], [`server::QpptClient`]).
//! * [`router`] — distributed serving: a scatter/gather router over
//!   prefix-sharded `qppt-server` fleets with a deterministic cross-shard
//!   merge, byte-identical to single-node answers
//!   ([`router::Router`], [`router::serve_router`]).
//! * [`obs`] — dependency-free observability: sharded lock-free metrics
//!   with Prometheus text exposition behind the `METRICS` verb, and
//!   request-scoped span traces stitched across the router fleet
//!   ([`obs::Registry`], [`obs::Trace`]).
//!
//! ## Quickstart
//!
//! ```
//! use qppt::core::{prepare_indexes, PlanOptions, QpptEngine};
//! use qppt::ssb::{queries, SsbDb};
//!
//! // Tiny deterministic SSB instance (scale factor 0.01).
//! let mut ssb = SsbDb::generate(0.01, 42);
//! let opts = PlanOptions::default();
//! let spec = queries::q2_3();
//!
//! // Base indexes are created once and remain in the data pool (§3).
//! prepare_indexes(&mut ssb.db, &spec, &opts).unwrap();
//!
//! let engine = QpptEngine::new(&ssb.db);
//! let result = engine.run(&spec, &opts).unwrap();
//! // A QPPT result is already grouped *and* ordered: the output is
//! // physically a prefix tree keyed on (d_year, p_brand1).
//! assert!(result.rows.windows(2).all(|w| w[0].key_values <= w[1].key_values));
//! ```

pub use qppt_cache as cache;
pub use qppt_columnar as columnar;
pub use qppt_core as core;
pub use qppt_hash as hash;
pub use qppt_kiss as kiss;
pub use qppt_mem as mem;
pub use qppt_obs as obs;
pub use qppt_par as par;
pub use qppt_query as query;
pub use qppt_router as router;
pub use qppt_server as server;
pub use qppt_ssb as ssb;
pub use qppt_storage as storage;
pub use qppt_trie as trie;
