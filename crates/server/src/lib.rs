//! # qppt-server — a shared-worker-pool query service
//!
//! The path from "hardware-speed single query" to "heavy traffic": this
//! crate serves **arbitrary ad-hoc star queries** — written in the
//! `qppt-query` language and submitted with the `QUERY` verb — over a
//! small line-oriented TCP protocol; the 13 SSB names are aliases for
//! pre-registered specs and take the exact same
//! validate→plan→cache→execute path (`RUN q3.1` ≡ `QUERY <q3.1's
//! text>`, byte for byte). Every query executes on one persistent
//! [`WorkerPool`](qppt_par::WorkerPool) shared across connections
//! (inter-query parallelism) while each query is itself morsel-partitioned
//! across that pool (intra-query parallelism). Results are byte-identical
//! to the sequential [`QpptEngine`](qppt_core::QpptEngine) — the
//! `serve_equivalence` integration test pins that down under ≥ 8
//! concurrent connections.
//!
//! Every `RUN` goes through the snapshot-keyed
//! [`QueryCache`](qppt_cache::QueryCache): repeated queries at unchanged
//! per-table versions serve straight from the result tier without
//! touching the pool — full and `mode=partial` answers alike, each under
//! its own key — and MVCC writes invalidate exactly the affected
//! entries (`cache_equivalence` proves stale results are never served).
//!
//! * [`ServeEngine`] — database + pool + query cache + named-query
//!   aliases; [`ServeEngine::run_spec`] is the one pipeline every query
//!   goes through, with `qppt_core::validate` turning malformed specs
//!   into structured `ERR`s.
//! * [`serve`] / [`serve_with`] / [`ServerHandle`] — the `std::net`
//!   acceptor, thread-per-connection, graceful shutdown
//!   ([`ServerConfig`]: poll tick, request-line cap).
//! * [`protocol`] — the wire grammar (`RUN q4.1 parallelism=4`, …) and its
//!   parser/serializer, shared by server and client.
//! * [`QpptClient`] — a blocking client for tests, benches, and the
//!   `qppt-smoke` CI probe.
//!
//! Binaries: `qppt-server` (generate SSB, prepare indexes on the pool,
//! listen) and `qppt-smoke` (connect, re-derive the expected answer
//! locally, assert byte-equality — the CI smoke test).
//!
//! ## In-process example
//!
//! ```
//! use std::sync::Arc;
//! use qppt_core::PlanOptions;
//! use qppt_par::WorkerPool;
//! use qppt_server::{serve, QpptClient, ServeEngine};
//!
//! let pool = WorkerPool::new(2, 4);
//! let defaults = PlanOptions::default().with_parallelism(2).with_par_index_build(true);
//! let engine = ServeEngine::with_ssb(0.01, 42, pool.clone(), defaults).unwrap();
//! let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
//!
//! let mut client = QpptClient::connect(server.addr()).unwrap();
//! let served = client.run("q2.3", &[("parallelism", "2")]).unwrap();
//! assert!(!served.result.rows.is_empty());
//!
//! server.stop();     // graceful: in-flight queries finish first
//! pool.shutdown();   // the pool outlives the server by design
//! ```

pub mod cli;
mod client;
mod engine;
pub mod obs;
pub mod protocol;
mod server;

pub use client::{QpptClient, Served, ServedPartial};
pub use engine::{detected_cores, render_cache_stats, ServeEngine, ServeError, ServeInfo};
pub use obs::ServeObs;
pub use protocol::{CacheCmd, ClientError, RunControls, ServedStats, TraceMode};
pub use server::{serve, serve_lines, serve_with, LineService, Reply, ServerConfig, ServerHandle};
