//! # qppt-router — distributed prefix-sharded serving
//!
//! Scale-out for the qppt-server frontend: N `qppt-server` shards each own
//! a contiguous range of the fact table's canonical partition key
//! (`lo_orderdate`, the stage-1 prefix of every SSB plan's fact tree —
//! [`qppt_ssb::shard_bounds`]), with dimension tables replicated in full.
//! The router speaks the exact same line protocol both ways: clients
//! connect to it as if it were a single server, and it fans each query out
//! to the fleet.
//!
//! ## Scatter / gather / deterministic merge
//!
//! A `RUN`/`QUERY` is forwarded to **every** shard with `mode=partial`
//! appended, over pooled persistent connections — all shards execute
//! concurrently. Each answers a `PARTIAL` response: its aggregation index
//! serialized as (packed group key, decoded group values, accumulator
//! sums) in ascending key order, *without* ORDER BY. The router folds the
//! sorted partials, in range order, with
//! [`PartialAggregate::merge`](qppt_core::PartialAggregate::merge) — one
//! linear pass over the runs' heads, calling the same
//! [`GroupRun::merge`](qppt_core::GroupRun::merge) a node's morsel workers
//! fold their aggregations with, and building no tree or map — then
//! applies the query's ORDER BY, producing output **byte-identical** to a
//! single unsharded server, at any shard count and any per-shard
//! parallelism (`router_equivalence` pins this down for all 13 SSB
//! queries × {1, 2, 4} shards).
//!
//! This works because the packed group keys and their decoded values
//! derive only from the *dimension* tables, which every shard replicates
//! bit-identically — the same group packs to the same `u64` everywhere,
//! whatever fact rows a shard holds.
//!
//! ## Replication and failover
//!
//! Each `lo_orderdate` range can own an **ordered replica set** (every
//! replica is a `qppt-server` started with the same `--shard i/n`, so
//! replicas serve identical fact partitions). The fleet layout lives in a
//! router-side shard map ([`map`]): each request clones one `Arc` of it,
//! and [`Router::swap_fleet`] swaps in a new one between requests.
//!
//! Connect and read timeouts bound every replica exchange. On a
//! connect/read/protocol failure the router fails over: the next live
//! replica of the range is tried (suspects last), under a per-request
//! retry budget with capped-exponential jittered backoff, and the failed
//! replica is marked **suspect**. A background health prober `PING`s
//! suspects on their own backoff schedule and flips them back live —
//! recovery without waiting for organic traffic. Only when a range has no
//! replica able to answer does the client receive a bounded structured
//! `ERR range <i> unavailable (<detail>)` — never a hang, and never a
//! partial gather served as a complete answer. Because replicas of a
//! range hold identical data, the merged result is byte-identical to the
//! single-node oracle whichever replica answers (`router_failover` pins
//! this across kill/truncate/flap/outage scenarios; `router_robustness`
//! covers restart healing and slow-shard timeouts via the [`chaos`]
//! fault-injection proxy).
//!
//! ## Routed caching
//!
//! The router carries its own result cache ([`cache`]): merged fleet-wide
//! results keyed on (query fingerprint, topology generation, per-shard
//! table-version vector). Shards surface their table versions through
//! `INFO`; the router probes them — on demand when a cached vector is
//! older than the staleness bound (`--cache-probe-interval-ms`),
//! proactively from the background prober — so a write to one shard or a
//! topology swap invalidates the merged results, and the next request
//! re-scatters to every range. A shard whose versions have not moved
//! answers that request from its own result tier. Cached answers stay
//! byte-identical to the uncached scatter and the single-node oracle
//! (`router_equivalence`, `router_failover`).
//!
//! ## Verbs
//!
//! Every fleet verb is one exchange: the request goes to one replica of
//! each range it needs before any response is read, the responses are
//! gathered in range order with failover inside each range under one
//! retry budget, and the verb folds the answers. A failure is answered by
//! one rule: a shard `ERR` is relayed ahead of an unavailable range, and
//! within each kind the lowest range wins.
//!
//! | verb | routing |
//! |---|---|
//! | `RUN` / `QUERY` | router cache lookup, then the exchange of `mode=partial` with every range, merged |
//! | `INFO` | exchange with every range: summed `rows=`, `shards=N`, replica counts, per-range map |
//! | `CACHE STATS` | exchange with every range: counters summed, router tier appended as `router_*` |
//! | `CACHE CLEAR [dims]` | the router's own tier, then a fresh-dial ask to **every reachable replica** of every range; `ERR` names the first range with none |
//! | `LIST` / `EXPLAIN` | exchange with range 0 (identical on all shards), relayed |
//! | `PING` | answered locally |
//! | `SHUTDOWN` | stops the router only — shards keep serving |
//!
//! A shard reply whose counter does not parse (`CACHE STATS`, `INFO
//! rows=`) is relayed as `ERR shard <i> replica <j>: …`, never read as
//! zero.
//!
//! The TCP frontend is literally qppt-server's ([`Router`] implements
//! [`qppt_server::LineService`]), so oversized and malformed request
//! lines get the same drain-and-`ERR` treatment as on a shard.

mod pool;
mod router;

pub mod cache;
pub mod chaos;
pub mod map;
pub mod obs;

pub use cache::{RouterCache, RouterCacheConfig, RouterCacheStats};
pub use chaos::{ChaosMode, ChaosProxy};
pub use map::{parse_fleet, Backoff, ShardMap};
pub use obs::RouterObs;
pub use router::{serve_router, Router, RouterConfig, RouterError};
