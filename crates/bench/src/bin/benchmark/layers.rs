//! Per-layer numbers of the traced run: the *layer replay* (each distinct
//! request once, in-process, one public call per layer), the index
//! micro-measurements, and the reduction of recorded spans to metrics.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use qppt_cache::{CacheStats, QueryFingerprint, TierSnapshot};
use qppt_core::{build_plan, exec::decode_result, validate_indexes, PreparedQuery};
use qppt_server::protocol::apply_overrides;
use qppt_server::ServeEngine;
use qppt_storage::Database;

use crate::load::request_of;
use crate::report::Metrics;
use crate::trace::{dur_ns, self_ns, Recorder, Span, REQUEST, ROUTER_HANDLE, SERVER, SHARDS};
use crate::workloads::Rng;
use crate::write;

const REPLAY: &str = "replay";
const REPLAY_RUN_SPEC: &str = "replay.run_spec";
const REPLAY_PARTS: [&str; 5] = [
    "cache.fingerprint",
    "core.plan",
    "core.sigma",
    "par.exec",
    "core.decode",
];

/// At most this many distinct requests are replayed.
const REPLAY_LIMIT: usize = 128;

/// Trace ids of replayed requests start here (window ids are stream
/// positions + 1000, far below).
const REPLAY_ID_BASE: u64 = 1 << 40;

/// Replays distinct request lines against `engine`, layer by layer, and
/// sets the `core.*`, `par.*`, `query.*`, `cache.fingerprint_us` and
/// `trace.coverage` metrics.
pub fn replay(engine: &ServeEngine, lines: &[&str], rec: &Recorder, m: &mut Metrics) {
    let db: &Database = engine.pooled().db();
    let mut sums = [0u64; 5];
    let (mut query_parse_ns, mut run_spec_ns) = (0u64, 0u64);
    let (mut keys, mut rows) = (0usize, 0usize);
    let lines = &lines[..lines.len().min(REPLAY_LIMIT)];
    for (i, line) in lines.iter().enumerate() {
        let id = REPLAY_ID_BASE + i as u64;

        let (spec, options) = request_of(line);
        let (opts, _controls) =
            apply_overrides(engine.defaults(), &options).expect("generated options apply");

        let text = qppt_query::print(&spec);
        let t = Instant::now();
        black_box(qppt_query::parse(black_box(&text)).expect("printed spec parses"));
        query_parse_ns += t.elapsed().as_nanos() as u64;

        // The reference for coverage: the whole uncached pipeline in one
        // call (also warms whatever the first touch of this query pays).
        let s0 = rec.now();
        let (whole, _) = engine
            .run_spec(&spec, &opts, 0, false)
            .expect("generated query runs");
        let s1 = rec.now();
        rec.record(id, REPLAY_RUN_SPEC, None, s0, s1);
        run_spec_ns += s1 - s0;

        // The same work, one public call per layer.
        let mut at = [0u64; 6];
        at[0] = rec.now();
        black_box(QueryFingerprint::compute(db, &spec, &opts).expect("fingerprint computes"));
        at[1] = rec.now();
        let plan = Arc::new(build_plan(db, &spec, &opts).expect("generated query plans"));
        validate_indexes(db, &spec, &opts).expect("indexes were prepared");
        at[2] = rec.now();
        let prepared = PreparedQuery::from_plan(db, plan, db.snapshot()).expect("sigma builds");
        at[3] = rec.now();
        let (agg, stats) = engine
            .pooled()
            .run_prepared_agg(&prepared, 0, opts.batch_mode())
            .expect("pipeline runs");
        at[4] = rec.now();
        let result = decode_result(db, &prepared.plan, &agg);
        at[5] = rec.now();
        assert_eq!(result, whole, "layer replay answers like run_spec: {line}");
        rec.record(id, REPLAY, None, at[0], at[5]);
        for (k, part) in REPLAY_PARTS.iter().enumerate() {
            rec.record(id, part, Some(REPLAY), at[k], at[k + 1]);
            sums[k] += at[k + 1] - at[k];
        }

        keys += stats.ops.iter().map(|op| op.out_keys).sum::<usize>();
        rows += result.rows.len();
    }
    let n = lines.len().max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    m.set("cache.fingerprint_us", us(sums[0]));
    m.set("core.plan_us", us(sums[1]));
    m.set("core.sigma_us", us(sums[2]));
    m.set("par.exec_us", us(sums[3]));
    m.set("core.decode_us", us(sums[4]));
    m.set("core.keys_per_row", keys as f64 / rows.max(1) as f64);
    m.set("query.parse_us", us(query_parse_ns));
    m.set(
        "trace.coverage",
        sums.iter().sum::<u64>() as f64 / run_spec_ns.max(1) as f64,
    );
}

/// `index.*`: seeded point probes on the fact index with the most distinct
/// keys, one at a time and in batches of 1024, plus exact bytes per row.
pub fn index_metrics(db: &Database, seed: u64, probes: usize, m: &mut Metrics) {
    let fact = db.table_idx("lineorder").expect("SSB fact table");
    let rows = db.table_at(fact).table().row_count().max(1);
    let bytes: usize = db.indexes().iter().map(|i| i.data.memory_bytes()).sum();
    m.set("index.bytes_per_row", bytes as f64 / rows as f64);

    let index = &db
        .indexes()
        .iter()
        .filter(|i| i.table_idx == fact)
        .max_by_key(|i| i.data.index.len())
        .expect("lineorder has base indexes")
        .data
        .index;
    let (lo, hi) = (index.min_key().unwrap_or(0), index.max_key().unwrap_or(0));
    let mut rng = Rng::new(seed ^ 0x0069_6e64_6578);
    let keys: Vec<u64> = (0..probes)
        .map(|_| lo + rng.below((hi - lo + 1) as usize) as u64)
        .collect();

    let mut found = 0u64;
    let t = Instant::now();
    for &k in &keys {
        index.get_each(black_box(k), |v| found += v as u64);
    }
    let single_ns = t.elapsed().as_nanos() as f64;
    let mut found_batched = 0u64;
    let t = Instant::now();
    for chunk in keys.chunks(1024) {
        index.batch_get_each(black_box(chunk), |_, v| found_batched += v as u64);
    }
    let batch_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(
        black_box(found),
        black_box(found_batched),
        "single and batched probes see the same values"
    );
    m.set("index.lookup_ns", single_ns / probes.max(1) as f64);
    m.set("index.batch_lookup_ns", batch_ns / probes.max(1) as f64);
}

/// `cache.*` over the window: hit ratios, evictions and resident bytes
/// from the `CacheStats` delta (summed over the deployment's caches).
pub fn cache_metrics(before: &[CacheStats], after: &[CacheStats], m: &mut Metrics) {
    type Pick = fn(&CacheStats) -> &TierSnapshot;
    let tiers: [(&'static str, Pick); 4] = [
        ("cache.hit_ratio.plan", |s| &s.plans),
        ("cache.hit_ratio.dim", |s| &s.dims),
        ("cache.hit_ratio.selection", |s| &s.selections),
        ("cache.hit_ratio.result", |s| &s.results),
    ];
    let (mut evictions, mut bytes) = (0u64, 0usize);
    for (name, pick) in tiers {
        let (mut hits, mut lookups) = (0u64, 0u64);
        for (b, a) in before.iter().zip(after) {
            let (b, a) = (pick(b), pick(a));
            hits += a.hits - b.hits;
            // A stale or expired entry is a lookup that did not hit.
            lookups += (a.hits + a.misses + a.invalidations + a.expirations)
                - (b.hits + b.misses + b.invalidations + b.expirations);
            evictions += a.evictions - b.evictions;
            bytes += a.bytes;
        }
        m.set(name, hits as f64 / lookups.max(1) as f64);
    }
    m.set("cache.evictions", evictions as f64);
    m.set("cache.bytes", bytes as f64);
}

/// Reduces the window's traces to `server.*`, `router.*`, `share.*` and
/// `storage.insert_us_per_row`. Layers that recorded nothing report 0.
pub fn span_metrics(traces: &[Vec<Span>], write_totals: &write::WriteTotals, m: &mut Metrics) {
    let mut sum = Sums::default();
    for t in traces {
        if let Some(cycle) = dur_ns(t, write::CYCLE) {
            sum.root_ns += cycle;
            let engine: u64 = t
                .iter()
                .filter(|s| s.span == write::ENGINE)
                .map(Span::dur_ns)
                .sum();
            sum.engine_ns += engine;
            sum.handle_ns += cycle;
            sum.node_requests += t.iter().filter(|s| s.span == write::ENGINE).count() as u64;
            sum.insert_ns += dur_ns(t, write::INSERT).unwrap_or(0);
            continue;
        }
        let Some(request) = dur_ns(t, REQUEST) else {
            continue;
        };
        sum.requests += 1;
        sum.root_ns += request;
        let nodes: Vec<_> = std::iter::once(&SERVER)
            .chain(&SHARDS)
            .filter(|n| dur_ns(t, n.handle).is_some())
            .collect();
        for n in &nodes {
            sum.node_requests += 1;
            sum.handle_ns += dur_ns(t, n.handle).unwrap_or(0);
            sum.parse_ns += dur_ns(t, n.parse).unwrap_or(0);
            sum.engine_ns += dur_ns(t, n.engine).unwrap_or(0);
            sum.serialize_ns += dur_ns(t, n.serialize).unwrap_or(0);
        }
        match dur_ns(t, ROUTER_HANDLE) {
            Some(front) => {
                sum.wire_ns += request - front.min(request);
                sum.router_self_ns += self_ns(t, ROUTER_HANDLE).unwrap_or(0);
                let shard: Vec<u64> = nodes.iter().filter_map(|n| dur_ns(t, n.handle)).collect();
                if let (Some(max), Some(min)) = (shard.iter().max(), shard.iter().min()) {
                    sum.skew_ns += max - min;
                }
            }
            None => {
                let front = dur_ns(t, SERVER.handle).unwrap_or(request);
                sum.wire_ns += request - front.min(request);
            }
        }
    }
    let per = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
    m.set("server.parse_us", per(sum.parse_ns, sum.node_requests));
    m.set(
        "server.serialize_us",
        per(sum.serialize_ns, sum.node_requests),
    );
    m.set("server.engine_us", per(sum.engine_ns, sum.node_requests));
    m.set("server.wire_us", per(sum.wire_ns, sum.requests));
    m.set("router.self_us", per(sum.router_self_ns, sum.requests));
    m.set("router.shard_skew_us", per(sum.skew_ns, sum.requests));
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    m.set("share.engine_pct", pct(sum.engine_ns, sum.handle_ns));
    m.set("share.router_pct", pct(sum.router_self_ns, sum.root_ns));
    m.set("share.insert_pct", pct(sum.insert_ns, sum.root_ns));
    m.set(
        "storage.insert_us_per_row",
        per(write_totals.insert_ns, write_totals.rows_inserted),
    );
}

#[derive(Debug, Default)]
struct Sums {
    /// Traced client requests (0 for `write_refresh`).
    requests: u64,
    /// `RUN`/`QUERY` executions on a server or shard (or in a cycle).
    node_requests: u64,
    root_ns: u64,
    handle_ns: u64,
    parse_ns: u64,
    engine_ns: u64,
    serialize_ns: u64,
    wire_ns: u64,
    router_self_ns: u64,
    skew_ns: u64,
    insert_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, parent: Option<&'static str>, s: u64, e: u64) -> Span {
        Span {
            trace_id: id,
            span: name,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn served_trace_reduces_to_layer_means() {
        let traces = vec![vec![
            span(1, "request", None, 0, 10_000),
            span(1, "server.handle", Some("request"), 1_000, 9_000),
            span(1, "server.parse", Some("server.handle"), 1_000, 2_000),
            span(1, "server.engine", Some("server.handle"), 2_000, 8_000),
            span(1, "server.serialize", Some("server.handle"), 8_000, 9_000),
        ]];
        let mut m = Metrics::default();
        span_metrics(&traces, &write::WriteTotals::default(), &mut m);
        assert_eq!(m.get("server.parse_us"), Some(1.0));
        assert_eq!(m.get("server.engine_us"), Some(6.0));
        assert_eq!(m.get("server.serialize_us"), Some(1.0));
        assert_eq!(m.get("server.wire_us"), Some(2.0));
        assert_eq!(m.get("share.engine_pct"), Some(75.0));
        assert_eq!(m.get("router.self_us"), Some(0.0));
        assert_eq!(m.get("storage.insert_us_per_row"), Some(0.0));
    }

    #[test]
    fn routed_trace_separates_router_self_time_and_skew() {
        let traces = vec![vec![
            span(1, "request", None, 0, 10_000),
            span(1, "router.handle", Some("request"), 500, 9_500),
            span(1, "shard0.handle", Some("router.handle"), 1_000, 5_000),
            span(1, "shard0.engine", Some("shard0.handle"), 1_500, 4_500),
            span(1, "shard1.handle", Some("router.handle"), 2_000, 8_000),
            span(1, "shard1.engine", Some("shard1.handle"), 2_500, 7_500),
        ]];
        let mut m = Metrics::default();
        span_metrics(&traces, &write::WriteTotals::default(), &mut m);
        // 9000 − union(1000..8000) = 2000 ns.
        assert_eq!(m.get("router.self_us"), Some(2.0));
        assert_eq!(m.get("router.shard_skew_us"), Some(2.0));
        assert_eq!(m.get("share.router_pct"), Some(20.0));
        assert_eq!(m.get("server.wire_us"), Some(1.0));
        assert_eq!(m.get("server.engine_us"), Some(4.0));
    }

    #[test]
    fn cache_delta_gives_ratios() {
        let mut before = CacheStats::default();
        let mut after = CacheStats::default();
        before.dims.hits = 10;
        before.dims.misses = 10;
        after.dims.hits = 40;
        after.dims.misses = 20;
        after.dims.evictions = 3;
        after.dims.bytes = 4096;
        let mut m = Metrics::default();
        cache_metrics(&[before], &[after], &mut m);
        assert_eq!(m.get("cache.hit_ratio.dim"), Some(0.75));
        assert_eq!(m.get("cache.hit_ratio.result"), Some(0.0));
        assert_eq!(m.get("cache.evictions"), Some(3.0));
        assert_eq!(m.get("cache.bytes"), Some(4096.0));
    }
}
