//! The single-node observability contract, end to end over real TCP:
//!
//! * `METRICS` serves a well-formed Prometheus text exposition (verified
//!   by the strict parser in `qppt-obs`) whose per-verb counters match
//!   the requests this very connection issued;
//! * the cache-tier families agree **exactly** with `CACHE STATS` after a
//!   fixed query sequence — both render from the same snapshot;
//! * `trace=on` returns a valid span tree (unique ids, parents first,
//!   child micros ≤ parent micros) covering plan/σ/exec/decode on a cold
//!   run — cached or `cache=off`, full or `mode=partial`: there is one
//!   pipeline — and `result_cache` on a warm one, with result bytes
//!   identical to the untraced run;
//! * a `cache=off` run reports the same non-cache `# op` list as a cold
//!   cached run, for all 13 queries;
//! * `mem=` rides on every `# op` stats line;
//! * serving without observability (`--no-obs`) answers `METRICS` with a
//!   structured `ERR` while every other verb keeps working.

use std::sync::Arc;

use qppt_core::PlanOptions;
use qppt_obs::{parse_exposition, validate_span_tree};
use qppt_par::WorkerPool;
use qppt_server::{serve, ClientError, QpptClient, ServeEngine, ServeObs};
use qppt_ssb::{queries, SsbDb};

const SF: f64 = 0.01;
const SEED: u64 = 42;

fn ssb_db() -> Arc<qppt_storage::Database> {
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        qppt_core::prepare_indexes(&mut ssb.db, &q, &PlanOptions::default()).unwrap();
    }
    Arc::new(ssb.db)
}

/// The pipeline's four phase spans must all hang off the root, and —
/// being disjoint sub-intervals of the request — sum to at most the root.
fn assert_pipeline_spans(spans: &[qppt_obs::SpanRec], what: &str) {
    validate_span_tree(spans).unwrap_or_else(|e| panic!("{what}: {e}"));
    let root = &spans[0];
    assert_eq!(root.name, "request", "{what}: root span first");
    let mut children = 0u64;
    for want in ["plan", "sigma", "exec", "decode"] {
        let span = spans
            .iter()
            .find(|s| s.name == want)
            .unwrap_or_else(|| panic!("{what}: trace must contain {want}: {spans:?}"));
        assert_eq!(span.parent, Some(root.id), "{what}: {want} hangs off root");
        children += span.micros;
    }
    assert!(
        children <= root.micros,
        "{what}: phases sum to {children}µs > root {}µs",
        root.micros
    );
}

/// An `# op` line minus what legitimately varies run to run (timing, and
/// the footprint of whichever worker's aggregate the merge started from):
/// label, cardinalities, index kind.
fn op_shape(line: &str) -> (String, Vec<String>) {
    let (label, fields) = line.rsplit_once(" | ").expect("op line has fields");
    let kept = fields
        .split_whitespace()
        .filter(|kv| !kv.starts_with("micros=") && !kv.starts_with("mem="))
        .map(str::to_string)
        .collect();
    (label.to_string(), kept)
}

fn tier_field(kvs: &[(String, String)], key: &str) -> i64 {
    kvs.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.parse().expect("numeric CACHE STATS field"))
        .unwrap_or_else(|| panic!("missing CACHE STATS field {key}"))
}

#[test]
fn metrics_exposition_counts_requests_and_matches_cache_stats() {
    let db = ssb_db();
    let obs = ServeObs::new(Some(1)); // threshold 1µs: executed queries are "slow"
    let pool = WorkerPool::new_with_metrics(2, 8, Some(obs.pool_metrics()));
    let engine = ServeEngine::over_db(db, pool.clone(), PlanOptions::default(), SF, SEED)
        .with_obs(obs.clone());
    let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = QpptClient::connect(server.addr()).unwrap();

    // A fixed sequence: 2 RUNs (cold + warm), 1 ad-hoc QUERY (alone on the
    // pool at parallelism 2, so granted both cores), 1 PING.
    client.run("q2.3", &[]).expect("cold run");
    client.run("q2.3", &[]).expect("warm run");
    client
        .query(
            "fact=lineorder \
             dim=supplier[join=s_suppkey:lo_suppkey;s_region='ASIA';carry=s_nation] \
             dim=date[join=d_datekey:lo_orderdate;d_year between 1992 and 1997;carry=d_year] \
             agg=sum(lo_revenue):rev group=supplier.s_nation,date.d_year \
             order=group:1,agg:0:desc id=obs-adhoc",
            &[("parallelism", "2")],
        )
        .expect("ad-hoc query");
    client.ping().expect("ping");

    let text = client.metrics().expect("METRICS answers");
    let expo = parse_exposition(&text).expect("exposition parses strictly");
    assert_eq!(
        expo.value("qppt_requests_total", &[("verb", "RUN")]),
        Some(2)
    );
    assert_eq!(
        expo.value("qppt_requests_total", &[("verb", "QUERY")]),
        Some(1)
    );
    assert_eq!(
        expo.value("qppt_requests_total", &[("verb", "PING")]),
        Some(1)
    );
    assert_eq!(
        expo.value("qppt_request_micros_count", &[("verb", "RUN")]),
        Some(2)
    );
    // Threshold 1µs makes any executed query a slow one; the cold RUN and
    // the ad-hoc QUERY execute for milliseconds (the warm hit may round
    // to 0µs, so ≥ 2 is the safe exact-lower-bound).
    let slow = expo
        .value("qppt_slow_queries_total", &[])
        .expect("slow counter present");
    assert!((2..=3).contains(&slow), "slow queries: {slow}");
    assert_eq!(expo.kind("qppt_request_micros"), Some("histogram"));
    assert!(expo.value("qppt_uptime_seconds", &[]).is_some());
    // Pool families are registered through the same registry.
    assert!(expo.value("qppt_pool_jobs_started_total", &[]).is_some());
    assert_eq!(expo.value("qppt_pool_queue_depth", &[]), Some(0));
    // The pool explains its grants: the lone parallel query got both
    // cores, nothing was sent to one, and no thread is running at idle.
    assert!(expo.value("qppt_pool_admissions_total", &[("grant", "many")]) >= Some(1));
    assert_eq!(
        expo.value("qppt_pool_admissions_total", &[("grant", "one")]),
        Some(0)
    );
    assert_eq!(expo.value("qppt_pool_running_threads", &[]), Some(0));

    // CACHE STATS and METRICS agree exactly: both render the same
    // snapshot. (The METRICS scrape above does not touch cache counters.)
    let stats = client.cache_stats().expect("CACHE STATS answers");
    let text = client.metrics().expect("second scrape");
    let expo = parse_exposition(&text).expect("second scrape parses");
    for (tier, prefix) in [("result", "result"), ("dim", "dim")] {
        for (family, field) in [
            ("qppt_cache_hits_total", "hits"),
            ("qppt_cache_misses_total", "misses"),
            ("qppt_cache_invalidations_total", "invalidations"),
            ("qppt_cache_evictions_total", "evictions"),
            ("qppt_cache_expirations_total", "expirations"),
            ("qppt_cache_entries", "entries"),
            ("qppt_cache_bytes", "bytes"),
        ] {
            assert_eq!(
                expo.value(family, &[("tier", tier)]),
                Some(tier_field(&stats, &format!("{prefix}_{field}"))),
                "{family}{{tier={tier}}} must equal CACHE STATS {prefix}_{field}"
            );
        }
    }
    // The sequence above demonstrably exercised the tiers.
    assert_eq!(
        expo.value("qppt_cache_hits_total", &[("tier", "result")]),
        Some(1)
    );
    assert_eq!(
        expo.value("qppt_cache_misses_total", &[("tier", "result")]),
        Some(2)
    );

    client.quit().unwrap();
    server.stop();
    pool.shutdown();
}

/// `METRICS SLOW` reads the slow-query ring over the wire — the
/// replacement for the old stderr slow log. Each entry must carry the
/// verb, the raw request line as received, the cache outcome the request
/// resolved through, and (for traced requests) the same span tree the
/// stats channel returned. Threshold 0µs puts every `RUN` in the ring,
/// result-tier hits included — a hit answers from rendered bytes and
/// carries no operator records of its own, so its outcome must come from
/// the serve path, not from reading its `# op` lines back.
#[test]
fn metrics_slow_returns_ring_entries_with_outcomes_and_spans() {
    let db = ssb_db();
    let pool = WorkerPool::new(2, 8);
    let engine = ServeEngine::over_db(db, pool.clone(), PlanOptions::default(), SF, SEED)
        .with_obs(ServeObs::new(Some(0)));
    let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = QpptClient::connect(server.addr()).unwrap();

    let ring0 = client.metrics_slow().expect("METRICS SLOW answers");
    assert!(ring0.is_empty(), "nothing served yet ⇒ empty ring");

    // A cold traced run, an untraced cache bypass, then two result-tier
    // hits: untraced and traced.
    let traced = client
        .run("q2.3", &[("trace", "on")])
        .expect("cold traced run");
    client.run("q2.3", &[("cache", "off")]).expect("bypass run");
    client.run("q2.3", &[]).expect("warm run");
    let traced_hit = client
        .run("q2.3", &[("trace", "on")])
        .expect("warm traced run");

    let ring = client.metrics_slow().expect("ring reads back");
    assert_eq!(ring.len(), 4, "threshold 0 logs every RUN");

    // Oldest first: the cold run, with its full span tree reattached.
    let cold = &ring[0];
    assert_eq!(cold.verb, "RUN");
    assert_eq!(cold.line, "RUN q2.3 trace=on", "raw request line preserved");
    assert_eq!(cold.outcome, "cache: cold");
    assert!(cold.micros >= 1);
    validate_span_tree(&cold.spans).expect("slow-entry span tree validates");
    assert_eq!(
        cold.spans, traced.stats.spans,
        "the ring carries the same spans the stats channel returned"
    );

    // The bypass run: outcome says so, and untraced means no spans.
    let bypass = &ring[1];
    assert_eq!(bypass.outcome, "bypass");
    assert_eq!(bypass.line, "RUN q2.3 cache=off");
    assert!(bypass.spans.is_empty(), "untraced ⇒ no spans");

    // The hits: outcome from the serve path, spans only when traced.
    let hit = &ring[2];
    assert_eq!(hit.outcome, "cache: result hit");
    assert_eq!(hit.line, "RUN q2.3");
    assert!(hit.spans.is_empty(), "untraced ⇒ no spans");
    let traced_hit_entry = &ring[3];
    assert_eq!(traced_hit_entry.outcome, "cache: result hit");
    assert_eq!(traced_hit_entry.line, "RUN q2.3 trace=on");
    validate_span_tree(&traced_hit_entry.spans).expect("hit span tree validates");
    assert!(
        traced_hit_entry
            .spans
            .iter()
            .any(|s| s.name == "result_cache"),
        "a traced hit carries its result_cache span: {:?}",
        traced_hit_entry.spans
    );
    assert_eq!(traced_hit_entry.spans, traced_hit.stats.spans);

    // Reading the ring does not consume it (and is never itself slow —
    // METRICS is outside the RUN/QUERY slow path).
    let again = client.metrics_slow().expect("second read");
    assert_eq!(again, ring, "snapshot reads are idempotent");

    client.quit().unwrap();
    server.stop();
    pool.shutdown();
}

#[test]
fn traced_requests_return_valid_span_trees_and_identical_bytes() {
    let db = ssb_db();
    let pool = WorkerPool::new(2, 8);
    let engine = ServeEngine::over_db(db, pool.clone(), PlanOptions::default(), SF, SEED)
        .with_obs(ServeObs::new(None));
    let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = QpptClient::connect(server.addr()).unwrap();

    let untraced = client.run("q3.2", &[("cache", "off")]).expect("untraced");
    assert!(untraced.stats.spans.is_empty(), "no trace ⇒ no spans");

    // Cold traced run (fresh fingerprint via cache=off bypasses tiers —
    // use a *cached* cold run instead so plan/σ/exec/decode all appear).
    let cold = client.run("q3.2", &[("trace", "on")]).expect("cold traced");
    assert_eq!(
        cold.result, untraced.result,
        "tracing must not change bytes"
    );
    assert_pipeline_spans(&cold.stats.spans, "cold cached");

    // Warm traced run: served from the result tier.
    let warm = client.run("q3.2", &[("trace", "on")]).expect("warm traced");
    assert_eq!(warm.result, untraced.result);
    validate_span_tree(&warm.stats.spans).expect("warm span tree validates");
    assert!(
        warm.stats.spans.iter().any(|s| s.name == "result_cache"),
        "warm trace must mark the result-tier hit"
    );

    // Traced bypass run: the same pipeline, so the same four phases.
    let bypass = client
        .run("q3.2", &[("cache", "off"), ("trace", "12345")])
        .expect("traced bypass");
    assert_eq!(bypass.result, untraced.result);
    assert_pipeline_spans(&bypass.stats.spans, "cache=off");

    // Partial mode carries them too (the shard side of a routed trace),
    // cached — a miss: the partial entry is keyed apart from the full one
    // warmed above — and bypassing alike.
    let partial = client
        .run_partial("q3.2", &[("trace", "on")])
        .expect("traced partial");
    assert_pipeline_spans(&partial.stats.spans, "partial");
    let partial_bypass = client
        .run_partial("q3.2", &[("cache", "off"), ("trace", "on")])
        .expect("traced partial bypass");
    assert_pipeline_spans(&partial_bypass.stats.spans, "partial cache=off");
    assert_eq!(partial_bypass.partial, partial.partial);
    // A partial repeat is a result-tier hit of its own.
    let partial_hit = client
        .run_partial("q3.2", &[("trace", "on")])
        .expect("traced partial hit");
    validate_span_tree(&partial_hit.stats.spans).expect("partial hit span tree validates");
    assert!(
        partial_hit
            .stats
            .spans
            .iter()
            .any(|s| s.name == "result_cache"),
        "a partial repeat must mark the result-tier hit"
    );
    assert_eq!(partial_hit.partial, partial.partial);

    // mem= rides on every # op line (satellite: memory_bytes was dropped).
    assert!(
        cold.stats.op_lines.iter().all(|l| l.contains("mem=")),
        "every op line must carry mem=: {:?}",
        cold.stats.op_lines
    );

    client.quit().unwrap();
    server.stop();
    pool.shutdown();
}

/// One pipeline, one stats shape: a `cache=off` run reports exactly the
/// operators a cold cached run does — same labels, cardinalities and index
/// kinds, in the same order — minus the `cache:` bookkeeping lines.
#[test]
fn bypass_and_cold_runs_report_the_same_operators() {
    let db = ssb_db();
    let pool = WorkerPool::new(2, 8);
    let engine = ServeEngine::over_db(db, pool.clone(), PlanOptions::default(), SF, SEED);
    let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = QpptClient::connect(server.addr()).unwrap();
    let non_cache = |lines: &[String]| -> Vec<(String, Vec<String>)> {
        lines
            .iter()
            .filter(|l| !l.contains("index=cache"))
            .map(|l| op_shape(l))
            .collect()
    };
    for q in queries::all_queries() {
        let name = q.id.to_ascii_lowercase();
        for parallelism in ["1", "2"] {
            client.cache_clear().expect("CACHE CLEAR");
            let bypass = client
                .run(&name, &[("cache", "off"), ("parallelism", parallelism)])
                .expect("bypass run");
            let cold = client
                .run(&name, &[("parallelism", parallelism)])
                .expect("cold run");
            assert_eq!(bypass.result, cold.result, "{name}");
            assert!(
                bypass
                    .stats
                    .op_lines
                    .iter()
                    .all(|l| !l.contains("index=cache")),
                "{name}: cache=off reports no cache ops"
            );
            assert!(
                cold.stats
                    .op_lines
                    .iter()
                    .any(|l| l.starts_with("cache: cold")),
                "{name}: cold run names its tier"
            );
            assert_eq!(
                non_cache(&bypass.stats.op_lines),
                non_cache(&cold.stats.op_lines),
                "{name} @ parallelism={parallelism}"
            );
        }
    }
    client.quit().unwrap();
    server.stop();
    pool.shutdown();
}

#[test]
fn no_obs_serves_queries_but_rejects_metrics() {
    let db = ssb_db();
    let pool = WorkerPool::new(2, 8);
    // No with_obs: the --no-obs configuration.
    let engine = ServeEngine::over_db(db, pool.clone(), PlanOptions::default(), SF, SEED);
    let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = QpptClient::connect(server.addr()).unwrap();

    match client.metrics() {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("--no-obs"), "got: {msg}");
        }
        other => panic!("METRICS without obs must ERR, got {other:?}"),
    }
    match client.metrics_slow() {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("--no-obs"), "got: {msg}");
        }
        other => panic!("METRICS SLOW without obs must ERR, got {other:?}"),
    }
    // The connection (and tracing, which is request-scoped) still works.
    let served = client
        .run("q1.1", &[("trace", "on")])
        .expect("query serves");
    validate_span_tree(&served.stats.spans).expect("trace works without obs");

    // INFO reports uptime and build unconditionally.
    let info = client.info().expect("INFO answers");
    let uptime = info
        .iter()
        .find(|(k, _)| k == "uptime_secs")
        .expect("uptime_secs present");
    let _secs: u64 = uptime.1.parse().expect("uptime parses");
    let build = info
        .iter()
        .find(|(k, _)| k == "build")
        .expect("build present");
    assert_eq!(build.1, env!("CARGO_PKG_VERSION"));

    client.quit().unwrap();
    server.stop();
    pool.shutdown();
}
