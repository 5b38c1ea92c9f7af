//! Failure behavior of the router, end to end over real TCP:
//!
//! * killing a single-replica range turns the next query into a
//!   structured `ERR range <i> unavailable (…)` — the router connection
//!   keeps serving, and the surviving range is unaffected;
//! * restarting the shard at the same address heals the fleet on the very
//!   next request (fresh dial after the pooled connections were dropped);
//! * a slow shard (accept-then-hang, injected via the chaos proxy) trips
//!   the read-timeout bound — the error lands within
//!   `2 × (connect_timeout + read_timeout)`, never a hang;
//! * injected garbage (`ERR` plus trailing junk) is relayed with its
//!   `shard <i> replica <j>:` origin and the poisoned connection is
//!   dropped, never re-pooled;
//! * a malformed shard counter (`CACHE STATS`, `INFO rows=`) is a relayed
//!   `shard <i> replica <j>:` error, never read as zero;
//! * `CACHE CLEAR` clears every range it can reach, and names the first
//!   range it could not;
//! * malformed and oversized request lines at the router get the same
//!   drain-and-`ERR` treatment as on a shard — never a dead connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_obs::parse_exposition;
use qppt_par::WorkerPool;
use qppt_router::{
    serve_router, ChaosMode, ChaosProxy, Router, RouterCacheConfig, RouterConfig, RouterObs,
};
use qppt_server::{serve, ClientError, QpptClient, ServeEngine};
use qppt_ssb::{queries, SsbDb};

const SF: f64 = 0.005;
const SEED: u64 = 42;

#[test]
fn shard_death_is_structured_and_restart_heals() {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    // Keep the engines so shard 1 can be restarted on the same address
    // with the same data.
    let engines: Vec<Arc<ServeEngine>> = (0..2)
        .map(|i| {
            Arc::new(
                ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, i, 2)
                    .expect("shard engine builds"),
            )
        })
        .collect();
    let shard0 = serve(engines[0].clone(), "127.0.0.1:0").expect("shard 0 binds");
    let shard1 = serve(engines[1].clone(), "127.0.0.1:0").expect("shard 1 binds");
    let shard0_addr = shard0.addr().to_string();
    let shard1_addr = shard1.addr().to_string();

    // Tight timeouts: a dead shard must fail fast, not hang the client.
    let mut config = RouterConfig::new(vec![shard0_addr.clone(), shard1_addr.clone()]);
    config.connect_timeout = Duration::from_secs(2);
    config.read_timeout = Duration::from_secs(10);
    // Cache off: a merged-tier hit would (correctly) absorb the repeated
    // q2.3 after the kill — this test is about the transport error path.
    config.cache = RouterCacheConfig::disabled();
    let router = Arc::new(Router::new(config));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shards answer PING");
    let rh = serve_router(router, "127.0.0.1:0").expect("router binds");

    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let oracle = QpptEngine::new(&ssb.db);
    let expected = oracle.run(&queries::q2_3(), &opts).expect("oracle runs");

    let mut client = QpptClient::connect(rh.addr()).expect("connect router");
    let served = client.run("q2.3", &[]).expect("baseline through 2 shards");
    assert_eq!(served.result, expected, "baseline merged answer");

    // Kill shard 1. The router still holds pooled connections to it, so
    // the next scatter exercises the stale-conn path: read fails, the
    // same-replica fresh retry dials a dead address, the replica is
    // convicted, and — the range having no sibling — the client gets the
    // structured error: bounded, never a hang, never a partial answer.
    shard1.stop();
    let t0 = Instant::now();
    match client.run("q2.3", &[]) {
        Err(ClientError::Server(msg)) => {
            assert!(
                msg.contains("range 1 unavailable"),
                "want structured range error, got: {msg}"
            );
        }
        other => panic!("want ERR range 1 unavailable, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "shard death must fail fast, took {:?}",
        t0.elapsed()
    );

    // The router connection keeps serving …
    client
        .ping()
        .expect("router connection alive after shard death");
    // … and the survivor is genuinely unaffected: direct queries to
    // shard 0 still work (its own shard-local answer).
    let mut direct = QpptClient::connect(&*shard0_addr).expect("connect shard 0");
    direct.run("q1.1", &[]).expect("survivor still serves");
    direct.quit().expect("clean quit");

    // Restart shard 1 at the same address with the same engine. The
    // listener port was just freed; a short retry absorbs the race.
    let deadline = Instant::now() + Duration::from_secs(10);
    let shard1 = loop {
        match serve(engines[1].clone(), &shard1_addr) {
            Ok(h) => break h,
            Err(e) if Instant::now() >= deadline => panic!("rebind {shard1_addr}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    };

    // The next query heals via a fresh dial — same merged bytes as before.
    let served = client.run("q2.3", &[]).expect("healed after shard restart");
    assert_eq!(served.result, expected, "merged answer after restart");

    client.quit().expect("clean quit");
    rh.stop();
    shard0.stop();
    shard1.stop();
    pool.shutdown();
}

/// Slow-shard and garbage injection through the chaos proxy: the
/// read-timeout bound actually fires (within `2 × (connect_timeout +
/// read_timeout)` even with the same-replica stale retry), relayed shard
/// `ERR`s carry their `shard <i> replica <j>:` origin, and a connection
/// that answered `ERR` with trailing junk is dropped — the next request
/// runs clean with zero retries.
#[test]
fn slow_shard_times_out_and_garbage_is_localized_not_repooled() {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let engine = Arc::new(
        ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, 0, 1)
            .expect("shard engine builds"),
    );
    let shard = serve(engine, "127.0.0.1:0").expect("shard binds");
    let proxy = ChaosProxy::start(shard.addr().to_string()).expect("proxy binds");

    let connect_timeout = Duration::from_secs(1);
    let read_timeout = Duration::from_secs(2);
    let mut config = RouterConfig::new(vec![proxy.addr()]);
    config.connect_timeout = connect_timeout;
    config.read_timeout = read_timeout;
    config.retry_backoff = Duration::from_millis(5);
    config.retry_backoff_cap = Duration::from_millis(50);
    config.probe_interval = Duration::from_millis(50);
    config.probe_backoff_cap = Duration::from_millis(200);
    // Cache off: every repeated q2.3 here must genuinely traverse the
    // chaos proxy to exercise the injected fault.
    config.cache = RouterCacheConfig::disabled();
    let router = Arc::new(Router::new(config).with_obs(RouterObs::new(1, None)));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shard answers PING through the proxy");
    let rh = serve_router(router.clone(), "127.0.0.1:0").expect("router binds");
    let metric = |name: &str| -> i64 {
        let obs = router.obs().expect("obs attached");
        parse_exposition(&obs.render())
            .expect("router exposition parses")
            .value(name, &[])
            .expect("metric present")
    };

    let mut client = QpptClient::connect(rh.addr()).expect("connect router");
    let baseline = client.run("q2.3", &[]).expect("baseline through proxy");

    // Garbage: the shard "answers" ERR plus trailing junk. The error is
    // relayed with its replica origin; the desynchronized connection must
    // be dropped, so the next request is clean without spending retries.
    proxy.set_mode(ChaosMode::Garbage(vec![
        "ERR chaos garbage".to_string(),
        "trailing junk the router must never re-pool".to_string(),
    ]));
    match client.run("q2.3", &[]) {
        Err(ClientError::Server(msg)) => {
            assert!(
                msg.contains("shard 0 replica 0:") && msg.contains("chaos garbage"),
                "want localized relayed ERR, got: {msg}"
            );
        }
        other => panic!("want relayed chaos ERR, got {other:?}"),
    }
    proxy.set_mode(ChaosMode::Pass);
    let served = client.run("q2.3", &[]).expect("clean after garbage");
    assert_eq!(served.result, baseline.result, "bytes unchanged");
    assert_eq!(
        metric("qppt_router_retries_total"),
        0,
        "a dropped (never re-pooled) conn costs no retry on the next request"
    );

    // A malformed counter is a relayed peer error, never a zero: a routed
    // `CACHE STATS` whose shard field does not parse, and an `INFO` reply
    // without a numeric `rows=`.
    proxy.set_mode(ChaosMode::Garbage(vec!["OK result_hits=x".into()]));
    for (verb, reply) in [
        ("CACHE STATS", client.cache_stats().map(drop)),
        ("INFO", client.info().map(drop)),
    ] {
        match reply {
            Err(ClientError::Server(msg)) => assert!(
                msg.starts_with("shard 0 replica 0:"),
                "{verb}: want a relayed peer error, got: {msg}"
            ),
            other => panic!("{verb}: want a relayed peer error, got {other:?}"),
        }
    }
    proxy.set_mode(ChaosMode::Pass);
    client
        .cache_stats()
        .expect("clean CACHE STATS after garbage");

    // Slow shard: accept-then-hang. The read timeout must fire — once on
    // the pooled conn, once on the same-replica fresh retry — and the
    // structured error must land within 2 × (connect + read).
    proxy.set_mode(ChaosMode::Hang);
    let t0 = Instant::now();
    match client.run("q2.3", &[]) {
        Err(ClientError::Server(msg)) => {
            assert!(
                msg.contains("range 0 unavailable"),
                "want structured range error, got: {msg}"
            );
        }
        other => panic!("want ERR range 0 unavailable, got {other:?}"),
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= read_timeout,
        "the read timeout must actually fire, error came in {elapsed:?}"
    );
    assert!(
        elapsed < 2 * (connect_timeout + read_timeout),
        "slow-shard error must be bounded, took {elapsed:?}"
    );
    assert!(metric("qppt_router_retries_total") >= 1, "retry was spent");

    // Back to passing: the suspect replica heals (organically or via the
    // prober) and serves identical bytes again.
    proxy.set_mode(ChaosMode::Pass);
    let served = client.run("q2.3", &[]).expect("healed after hang");
    assert_eq!(served.result, baseline.result, "bytes unchanged after heal");

    client.quit().expect("clean quit");
    rh.stop();
    shard.stop();
    pool.shutdown();
}

/// Two single-replica ranges, range 0 behind a killed proxy: a routed
/// `CACHE CLEAR` still clears range 1, and answers with range 0's outage.
#[test]
fn cache_clear_reaches_every_range_it_can() {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default().with_parallelism(2);
    let shards: Vec<_> = (0..2)
        .map(|i| {
            let engine = ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, i, 2)
                .expect("shard engine builds");
            serve(Arc::new(engine), "127.0.0.1:0").expect("shard binds")
        })
        .collect();
    let proxy = ChaosProxy::start(shards[0].addr().to_string()).expect("proxy binds");
    let mut config = RouterConfig::new(vec![proxy.addr(), shards[1].addr().to_string()]);
    config.connect_timeout = Duration::from_secs(1);
    config.retry_backoff = Duration::from_millis(1);
    config.retry_backoff_cap = Duration::from_millis(10);
    let router = Arc::new(Router::new(config));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shards answer PING");
    let rh = serve_router(router, "127.0.0.1:0").expect("router binds");
    let mut client = QpptClient::connect(rh.addr()).expect("connect router");
    let mut shard1 = QpptClient::connect(shards[1].addr()).expect("connect shard 1");
    let entries = |c: &mut QpptClient| -> (String, String) {
        let stats = c.cache_stats().expect("shard CACHE STATS");
        let get = |k: &str| {
            stats
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .expect("field present")
        };
        (get("result_entries"), get("dim_entries"))
    };

    // Warm range 1 through the router.
    client.run("q2.3", &[]).expect("warm run");
    let (results, dims) = entries(&mut shard1);
    assert!(results != "0" && dims != "0", "range 1 is warm");

    proxy.kill();
    match client.cache_clear() {
        Err(ClientError::Server(msg)) => assert!(
            msg.starts_with("range 0 unavailable ("),
            "want range 0's outage, got: {msg}"
        ),
        other => panic!("want ERR range 0 unavailable, got {other:?}"),
    }
    assert_eq!(
        entries(&mut shard1),
        ("0".to_string(), "0".to_string()),
        "range 1 was cleared although range 0 was down"
    );

    client.quit().expect("clean quit");
    shard1.quit().expect("clean quit");
    rh.stop();
    for h in shards {
        h.stop();
    }
    pool.shutdown();
}

#[test]
fn malformed_and_oversized_lines_get_drain_and_err() {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let engine = Arc::new(
        ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, 0, 1)
            .expect("shard engine builds"),
    );
    let shard = serve(engine, "127.0.0.1:0").expect("shard binds");
    let router = Arc::new(Router::new(RouterConfig::new(vec![shard
        .addr()
        .to_string()])));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shard answers PING");
    let rh = serve_router(router, "127.0.0.1:0").expect("router binds");

    let stream = TcpStream::connect(rh.addr()).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    let mut ask = |w: &mut TcpStream, r: &mut BufReader<TcpStream>, req: &[u8]| -> String {
        w.write_all(req).expect("send");
        w.flush().expect("flush");
        line.clear();
        r.read_line(&mut line).expect("response line");
        line.trim_end().to_string()
    };

    // Unknown verb: structured ERR, connection keeps serving.
    let resp = ask(&mut writer, &mut reader, b"FROBNICATE now\n");
    assert!(resp.starts_with("ERR unknown verb"), "got: {resp}");

    // Client-supplied mode is rejected at the router (it owns the partial
    // protocol with its shards).
    let resp = ask(&mut writer, &mut reader, b"RUN q1.1 mode=partial\n");
    assert!(
        resp.starts_with("ERR") && resp.contains("mode"),
        "got: {resp}"
    );

    // Unknown query name is resolved locally — same message as a shard's.
    let resp = ask(&mut writer, &mut reader, b"RUN q9.9\n");
    assert!(resp.contains("unknown query q9.9"), "got: {resp}");

    // An oversized line (> 64 KiB default cap) is drained and answered
    // with ERR, not buffered without bound and not a dead connection.
    let mut big = vec![b'a'; 80 * 1024];
    big.push(b'\n');
    let resp = ask(&mut writer, &mut reader, &big);
    assert!(resp.starts_with("ERR request line exceeds"), "got: {resp}");

    // Still alive, still correct.
    let resp = ask(&mut writer, &mut reader, b"PING\n");
    assert_eq!(resp, "OK pong");

    rh.stop();
    shard.stop();
    pool.shutdown();
}
