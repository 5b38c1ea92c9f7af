//! The serving contract, end to end over real TCP:
//!
//! * ≥ 8 concurrent client connections against one `ServeEngine` / shared
//!   pool, every response **byte-identical** to the sequential engine;
//! * total worker threads bounded by the pool size, not queries ×
//!   parallelism;
//! * protocol behavior (LIST/EXPLAIN/INFO/errors) and graceful shutdown.

use std::sync::Arc;
use std::time::Duration;

use qppt_core::{PlanOptions, QpptEngine};
use qppt_par::WorkerPool;
use qppt_server::{serve, ClientError, QpptClient, ServeEngine};
use qppt_ssb::queries;

const POOL_THREADS: usize = 3;

fn started_server() -> (Arc<ServeEngine>, Arc<WorkerPool>, qppt_server::ServerHandle) {
    let pool = WorkerPool::new(POOL_THREADS, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let engine =
        Arc::new(ServeEngine::with_ssb(0.01, 42, pool.clone(), defaults).expect("SSB prepares"));
    let server = serve(engine.clone(), "127.0.0.1:0").expect("bind loopback");
    (engine, pool, server)
}

#[test]
fn eight_concurrent_connections_byte_identical_thread_bounded() {
    let (engine, pool, server) = started_server();
    let addr = server.addr();

    // Sequential oracle over the very same database.
    let db = engine.pooled().db().clone();
    let oracle = QpptEngine::new(&db);
    let base = PlanOptions::default();
    let all = queries::all_queries();
    let expected: Vec<_> = all
        .iter()
        .map(|q| oracle.run(q, &base).expect("oracle runs"))
        .collect();

    // 10 concurrent connections, each running several queries at mixed
    // parallelism/priority. 10 clients × parallelism 4 would be 40 threads
    // under spawn-per-query; the shared pool must stay at POOL_THREADS.
    std::thread::scope(|s| {
        for c in 0..10usize {
            let all = &all;
            let expected = &expected;
            s.spawn(move || {
                let mut client = QpptClient::connect(addr).expect("connect");
                for (qi, q) in all.iter().enumerate() {
                    let par = ["1", "2", "4"][(c + qi) % 3];
                    let prio = ["-1", "0", "2"][qi % 3];
                    let served = client
                        .run(
                            &q.id.to_ascii_lowercase(),
                            &[("parallelism", par), ("priority", prio)],
                        )
                        .unwrap_or_else(|e| panic!("{} via client {c}: {e}", q.id));
                    // Byte-identical: same labels, same rows in the same
                    // order, same aggregate values.
                    assert_eq!(
                        served.result, expected[qi],
                        "{} via client {c} (parallelism {par})",
                        q.id
                    );
                }
                client.quit().expect("clean quit");
            });
        }
    });

    // The whole barrage ran 130 queries; the pool never grew.
    assert_eq!(pool.threads_created(), POOL_THREADS);

    server.stop();
    pool.shutdown();
}

#[test]
fn protocol_surface_and_errors() {
    let (engine, pool, server) = started_server();
    let mut client = QpptClient::connect(server.addr()).expect("connect");

    client.ping().expect("ping");

    let info = client.info().expect("info");
    let get = |k: &str| {
        info.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(get("sf"), Some("0.01"));
    assert_eq!(get("seed"), Some("42"));
    assert_eq!(get("pool_threads"), Some(POOL_THREADS.to_string().as_str()));
    assert_eq!(get("queries"), Some("13"));

    let names = client.list().expect("list");
    assert_eq!(names.len(), 13);
    assert!(names.contains(&"q2.3".to_string()));
    assert!(names.contains(&"q4.3".to_string()));

    let plan = client.explain("q2.3").expect("explain");
    assert!(plan.contains("QPPT plan for Q2.3"), "got plan: {plan}");
    assert!(plan.contains("star join"), "got plan: {plan}");

    // Errors keep the connection usable.
    match client.run("q9.9", &[]) {
        Err(ClientError::Server(m)) => assert!(m.contains("unknown query"), "{m}"),
        other => panic!("want server error, got {other:?}"),
    }
    match client.run("q1.1", &[("prefer_kiss", "false")]) {
        Err(ClientError::Server(m)) => assert!(m.contains("unknown option"), "{m}"),
        other => panic!("want server error, got {other:?}"),
    }
    match client.run("q1.1", &[("morsel_bits", "99")]) {
        Err(ClientError::Server(_)) => {}
        other => panic!("want server error, got {other:?}"),
    }
    let served = client.run("q1.1", &[]).expect("still serving after errors");
    let oracle = QpptEngine::new(engine.pooled().db())
        .run(&queries::q1_1(), &PlanOptions::default())
        .unwrap();
    assert_eq!(served.result, oracle);

    // `workers=` is the engine's own participant bound — the connection
    // thread works its morsel job beside the pool — for every parallelism,
    // on the served cold path and on a result-tier hit alike.
    for (par, want) in [
        (1, 1),
        (2, 2),
        (3, 3),
        (4, POOL_THREADS + 1),
        (9, POOL_THREADS + 1),
    ] {
        assert_eq!(engine.pooled().pipeline_participants(par), want);
        for _ in 0..2 {
            let served = client
                .run("q1.1", &[("parallelism", &par.to_string())])
                .expect("runs");
            assert_eq!(served.stats.workers, want, "parallelism={par}");
        }
    }

    // A request split across TCP segments slower than the server's poll
    // tick must still parse as one line (read_line accumulates across
    // read-timeout retries).
    {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("raw connect");
        stream.write_all(b"RUN q1.1").expect("first fragment");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(120)); // > POLL_TICK
        stream
            .write_all(b" parallelism=2\n")
            .expect("second fragment");
        stream.flush().unwrap();
        let mut r = BufReader::new(stream);
        let mut status = String::new();
        r.read_line(&mut status).expect("status line");
        assert!(
            status.starts_with("OK "),
            "split request mis-parsed: {status}"
        );
    }

    server.stop();
    pool.shutdown();
}

#[test]
fn shutdown_command_drains_gracefully() {
    // An explicit (low) poll tick: idle connections must notice the drain
    // within one tick, so shutdown latency is bounded by ticks, not
    // seconds.
    let pool = WorkerPool::new(POOL_THREADS, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let engine =
        Arc::new(ServeEngine::with_ssb(0.01, 42, pool.clone(), defaults).expect("SSB prepares"));
    let config = qppt_server::ServerConfig {
        poll_tick: Duration::from_millis(5),
        ..Default::default()
    };
    let server = qppt_server::serve_with(engine, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.addr();

    // An idle second connection must not hang the drain.
    let idle = QpptClient::connect(addr).expect("connect idle");

    let mut client = QpptClient::connect(addr).expect("connect");
    client.run("q3.2", &[("parallelism", "2")]).expect("runs");
    client.shutdown().expect("shutdown acknowledged");

    assert!(server.is_shutting_down());
    // join() returns only after the acceptor and every connection thread
    // (including the idle one) exited — within a few poll ticks, not
    // seconds (generous bound for loaded CI boxes).
    let t0 = std::time::Instant::now();
    server.join();
    let drain = t0.elapsed();
    assert!(
        drain < Duration::from_millis(1500),
        "drain took {drain:?} with a 5 ms poll tick"
    );
    drop(idle);

    // New connections are refused once the listener is gone.
    assert!(QpptClient::connect_retry(&addr.to_string(), Duration::from_millis(300)).is_err());
    pool.shutdown();
}
