//! Protocol robustness: malformed `RUN` lines, unknown verbs/options,
//! non-UTF-8 junk, oversized and split lines, and the `CACHE` commands all
//! produce `ERR`/`OK` responses without killing the connection — the
//! connection must keep serving correct results afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use qppt_core::{PlanOptions, QpptEngine};
use qppt_par::WorkerPool;
use qppt_server::{serve_with, QpptClient, ServeEngine, ServerConfig};
use qppt_ssb::queries;

const MAX_LINE: usize = 1024;

fn started_server() -> (Arc<ServeEngine>, Arc<WorkerPool>, qppt_server::ServerHandle) {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default().with_parallelism(2);
    let engine =
        Arc::new(ServeEngine::with_ssb(0.01, 42, pool.clone(), defaults).expect("SSB prepares"));
    let config = ServerConfig {
        poll_tick: Duration::from_millis(5),
        max_line_bytes: MAX_LINE,
    };
    let server = serve_with(engine.clone(), "127.0.0.1:0", config).expect("bind loopback");
    (engine, pool, server)
}

fn read_line(r: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    r.read_line(&mut line).expect("response line");
    line.trim_end().to_string()
}

#[test]
fn garbage_requests_error_but_connection_survives() {
    let (engine, pool, server) = started_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let cases: &[&[u8]] = &[
        b"FLY q1.1\n",                  // unknown verb
        b"RUN\n",                       // missing query name
        b"RUN q1.1 nonsense\n",         // malformed option
        b"RUN q1.1 parallelism=zero\n", // bad option value
        b"RUN q1.1 morsel_bits=99\n",   // validated, not just parsed
        b"RUN q1.1 batch_rows=0\n",     // removed option: unknown
        b"RUN q1.1 batch_rows=lots\n",  // removed option: unknown
        b"RUN q1.1 batch_exec=maybe\n", // removed option: unknown
        // Buffer sizes are bounded: these two used to abort the process
        // (a 56 TiB allocation) and panic a worker (capacity overflow).
        b"RUN q3.1 join_buffer=1099511627776\n",
        b"RUN q3.1 join_buffer=4611686018427387904\n",
        b"RUN q3.1 batch_exec=on batch_rows=1099511627776\n", // removed options
        b"RUN q9.9\n",                // unknown query
        b"RUN q1.1 cache=maybe\n",      // bad cache value
        b"CACHE\n",                     // missing subcommand
        b"CACHE FLUSH\n",               // unknown subcommand
        b"CACHE STATS extra\n",         // trailing token
        b"EXPLAIN q1.1 extra\n",        // trailing token
        b"\xff\xfe\xfd garbage\x80\n",  // non-UTF-8 junk
        // The QUERY verb: grammar, catalog, and encoding failures are all
        // one ERR line, never a dropped connection.
        b"QUERY\n",                                    // missing query text
        b"QUERY fact=lineorder agg=nope\n",            // malformed grammar
        b"QUERY fact=lineorder dim=date[oops\n",       // unbalanced bracket
        b"QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_year='x\n", // unterminated quote
        b"QUERY fact=nosuch dim=date[join=d_datekey:lo_orderdate] agg=sum(lo_revenue):r\n", // unknown table
        b"QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_frob=1] agg=sum(lo_revenue):r\n", // unknown column
        b"QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate] agg=sum(lo_revenue):r parallelism=zero\n", // bad option
        // Option *values* are validated before any planning happens —
        // structured ERR, not a panic mid-plan or a dropped connection.
        b"QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate] agg=sum(lo_revenue):r parallelism=0\n",
        b"QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate] agg=sum(lo_revenue):r morsel_bits=99\n",
        b"QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate] agg=sum(lo_revenue):r batch_rows=0\n",
        b"QUERY fact=\xff\xfe dim=d[join=k:fk] agg=sum(a):x\n", // non-UTF-8 body
    ];
    for case in cases {
        stream.write_all(case).expect("send");
        stream.flush().unwrap();
        let resp = read_line(&mut reader);
        assert!(
            resp.starts_with("ERR "),
            "case {:?} got: {resp}",
            String::from_utf8_lossy(case)
        );
    }

    // The removed per-operator-class switches and batch knobs are ordinary
    // unknown options now — on RUN and QUERY alike, whatever the value.
    for key in [
        "par_selections",
        "par_scans",
        "par_joins",
        "batch_exec",
        "batch_rows",
    ] {
        for line in [
            format!("RUN q1.1 {key}=off\n"),
            format!("QUERY fact=lineorder agg=sum(lo_revenue):r {key}=true\n"),
        ] {
            stream.write_all(line.as_bytes()).expect("send");
            stream.flush().unwrap();
            let resp = read_line(&mut reader);
            let suggested = resp
                .strip_prefix(&format!("ERR unknown option {key} (try "))
                .unwrap_or_else(|| panic!("{line:?} got: {resp}"));
            for stale in ["par_", "batch_"] {
                assert!(!suggested.contains(stale), "stale suggestion: {resp}");
            }
        }
    }

    // Blank and whitespace-only lines are ignored, not fatal.
    stream.write_all(b"\n   \n\r\n").unwrap();
    // The connection still serves a correct result.
    stream.write_all(b"PING\n").unwrap();
    stream.flush().unwrap();
    assert_eq!(read_line(&mut reader), "OK pong");

    drop(stream);
    let mut client = QpptClient::connect(server.addr()).expect("connect");
    let served = client.run("q1.1", &[]).expect("serving still works");
    let oracle = QpptEngine::new(engine.pooled().db())
        .run(&queries::q1_1(), &PlanOptions::default())
        .unwrap();
    assert_eq!(served.result, oracle);
    // The largest admitted buffer size costs what the rows need, not what
    // the option says.
    let max = PlanOptions::MAX_BUFFER_ROWS.to_string();
    let opts = [("join_buffer", max.as_str()), ("cache", "off")];
    assert_eq!(client.run("q1.1", &opts).expect("admitted").result, oracle);

    server.stop();
    pool.shutdown();
}

#[test]
fn oversized_line_is_drained_and_rejected() {
    let (_engine, pool, server) = started_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // 8× the cap, no newline until the end — the server must not buffer it
    // all, must answer ERR once the line completes, and must keep serving.
    let big = vec![b'x'; MAX_LINE * 8];
    stream.write_all(&big).expect("send oversized");
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let resp = read_line(&mut reader);
    assert!(
        resp.starts_with("ERR ") && resp.contains("exceeds"),
        "got: {resp}"
    );

    stream.write_all(b"PING\n").unwrap();
    stream.flush().unwrap();
    assert_eq!(read_line(&mut reader), "OK pong");

    // An oversized line arriving in many small fragments across poll
    // ticks behaves the same.
    for _ in 0..20 {
        stream.write_all(&vec![b'y'; MAX_LINE / 4]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let resp = read_line(&mut reader);
    assert!(resp.starts_with("ERR "), "got: {resp}");
    stream.write_all(b"LIST\n").unwrap();
    stream.flush().unwrap();
    let resp = read_line(&mut reader);
    assert!(resp.starts_with("OK 13"), "got: {resp}");

    server.stop();
    pool.shutdown();
}

#[test]
fn oversized_query_body_is_drained_and_rejected() {
    // The satellite contract: a QUERY body past the (default 64 KiB) line
    // cap answers ERR without unbounded buffering, and the connection
    // keeps serving — including a real ad-hoc query right after.
    let pool = WorkerPool::new(2, 8);
    let engine = Arc::new(
        ServeEngine::with_ssb(0.01, 42, pool.clone(), PlanOptions::default())
            .expect("SSB prepares"),
    );
    let config = ServerConfig {
        poll_tick: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    assert_eq!(config.max_line_bytes, 64 * 1024, "default cap is 64 KiB");
    let server = serve_with(engine, "127.0.0.1:0", config).expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A syntactically plausible QUERY whose IN-list alone exceeds the cap.
    let mut big =
        String::from("QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_year in ");
    big.push_str(
        &(0..20_000)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    big.push_str("] agg=sum(lo_revenue):r\n");
    assert!(big.len() > 64 * 1024);
    stream
        .write_all(big.as_bytes())
        .expect("send oversized QUERY");
    stream.flush().unwrap();
    let resp = read_line(&mut reader);
    assert!(
        resp.starts_with("ERR ") && resp.contains("exceeds"),
        "got: {resp}"
    );

    // Still serving: an in-cap ad-hoc query answers rows.
    stream
        .write_all(
            b"QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_year=1993] \
              agg=sum(lo_extendedprice):r\n",
        )
        .unwrap();
    stream.flush().unwrap();
    let resp = read_line(&mut reader);
    assert!(resp.starts_with("OK "), "got: {resp}");
    loop {
        if read_line(&mut reader) == "END" {
            break;
        }
    }

    server.stop();
    pool.shutdown();
}

#[test]
fn split_lines_across_poll_ticks_parse_whole() {
    let (_engine, pool, server) = started_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A CACHE command split into single bytes slower than the poll tick.
    for b in b"CACHE STATS" {
        stream.write_all(&[*b]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(7));
    }
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let resp = read_line(&mut reader);
    assert!(
        resp.starts_with("OK ") && resp.contains("result_hits="),
        "got: {resp}"
    );

    server.stop();
    pool.shutdown();
}

#[test]
fn stats_line_reports_the_participants_the_engine_admits() {
    // parallelism=4 on the 2-thread pool is granted 2 cores at most (the
    // caller's and one worker's), and the wire says so.
    let (engine, pool, server) = started_server();
    assert_eq!(engine.pooled().pipeline_participants(4), 2);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"RUN q1.1 parallelism=4 cache=off\n")
        .unwrap();
    let mut stats_line = None;
    loop {
        let line = read_line(&mut reader);
        if line == "END" {
            break;
        }
        if line.starts_with("# total_micros=") {
            stats_line = Some(line);
        }
    }
    let stats_line = stats_line.expect("a stats line before END");
    assert!(stats_line.ends_with(" workers=2"), "got: {stats_line}");

    server.stop();
    pool.shutdown();
}

#[test]
fn cache_commands_roundtrip() {
    let (engine, pool, server) = started_server();
    let mut client = QpptClient::connect(server.addr()).expect("connect");

    // Cold, then warm: the stats wire format reports the hit.
    client.run("q2.3", &[]).expect("cold run");
    client.run("q2.3", &[]).expect("warm run");
    let stats = client.cache_stats().expect("cache stats");
    let get = |k: &str| {
        stats
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.parse::<u64>().unwrap())
            .unwrap_or_else(|| panic!("missing field {k} in {stats:?}"))
    };
    assert_eq!(get("result_hits"), 1);
    assert_eq!(get("result_misses"), 1);
    assert_eq!(get("result_entries"), 1);

    // cache=off bypass: neither a hit nor an insertion.
    client.run("q2.3", &[("cache", "off")]).expect("bypass run");
    let stats2 = client.cache_stats().expect("cache stats");
    assert_eq!(
        stats.iter().find(|(k, _)| k == "result_hits"),
        stats2.iter().find(|(k, _)| k == "result_hits"),
        "cache=off must not touch the result tier"
    );

    // CLEAR empties entries; counters survive.
    client.cache_clear().expect("cache clear");
    let stats3 = client.cache_stats().expect("cache stats");
    let get3 = |k: &str| {
        stats3
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.parse::<u64>().unwrap())
            .unwrap()
    };
    assert_eq!(get3("result_entries"), 0);
    assert_eq!(get3("result_hits"), 1);

    // And serving still works after a clear (cold again).
    let served = client.run("q2.3", &[]).expect("post-clear run");
    let oracle = QpptEngine::new(engine.pooled().db())
        .run(&queries::q2_3(), &PlanOptions::default())
        .unwrap();
    assert_eq!(served.result, oracle);

    server.stop();
    pool.shutdown();
}
