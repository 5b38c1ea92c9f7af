//! The closed-loop load generator: `clients()` connections, each sending
//! its next request only after the previous response was parsed to its
//! last byte. Also the byte-verification of answers against the
//! sequential oracle, which runs outside the timed window.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qppt_core::{PlanOptions, QpptEngine};
use qppt_server::protocol::{parse_request, read_run_body, read_status, ClientError, Request};
use qppt_storage::{Database, QueryResult, QuerySpec, Value};

use crate::trace::{Recorder, REQUEST};
use crate::workloads::{RequestStream, Rng};

/// One protocol connection that sends raw request lines.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl LineClient {
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // A hung server must fail the request, not the benchmark's time cap.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Sends `line` (plus `extra`, e.g. ` trace=<id>`) and parses the whole
    /// `RUN`/`QUERY` response.
    pub fn call_with(&mut self, line: &str, extra: &str) -> Result<QueryResult, ClientError> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.extend_from_slice(extra.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        let status = read_status(&mut self.reader)?;
        let rows = status
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status: {status}")))?;
        Ok(read_run_body(&mut self.reader, rows)?.0)
    }

    pub fn call(&mut self, line: &str) -> Result<QueryResult, ClientError> {
        self.call_with(line, "")
    }
}

/// A never-zero digest of a decoded result — what the timed loop keeps
/// per distinct request instead of the rows.
pub fn result_hash(r: &QueryResult) -> u64 {
    let mut h = qppt_core::Fnv64::new();
    for c in r.group_cols.iter().chain(&r.agg_cols) {
        h.write_str(c);
    }
    for row in &r.rows {
        for v in &row.key_values {
            match v {
                Value::Int(i) => h.write_u64(*i as u64),
                Value::Str(s) => h.write_str(s),
            };
        }
        for a in &row.agg_values {
            h.write_u64(*a as u64);
        }
        h.write_bytes(b"\n");
    }
    // write_str is length-prefixed, so values cannot run together.
    h.finish() | 1
}

/// First-seen answer digest per distinct request text; a later answer to
/// the same text that differs is a failed operation on the spot.
pub struct Answers(Vec<AtomicU64>);

impl Answers {
    pub fn new(distinct: usize) -> Self {
        Self((0..distinct).map(|_| AtomicU64::new(0)).collect())
    }

    /// `false` when `id` was answered differently before.
    fn agree(&self, id: u32, hash: u64) -> bool {
        match self.0[id as usize].compare_exchange(0, hash, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => true,
            Err(seen) => seen == hash,
        }
    }

    fn get(&self, id: usize) -> u64 {
        self.0[id].load(Ordering::Relaxed)
    }
}

/// What one timed window produced.
#[derive(Debug, Default)]
pub struct WindowResult {
    /// Wall time from the first send to the last response.
    pub window_s: f64,
    /// Latencies (ns) of successful untraced requests.
    pub latencies_ns: Vec<u64>,
    /// Latencies (ns) of successful traced requests (traced run only).
    pub traced_latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Where traced requests go: in the traced run every other request of each
/// client takes the span-recording path, so traced and untraced latencies
/// come from the same window, cache state and request mix.
pub struct TracedPath<'a> {
    pub addr: &'a str,
    pub rec: &'a Recorder,
}

/// Runs the closed loop for `seconds` against `addr`.
pub fn run_window(
    stream: &RequestStream,
    answers: &Answers,
    addr: &str,
    traced: Option<&TracedPath<'_>>,
    clients: usize,
    seconds: f64,
) -> WindowResult {
    let next = AtomicUsize::new(0);
    let connect = |a: &str| LineClient::connect(a).expect("client connects to the deployment");
    let mut conns: Vec<(LineClient, Option<LineClient>)> = (0..clients)
        .map(|_| (connect(addr), traced.map(|t| connect(t.addr))))
        .collect();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_client: Vec<(WindowResult, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|(plain, traced_conn)| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = WindowResult::default();
                    let mut last = Instant::now();
                    while last < deadline {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let i = pos % stream.lines.len();
                        let line = &stream.lines[i];
                        // Alternate per client, not per stream position: two
                        // clients in lock-step would otherwise split into one
                        // always-traced and one never-traced connection.
                        let via_trace = traced_conn.is_some() && out.attempted % 2 == 1;
                        out.attempted += 1;
                        let sent = Instant::now();
                        let answer = if via_trace {
                            let rec = traced.expect("traced path configured").rec;
                            // Ids below 2 would read as trace=on/off.
                            let id = pos as u64 + 1000;
                            let start = rec.now();
                            let answer = traced_conn
                                .as_mut()
                                .expect("traced connection open")
                                .call_with(line, &format!(" trace={id}"));
                            rec.record(id, REQUEST, None, start, rec.now());
                            answer
                        } else {
                            plain.call(line)
                        };
                        last = Instant::now();
                        match answer {
                            Ok(result) if answers.agree(stream.ids[i], result_hash(&result)) => {
                                let ns = (last - sent).as_nanos() as u64;
                                if via_trace {
                                    out.traced_latencies_ns.push(ns);
                                } else {
                                    out.latencies_ns.push(ns);
                                }
                            }
                            _ => out.failed += 1,
                        }
                    }
                    (out, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut total = WindowResult::default();
    let mut end = t0;
    for (r, last) in per_client {
        total.latencies_ns.extend(r.latencies_ns);
        total.traced_latencies_ns.extend(r.traced_latencies_ns);
        total.attempted += r.attempted;
        total.failed += r.failed;
        end = end.max(last);
    }
    total.window_s = (end - t0).as_secs_f64();
    total
}

/// The spec and the option overrides a request line carries (`RUN <alias>
/// …` or `QUERY <text> …`).
pub fn request_of(line: &str) -> (QuerySpec, Vec<(String, String)>) {
    match parse_request(line).expect("generated line parses") {
        Request::Run { query, options } => {
            let spec = qppt_ssb::queries::all_queries()
                .into_iter()
                .find(|q| q.id.eq_ignore_ascii_case(&query))
                .expect("generated alias is an SSB query");
            (spec, options)
        }
        Request::Query { spec, options } => (*spec, options),
        other => panic!("generated line is not a query: {other:?}"),
    }
}

/// At most this many answered texts are re-run on the oracle (beyond one
/// per query shape); the rest were still checked for self-consistency.
const VERIFY_SAMPLE: usize = 64;

/// Compares answered requests with sequential `QpptEngine::run` on
/// `oracle_db`: every distinct text when there are few, otherwise one per
/// query shape plus a seeded sample. Returns the number of mismatches.
pub fn verify(stream: &RequestStream, answers: &Answers, oracle_db: &Database, seed: u64) -> u64 {
    let lines = stream.distinct_lines();
    let answered: Vec<usize> = (0..lines.len()).filter(|&i| answers.get(i) != 0).collect();
    let mut chosen: Vec<usize> = Vec::new();
    if answered.len() <= VERIFY_SAMPLE {
        chosen = answered;
    } else {
        let mut shapes_seen: Vec<String> = Vec::new();
        for &i in &answered {
            let id = request_of(lines[i]).0.id;
            if !shapes_seen.contains(&id) {
                shapes_seen.push(id);
                chosen.push(i);
            }
        }
        let mut rng = Rng::new(seed ^ 0x7665_7269_6679);
        while chosen.len() < shapes_seen.len() + VERIFY_SAMPLE {
            let pick = answered[rng.below(answered.len())];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
    }
    let oracle = QpptEngine::new(oracle_db);
    let opts = PlanOptions::default();
    let mut mismatches = 0;
    for &i in &chosen {
        let expected = oracle
            .run(&request_of(lines[i]).0, &opts)
            .expect("oracle runs every generated query");
        if result_hash(&expected) != answers.get(i) {
            eprintln!("MISMATCH against the sequential oracle: {}", lines[i]);
            mismatches += 1;
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_storage::ResultRow;

    fn result(rows: &[(&str, i64)]) -> QueryResult {
        QueryResult {
            group_cols: vec!["g".into()],
            agg_cols: vec!["a".into()],
            rows: rows
                .iter()
                .map(|(k, a)| ResultRow {
                    key_values: vec![Value::str(k)],
                    agg_values: vec![*a],
                })
                .collect(),
        }
    }

    #[test]
    fn result_hash_sees_every_byte() {
        let base = result_hash(&result(&[("x", 1), ("y", 2)]));
        assert_ne!(base, 0);
        assert_eq!(base, result_hash(&result(&[("x", 1), ("y", 2)])));
        assert_ne!(base, result_hash(&result(&[("x", 1), ("y", 3)])));
        assert_ne!(base, result_hash(&result(&[("y", 2), ("x", 1)])));
        assert_ne!(base, result_hash(&result(&[("x", 1)])));
        assert_ne!(result_hash(&result(&[])), 0);
    }

    #[test]
    fn answers_flag_a_changed_answer() {
        let a = Answers::new(2);
        assert!(a.agree(0, 11));
        assert!(a.agree(0, 11));
        assert!(!a.agree(0, 13));
        assert!(a.agree(1, 13));
        assert_eq!(a.get(0), 11);
    }
}
