//! The TCP frontend: a `std::net` acceptor with one thread per connection,
//! feeding every query into the shared [`ServeEngine`] pool.
//!
//! The frontend is split in two layers:
//!
//! * [`serve_lines`] — the protocol-agnostic line loop: accept, read
//!   length-capped `\n`-terminated request lines, hand each to a
//!   [`LineService`], flush, repeat. `qppt-router` reuses this layer
//!   verbatim, which is how the router inherits the exact drain-and-`ERR`
//!   robustness behavior of the shard servers.
//! * [`serve`] / [`serve_with`] — the qppt-server dispatch
//!   ([`LineService`] over a [`ServeEngine`]): the RUN/QUERY/EXPLAIN/…
//!   verb handling.
//!
//! Threading model: the acceptor thread plus one thread per live
//! connection. A connection thread parses a request, works its query's
//! jobs itself and serializes the answer; the workers of the engine's
//! fixed [`WorkerPool`](qppt_par::WorkerPool) join a parallel job into the
//! cores the pool's budget leaves free, so the pool's grant and priority
//! decide who gets the spare CPU, and total *worker* threads stay bounded
//! by the pool size however many clients connect.
//!
//! Robustness: request lines are read incrementally with a hard length cap
//! ([`ServerConfig::max_line_bytes`]) — an oversized or non-UTF-8 line
//! produces an `ERR` response and the connection keeps serving; it is
//! never a reason to kill the connection, let alone the server. The
//! acceptor itself is equally paranoid: a failed `thread::spawn` (fd or
//! thread pressure) rejects that one connection and keeps accepting, and a
//! poisoned connection-list lock is recovered rather than propagated —
//! nothing a single connection does can take the acceptor down.
//!
//! Shutdown semantics (`SHUTDOWN` command or [`ServerHandle::shutdown`]):
//! the acceptor stops taking connections, every connection handler notices
//! within one poll tick ([`ServerConfig::poll_tick`]) and closes after
//! finishing its in-flight request, and [`ServerHandle::join`] returns
//! once all of them exited. The worker pool itself is owned by the caller
//! and outlives the server (so several servers — or in-process work — can
//! share one pool).

use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use qppt_storage::QuerySpec;

use crate::engine::{render_cache_stats, Answer, Finished, ServeEngine, ServeError};
use crate::obs::{elapsed_micros, finish_trace, make_trace};
use crate::protocol::{
    apply_overrides, parse_request, write_op_lines, write_partial_response, write_run_response,
    write_slow_response, write_span_lines, write_total_line, CacheCmd, Request,
};

/// Tunables of the TCP frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// How often blocked accept/read loops re-check the shutdown flag —
    /// the upper bound each idle connection adds to drain latency.
    pub poll_tick: Duration,
    /// Hard cap on one request line; longer lines are drained and answered
    /// with `ERR` instead of buffering without bound.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            poll_tick: Duration::from_millis(10),
            max_line_bytes: 64 * 1024,
        }
    }
}

/// A running server instance.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown (idempotent; also triggered by a
    /// client `SHUTDOWN`).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the acceptor and every connection thread exited.
    pub fn join(mut self) {
        if let Some(t) = self.acceptor.take() {
            t.join().expect("acceptor does not panic");
        }
    }

    /// [`shutdown`](Self::shutdown) + [`join`](Self::join).
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

/// How the connection loop proceeds after a [`LineService`] handled one
/// request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Keep reading request lines on this connection.
    Continue,
    /// Close this connection (e.g. `QUIT`); others are unaffected.
    Close,
    /// Stop the whole server after acknowledging (e.g. `SHUTDOWN`).
    Shutdown,
}

/// One request line in, one response out — the protocol-agnostic contract
/// between the accept/line loop and a dispatcher. `qppt-server` implements
/// it over a [`ServeEngine`]; `qppt-router` implements it over a shard
/// fleet and thereby inherits this frontend's drain-and-`ERR` handling of
/// oversized and malformed lines unchanged.
///
/// `handle` receives one trimmed, non-empty request line and writes the
/// complete response (status line, body, `END`) to `w`; the loop flushes
/// after each call, so implementations need not. Returning `Err` closes
/// this connection only.
pub trait LineService: Send + Sync + 'static {
    fn handle(&self, line: &str, w: &mut dyn Write) -> io::Result<Reply>;
}

/// Binds `addr` and starts serving `engine` under the default
/// [`ServerConfig`]. Returns once the listener is accepting (port 0 is
/// resolved in [`ServerHandle::addr`]).
pub fn serve(engine: Arc<ServeEngine>, addr: &str) -> io::Result<ServerHandle> {
    serve_with(engine, addr, ServerConfig::default())
}

/// [`serve`] with explicit frontend tunables.
pub fn serve_with(
    engine: Arc<ServeEngine>,
    addr: &str,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_lines(Arc::new(EngineService { engine }), addr, config)
}

/// Binds `addr` and runs the shared accept + line loop over an arbitrary
/// [`LineService`]. This is the whole TCP frontend — qppt-server and
/// qppt-router differ only in the service passed here.
pub fn serve_lines(
    service: Arc<dyn LineService>,
    addr: &str,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let acceptor = thread::Builder::new()
        .name("qppt-acceptor".into())
        .spawn(move || accept_loop(listener, service, flag, config))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
    })
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<dyn LineService>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let conns: Mutex<Vec<thread::JoinHandle<()>>> = Mutex::new(Vec::new());
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let service = service.clone();
                let flag = shutdown.clone();
                let spawned = thread::Builder::new()
                    .name(format!("qppt-conn-{peer}"))
                    .spawn(move || {
                        // A connection error only kills this connection.
                        let _ = handle_connection(stream, &*service, &flag, config);
                    });
                let t = match spawned {
                    Ok(t) => t,
                    // Thread/fd pressure: reject this one connection (the
                    // dropped stream closes it) and keep accepting.
                    Err(_) => continue,
                };
                let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                conns.push(t);
                // Opportunistically reap finished handlers so a long-lived
                // server does not accumulate joinable thread handles.
                conns.retain(|t| !t.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(config.poll_tick),
            Err(_) => thread::sleep(config.poll_tick),
        }
    }
    // Graceful: wait for in-flight connections (they observe the flag
    // within one read-timeout tick). A handler that somehow panicked is
    // already gone — joining it must not take the acceptor with it.
    for t in conns
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
    {
        let _ = t.join();
    }
}

/// Writes an `EXPLAIN` response (`OK explain`, plan lines, `END`).
fn write_explain(writer: &mut impl Write, plan: &str) -> io::Result<()> {
    writeln!(writer, "OK explain")?;
    for l in plan.lines() {
        writeln!(writer, "{l}")?;
    }
    writeln!(writer, "END")
}

/// Outcome of reading one request line.
enum LineRead {
    /// A complete line (without the newline), lossily decoded.
    Line(String),
    /// The peer closed the connection.
    Closed,
    /// The server is draining; drop the (idle) connection.
    Draining,
    /// The line exceeded [`ServerConfig::max_line_bytes`]; its bytes were
    /// discarded up to and including the newline.
    TooLong,
}

/// Reads one `\n`-terminated request line incrementally: accumulates
/// across read-timeout ticks (a request split over slow TCP segments still
/// parses as one line), enforces the length cap without unbounded
/// buffering, and tolerates non-UTF-8 bytes (lossy decode — the parser
/// then rejects the verb with a plain `ERR`).
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    max_line_bytes: usize,
) -> io::Result<LineRead> {
    buf.clear();
    let mut too_long = false;
    loop {
        let (advance, complete) = {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(LineRead::Draining);
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(LineRead::Closed); // EOF
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !too_long {
                        buf.extend_from_slice(&available[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if !too_long {
                        buf.extend_from_slice(available);
                    }
                    (available.len(), false)
                }
            }
        };
        reader.consume(advance);
        if buf.len() > max_line_bytes {
            // Stop buffering; keep draining until the newline arrives.
            too_long = true;
            buf.clear();
        }
        if complete {
            return Ok(if too_long {
                LineRead::TooLong
            } else {
                LineRead::Line(String::from_utf8_lossy(buf).into_owned())
            });
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &dyn LineService,
    shutdown: &AtomicBool,
    config: ServerConfig,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.poll_tick))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &mut buf, shutdown, config.max_line_bytes)?
        {
            LineRead::Line(l) => l,
            LineRead::Closed | LineRead::Draining => return Ok(()),
            LineRead::TooLong => {
                writeln!(
                    writer,
                    "ERR request line exceeds {} bytes",
                    config.max_line_bytes
                )?;
                writer.flush()?;
                continue;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let reply = service.handle(trimmed, &mut writer)?;
        if reply == Reply::Shutdown {
            // Flag first, acknowledge second: the response is still in the
            // BufWriter, so once a client has read the OK (flushed below),
            // `is_shutting_down()` is already observable.
            shutdown.store(true, Ordering::SeqCst);
        }
        writer.flush()?;
        match reply {
            Reply::Close | Reply::Shutdown => return Ok(()),
            Reply::Continue => {}
        }
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// The qppt-server dispatcher: the full verb set over one [`ServeEngine`].
struct EngineService {
    engine: Arc<ServeEngine>,
}

impl LineService for EngineService {
    fn handle(&self, line: &str, w: &mut dyn Write) -> io::Result<Reply> {
        let started = Instant::now();
        let parsed = parse_request(line);
        let verb = parsed.as_ref().ok().map(Request::verb);
        let reply = self.dispatch(parsed, line, w)?;
        if let (Some(obs), Some(verb)) = (self.engine.obs(), verb) {
            obs.record_request(verb, elapsed_micros(started));
        }
        Ok(reply)
    }
}

impl EngineService {
    /// `RUN` and `QUERY` — named aliases and ad-hoc specs, full and
    /// `mode=partial` alike — converge here: overrides, then the engine's
    /// single plan → σ → exec → finish pipeline, then the response the
    /// finish step calls for. A cached answer of either mode is written
    /// from the entry's rendered bytes: its head, this request's total
    /// line, its hit op lines (or, on the miss that made it, the miss's
    /// own), the spans, `END`.
    fn run_query(
        &self,
        verb: &'static str,
        line: &str,
        spec: Result<&QuerySpec, ServeError>,
        options: &[(String, String)],
        mut w: &mut dyn Write,
    ) -> io::Result<()> {
        let engine = &*self.engine;
        let started = Instant::now();
        let (opts, controls) = match apply_overrides(engine.defaults(), options) {
            Err(msg) => return writeln!(w, "ERR {msg}"),
            Ok(applied) => applied,
        };
        let workers = engine.pooled().pipeline_participants(opts.parallelism);
        let mut trace = make_trace(controls.trace);
        let served = spec.and_then(|spec| engine.serve(spec, &opts, &controls, trace.as_mut()));
        let (answer, stats) = match served {
            Err(e) => return writeln!(w, "ERR {e}"),
            Ok(served) => served,
        };
        let spans = finish_trace(trace, stats.total_micros);
        match &answer {
            Answer::Hit(entry) | Answer::Cold(_, entry) => {
                w.write_all(&entry.head)?;
                write_total_line(&mut w, stats.total_micros, workers)?;
                if let Answer::Hit(_) = answer {
                    w.write_all(&entry.hit_ops)?;
                } else {
                    write_op_lines(&mut w, &stats.ops)?;
                }
                write_span_lines(&mut w, &spans)?;
                writeln!(w, "END")?;
            }
            Answer::Bypass(Finished::Rows(result)) => {
                write_run_response(&mut w, result, &stats, workers, &spans)?
            }
            Answer::Bypass(Finished::Partial(partial)) => {
                write_partial_response(&mut w, partial, &stats, workers, &spans)?
            }
        }
        if let Some(obs) = engine.obs() {
            obs.slow_log(started, verb, line, answer.outcome().label(), &spans);
        }
        Ok(())
    }

    fn dispatch(
        &self,
        parsed: Result<Request, String>,
        line: &str,
        mut w: &mut dyn Write,
    ) -> io::Result<Reply> {
        let engine = &*self.engine;
        match parsed {
            Err(msg) => writeln!(w, "ERR {msg}")?,
            Ok(Request::Ping) => writeln!(w, "OK pong")?,
            Ok(Request::Quit) => {
                writeln!(w, "OK bye")?;
                return Ok(Reply::Close);
            }
            Ok(Request::Shutdown) => {
                writeln!(w, "OK shutting down")?;
                return Ok(Reply::Shutdown);
            }
            Ok(Request::Info) => {
                let i = engine.info();
                writeln!(
                    w,
                    "OK sf={} seed={} pool_threads={} admission={} cores={} rows={} \
                     shard={}/{} replica={} queries={} uptime_secs={} build={} versions={}",
                    i.sf,
                    i.seed,
                    i.pool_threads,
                    i.admission,
                    i.cores,
                    i.rows,
                    i.shard,
                    i.shards,
                    i.replica,
                    engine.query_names().len(),
                    engine.uptime_secs(),
                    ServeEngine::build(),
                    engine.versions_field(),
                )?;
            }
            Ok(Request::Metrics) => match engine.render_metrics() {
                None => writeln!(w, "ERR metrics disabled (--no-obs)")?,
                Some(text) => {
                    writeln!(w, "OK metrics")?;
                    for l in text.lines() {
                        writeln!(w, "{l}")?;
                    }
                    writeln!(w, "END")?;
                }
            },
            Ok(Request::MetricsSlow) => match engine.obs() {
                None => writeln!(w, "ERR metrics disabled (--no-obs)")?,
                Some(obs) => write_slow_response(&mut w, &obs.slow_ring().snapshot())?,
            },
            Ok(Request::Cache(CacheCmd::Stats)) => {
                writeln!(w, "OK {}", render_cache_stats(&engine.cache_stats()))?;
            }
            Ok(Request::Cache(CacheCmd::Clear)) => {
                engine.cache_clear();
                writeln!(w, "OK cleared")?;
            }
            Ok(Request::Cache(CacheCmd::ClearDims)) => {
                engine.cache_clear_dims();
                writeln!(w, "OK cleared dims")?;
            }
            Ok(Request::List) => {
                let names = engine.query_names();
                writeln!(w, "OK {}", names.len())?;
                for n in names {
                    writeln!(w, "{n}")?;
                }
                writeln!(w, "END")?;
            }
            Ok(Request::Explain { query }) => match engine.explain(&query) {
                Err(e) => writeln!(w, "ERR {e}")?,
                Ok(plan) => write_explain(&mut w, &plan)?,
            },
            Ok(Request::ExplainSpec { spec, options }) => {
                match apply_overrides(engine.defaults(), &options) {
                    Err(msg) => writeln!(w, "ERR {msg}")?,
                    Ok((opts, _controls)) => match engine.explain_spec(&spec, &opts) {
                        Err(e) => writeln!(w, "ERR {e}")?,
                        Ok(plan) => write_explain(&mut w, &plan)?,
                    },
                }
            }
            Ok(Request::Run { query, options }) => {
                self.run_query("RUN", line, engine.resolve(&query), &options, w)?
            }
            Ok(Request::Query { spec, options }) => {
                self.run_query("QUERY", line, Ok(&spec), &options, w)?
            }
        }
        Ok(Reply::Continue)
    }
}
