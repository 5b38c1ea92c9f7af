//! Outside-in tracing: spans recorded from the benchmark's own files
//! around the calls into each layer, kept in memory, written as JSONL when
//! the workload ends.
//!
//! One request = one `trace_id`. The client records `request` around the
//! TCP round trip; the servers run behind this file's [`LineService`]
//! wrappers, which record `*.handle` and — for `RUN`/`QUERY` on a server or
//! shard — `*.parse` → `*.engine` → `*.serialize` around the public
//! `protocol` / `ServeEngine` calls. The id travels in-band as the
//! protocol's own `trace=<id>` option (the router forwards it to the
//! shards), so spans of one request share it across hops.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qppt_server::protocol::{
    apply_overrides, parse_request, write_partial_response, write_run_response, Request,
};
use qppt_server::{LineService, Reply, ServeEngine};
use qppt_storage::QuerySpec;

/// One recorded interval. `parent` names the span of the same trace that
/// caused this one (`None` for a root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store, shared by every recording site of one run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since this recorder was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn record(
        &self,
        trace_id: u64,
        span: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans
            .lock()
            .expect("no recording site panics while holding the span lock")
            .push(Span {
                trace_id,
                span,
                parent,
                start_ns,
                end_ns,
            });
    }

    /// Takes every span recorded so far, grouped by trace.
    pub fn take_traces(&self) -> Vec<Vec<Span>> {
        let spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no recording site panics while holding the span lock"),
        );
        let mut by_trace: HashMap<u64, Vec<Span>> = HashMap::new();
        for s in spans {
            by_trace.entry(s.trace_id).or_default().push(s);
        }
        let mut traces: Vec<Vec<Span>> = by_trace.into_values().collect();
        traces.sort_by_key(|t| t[0].trace_id);
        traces
    }
}

/// Writes `traces` as JSONL, one span per line:
/// `{"trace_id":7,"span":"server.engine","parent":"server.handle","start_ns":…,"end_ns":…}`.
pub fn write_jsonl(w: &mut impl Write, traces: &[Vec<Span>]) -> io::Result<()> {
    for s in traces.iter().flatten() {
        let parent = match s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        writeln!(
            w,
            "{{\"trace_id\":{},\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.trace_id, s.span, parent, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut edge) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            covered += e - s;
            edge = e;
        }
    }
    covered
}

/// Self time of the span named `name` within one trace: its duration minus
/// the part of that interval its child spans cover (overlapping children —
/// two shards answering in parallel — count once).
pub fn self_ns(trace: &[Span], name: &str) -> Option<u64> {
    let span = trace.iter().find(|s| s.span == name)?;
    let children = trace
        .iter()
        .filter(|s| s.parent == Some(span.span))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    Some(span.dur_ns() - union_ns(children, span.start_ns, span.end_ns))
}

/// Duration of the span named `name` within one trace.
pub fn dur_ns(trace: &[Span], name: &str) -> Option<u64> {
    trace.iter().find(|s| s.span == name).map(Span::dur_ns)
}

/// The span names one serving node records, and the span that causes its
/// `handle`: the client's `request`, or the router's `handle` for a shard.
#[derive(Debug, PartialEq, Eq)]
pub struct NodeNames {
    pub parent: &'static str,
    pub handle: &'static str,
    pub parse: &'static str,
    pub engine: &'static str,
    pub serialize: &'static str,
}

pub const REQUEST: &str = "request";
pub const ROUTER_HANDLE: &str = "router.handle";
pub const SERVER: NodeNames = NodeNames {
    parent: REQUEST,
    handle: "server.handle",
    parse: "server.parse",
    engine: "server.engine",
    serialize: "server.serialize",
};
pub const SHARDS: [NodeNames; 2] = [
    NodeNames {
        parent: ROUTER_HANDLE,
        handle: "shard0.handle",
        parse: "shard0.parse",
        engine: "shard0.engine",
        serialize: "shard0.serialize",
    },
    NodeNames {
        parent: ROUTER_HANDLE,
        handle: "shard1.handle",
        parse: "shard1.parse",
        engine: "shard1.engine",
        serialize: "shard1.serialize",
    },
];

/// The pinned id of a traced request line: its last `trace=<id>` token
/// (the router appends its copy after the client's options).
pub fn trace_id_of(line: &str) -> Option<u64> {
    line.rsplit(' ')
        .find_map(|tok| tok.strip_prefix("trace="))
        .and_then(|v| v.parse().ok())
}

/// The router served through the harness: records one `router.handle`
/// span per traced line around the wrapped service.
pub struct TracedRouter {
    pub inner: Arc<dyn LineService>,
    pub rec: Arc<Recorder>,
}

impl LineService for TracedRouter {
    fn handle(&self, line: &str, w: &mut dyn Write) -> io::Result<Reply> {
        let start = self.rec.now();
        let reply = self.inner.handle(line, w);
        if let Some(id) = trace_id_of(line) {
            self.rec
                .record(id, ROUTER_HANDLE, Some(REQUEST), start, self.rec.now());
        }
        reply
    }
}

/// A server or shard served through the harness: the `RUN`/`QUERY` path of
/// qppt-server's own dispatcher, rebuilt from the public `protocol` and
/// [`ServeEngine`] calls with a span around each step. Other verbs get the
/// little the benchmark's router needs (`PING`).
pub struct TracedServer {
    pub engine: Arc<ServeEngine>,
    pub rec: Arc<Recorder>,
    pub names: &'static NodeNames,
}

impl LineService for TracedServer {
    fn handle(&self, line: &str, mut w: &mut dyn Write) -> io::Result<Reply> {
        let engine = &*self.engine;
        let t_start = self.rec.now();
        let started = Instant::now();
        let parsed = parse_request(line);
        let (verb, spec, options): (_, Cow<'_, QuerySpec>, _) = match parsed {
            Ok(Request::Ping) => {
                writeln!(w, "OK pong")?;
                return Ok(Reply::Continue);
            }
            Ok(Request::Run { query, options }) => match engine.resolve(&query) {
                Ok(spec) => ("RUN", Cow::Borrowed(spec), options),
                Err(e) => {
                    writeln!(w, "ERR {e}")?;
                    return Ok(Reply::Continue);
                }
            },
            Ok(Request::Query { spec, options }) => ("QUERY", Cow::Owned(*spec), options),
            Ok(_) => {
                writeln!(w, "ERR verb not served by the traced benchmark harness")?;
                return Ok(Reply::Continue);
            }
            Err(msg) => {
                writeln!(w, "ERR {msg}")?;
                return Ok(Reply::Continue);
            }
        };
        let (opts, controls) = match apply_overrides(engine.defaults(), &options) {
            Ok(parsed) => parsed,
            Err(msg) => {
                writeln!(w, "ERR {msg}")?;
                return Ok(Reply::Continue);
            }
        };
        let workers = opts.parallelism.min(engine.info().pool_threads).max(1);
        let t_parsed = self.rec.now();

        // Engine, then serialize — each branch mirrors the production
        // dispatcher (the program's own span collection stays off: the
        // harness spans are the measurement).
        let t_engine;
        if controls.partial {
            let run = engine.run_spec_partial(&spec, &opts, controls.priority, controls.use_cache);
            t_engine = self.rec.now();
            match run {
                Ok((partial, stats)) => {
                    write_partial_response(&mut w, &partial, &stats, workers, &[])?
                }
                Err(e) => writeln!(w, "ERR {e}")?,
            }
        } else {
            let run = engine.run_spec(&spec, &opts, controls.priority, controls.use_cache);
            t_engine = self.rec.now();
            match run {
                Ok((result, stats)) => write_run_response(&mut w, &result, &stats, workers, &[])?,
                Err(e) => writeln!(w, "ERR {e}")?,
            }
        }
        let t_end = self.rec.now();
        if let Some(obs) = engine.obs() {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            obs.record_request(verb, micros);
        }
        if let Some(id) = trace_id_of(line) {
            let n = self.names;
            self.rec
                .record(id, n.handle, Some(n.parent), t_start, t_end);
            self.rec
                .record(id, n.parse, Some(n.handle), t_start, t_parsed);
            self.rec
                .record(id, n.engine, Some(n.handle), t_parsed, t_engine);
            self.rec
                .record(id, n.serialize, Some(n.handle), t_engine, t_end);
        }
        Ok(Reply::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, s: u64, e: u64) -> Span {
        Span {
            trace_id: 1,
            span: name,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let trace = vec![
            span("router.handle", Some("request"), 100, 1100),
            // Two shards in parallel: 200..700 and 400..900 → union 700.
            span("shard0.handle", Some("router.handle"), 200, 700),
            span("shard1.handle", Some("router.handle"), 400, 900),
            // A grandchild never counts against the router.
            span("shard0.engine", Some("shard0.handle"), 250, 650),
            span("request", None, 0, 1200),
        ];
        assert_eq!(self_ns(&trace, "router.handle"), Some(1000 - 700));
        assert_eq!(self_ns(&trace, "shard0.handle"), Some(500 - 400));
        assert_eq!(self_ns(&trace, "shard1.handle"), Some(500));
        assert_eq!(self_ns(&trace, "request"), Some(1200 - 1000));
        assert_eq!(self_ns(&trace, "absent"), None);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let trace = vec![
            span("p", None, 100, 200),
            span("a", Some("p"), 50, 150),
            span("b", Some("p"), 120, 130),
            span("c", Some("p"), 190, 400),
        ];
        // Covered: 100..150 and 190..200.
        assert_eq!(self_ns(&trace, "p"), Some(100 - 60));
    }

    #[test]
    fn trace_id_is_the_last_trace_token() {
        assert_eq!(trace_id_of("RUN q1.1 trace=1007"), Some(1007));
        assert_eq!(
            trace_id_of("RUN q1.1 trace=1007 mode=partial trace=1009"),
            Some(1009)
        );
        assert_eq!(trace_id_of("RUN q1.1 cache=off"), None);
    }

    #[test]
    fn jsonl_has_the_five_fields() {
        let mut out = Vec::new();
        write_jsonl(
            &mut out,
            &[vec![
                span("request", None, 5, 9),
                span("server.handle", Some("request"), 6, 8),
            ]],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"trace_id":1,"span":"request","parent":null,"start_ns":5,"end_ns":9}"#
        );
        assert_eq!(
            lines[1],
            r#"{"trace_id":1,"span":"server.handle","parent":"request","start_ns":6,"end_ns":8}"#
        );
        for l in lines {
            crate::report::json::parse(l).expect("each line is JSON");
        }
    }

    #[test]
    fn recorder_groups_by_trace() {
        let rec = Recorder::new();
        rec.record(2, "request", None, 0, 1);
        rec.record(1, "request", None, 0, 1);
        rec.record(2, "server.handle", Some("request"), 0, 1);
        let traces = rec.take_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0][0].trace_id, 1);
        assert_eq!(traces[1].len(), 2);
        assert!(rec.take_traces().is_empty());
    }
}
