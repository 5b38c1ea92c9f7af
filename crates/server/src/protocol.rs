//! The qppt-server wire protocol: line-oriented text over TCP.
//!
//! Designed for `nc`-debuggability and zero dependencies. Every request is
//! one `\n`-terminated line; every response starts with an `OK …` or
//! `ERR <message>` status line, optionally followed by body lines and a
//! terminating `END` line (exactly the multi-line responses say so below).
//!
//! ## Grammar
//!
//! ```text
//! request   = run | query | explain | list | info | ping | cache
//!           | metrics | quit | shutdown
//! run       = "RUN" query-name *( SP option )  ; multi-line response
//! query     = "QUERY" *( SP clause / SP option ); ad-hoc spec, multi-line
//! explain   = "EXPLAIN" query-name             ; multi-line response
//!           | "EXPLAIN" *( SP clause / SP option ) ; inline query text
//! list      = "LIST"                           ; multi-line response
//! info      = "INFO"                           ; single-line response
//! ping      = "PING"                           ; single-line response
//! cache     = "CACHE" ( "STATS" | "CLEAR" [ "dims" ] ) ; single-line
//! metrics   = "METRICS" [ SP "SLOW" ]          ; multi-line response
//! quit      = "QUIT"                           ; single-line, closes conn
//! shutdown  = "SHUTDOWN"                       ; single-line, stops server
//!
//! query-name = "q1.1" … "q4.3"                 ; case-insensitive aliases
//! clause     = "fact=…" | "dim=…[…]" | "where=[…]" | "agg=…"
//!            | "group=…" | "order=…" | "id=…"  ; see qppt-query
//! option     = key "=" value
//! key        = "parallelism" | "morsel_bits" | "join_buffer"
//!            | "select_join" | "priority" | "cache" | "mode" | "trace"
//! ```
//!
//! `METRICS` answers `OK metrics`, the server's full Prometheus text
//! exposition (one line per sample), then `END`. `METRICS SLOW` answers
//! `OK slow <n>` followed by the slow-query ring (oldest first): one
//! `slow verb=… micros=… outcome="…" | <request line>` body line per
//! entry, each followed by that request's `# span` lines when it was
//! traced, then `END`. `trace=on` enables
//! request-scoped span tracing for that `RUN`/`QUERY` only (`trace=off`
//! is the default); `trace=<id>` — any numeric value — also enables it
//! while pinning the trace id, which is how the router propagates its
//! own trace id to shards so shard span trees stitch under the router's
//! scatter span.
//!
//! `QUERY` carries an arbitrary ad-hoc query in the `qppt-query` language
//! (the named SSB queries are mere aliases for such specs — `RUN q3.1`
//! and `QUERY <q3.1's text>` take the same validate→plan→cache→execute
//! path and return byte-identical bytes). Clause and option tokens may be
//! interleaved: the token key decides (the two key sets are disjoint), so
//! `QUERY fact=lineorder … parallelism=4 cache=off` works. `EXPLAIN`
//! accepts either an alias or inline query text — any `=` in its argument
//! selects the inline form.
//!
//! `CACHE STATS` answers one `OK` line of `key=value` counters (per tier —
//! result / dim / selection / plan —
//! hits/misses/invalidations/evictions/expirations/entries/bytes);
//! `CACHE CLEAR` drops every cached entry, `CACHE CLEAR dims` only the
//! shared dimension-selection tier. `cache=off` on a `RUN` bypasses every
//! cache tier — the dimension tier included — for that request only (no
//! lookups, no insertions).
//!
//! ## RUN response
//!
//! ```text
//! OK <row-count>
//! COLS <group-cols|-> <agg-cols>
//! ROW <field> *( TAB <field> )
//! …
//! # total_micros=<n> workers=<n>
//! # op <label> | micros=<n> keys=<n> tuples=<n> index=<kind> mem=<bytes>
//! …
//! # span id=<n> parent=<n|-> name=<ident> micros=<n>   ; trace=on only
//! …
//! END
//! ```
//!
//! `COLS` lists comma-separated group column labels (`-` when the query is
//! a scalar aggregate with no group-by), then aggregate labels. `ROW`
//! fields are tab-separated: group values typed as `i:<int>` / `s:<str>`,
//! then aggregate values as plain decimal `i64`. (Dictionary strings must
//! not contain tabs or newlines — true for SSB and enforced nowhere else;
//! this is a demonstrator protocol, not an escaping showcase.) `#` lines
//! carry execution statistics and are informational.
//!
//! A result-tier hit answers the same shape from bytes rendered once per
//! cache entry: the head (`OK`, `COLS`, `ROW` lines) and the `# op` lines
//! (the cached execution's operators, then `cache: result hit`) are
//! written as stored, rendered by the same head and op-line writers that
//! [`write_run_response`] is built from. Only `# total_micros=… workers=…`
//! (and the `# span` lines of a traced request) are formatted per request.
//!
//! ## PARTIAL response (`mode=partial`)
//!
//! A `RUN`/`QUERY` with the option `mode=partial` — what `qppt-router`
//! sends to its shards — answers the *undecoded* aggregation index instead
//! of the ordered result:
//!
//! ```text
//! OK partial <group-count>
//! COLS <group-cols|-> <agg-cols>
//! P TAB <packed-key> *( TAB <field> )
//! …
//! # total_micros=<n> workers=<n>
//! # op <label> | micros=<n> keys=<n> tuples=<n> index=<kind> mem=<bytes>
//! …
//! # span id=<n> parent=<n|-> name=<ident> micros=<n>   ; trace only
//! …
//! END
//! ```
//!
//! `P` lines are emitted in ascending packed-key order (the aggregation
//! index's own iteration order): the raw `u64` group key first, then the
//! decoded group values (typed like `ROW` fields) and the accumulator sums
//! as plain decimals. The query's ORDER BY is *not* applied — the router
//! merges shards by key and orders once, after the merge.
//!
//! Verbs are case-insensitive; unknown verbs, unknown queries, and unknown
//! or malformed options produce `ERR <message>` and leave the connection
//! open. See the README for an example session.

use std::io::{self, BufRead, Write};

use qppt_core::{ExecStats, GroupRun, OpStats, PartialAggregate, PlanOptions};
use qppt_obs::{SlowEntry, SpanRec};
use qppt_storage::{QueryResult, QuerySpec, ResultRow, Value};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a named query with plan-option overrides.
    Run {
        query: String,
        options: Vec<(String, String)>,
    },
    /// Run an ad-hoc query parsed from inline `qppt-query` text, with
    /// plan-option overrides (the `QUERY` verb).
    Query {
        spec: Box<QuerySpec>,
        options: Vec<(String, String)>,
    },
    /// Render the physical plan of a named query.
    Explain { query: String },
    /// Render the physical plan of an ad-hoc query (inline `EXPLAIN`).
    ExplainSpec {
        spec: Box<QuerySpec>,
        options: Vec<(String, String)>,
    },
    /// List the registered query names.
    List,
    /// One-line server descriptor (scale factor, seed, pool geometry).
    Info,
    /// Liveness probe.
    Ping,
    /// Query-cache introspection/control (`CACHE STATS`, `CACHE CLEAR`,
    /// `CACHE CLEAR dims`).
    Cache(CacheCmd),
    /// Prometheus text exposition of the server's metric registry.
    Metrics,
    /// The slow-query ring buffer (`METRICS SLOW`): the last requests
    /// that crossed the `--slow-query-micros` threshold, with request
    /// line, cache outcome, and span tree.
    MetricsSlow,
    /// Close this connection.
    Quit,
    /// Graceful server shutdown: in-flight queries finish, the acceptor
    /// stops, every connection closes.
    Shutdown,
}

impl Request {
    /// The wire verb — the metrics label of the request
    /// (`record_request` ignores verbs outside the instrumented set, e.g.
    /// QUIT/SHUTDOWN).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "PING",
            Request::Quit => "QUIT",
            Request::Shutdown => "SHUTDOWN",
            Request::Info => "INFO",
            Request::Cache(_) => "CACHE",
            Request::List => "LIST",
            Request::Explain { .. } | Request::ExplainSpec { .. } => "EXPLAIN",
            Request::Run { .. } => "RUN",
            Request::Query { .. } => "QUERY",
            Request::Metrics | Request::MetricsSlow => "METRICS",
        }
    }
}

/// Subcommands of the `CACHE` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCmd {
    /// Report per-tier counters.
    Stats,
    /// Drop every cached entry (counters survive).
    Clear,
    /// Drop only the dimension tier (shared σ entries).
    ClearDims,
}

/// Parses one request line (without the trailing newline).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    if verb.is_empty() {
        return Err("empty request".to_string());
    }
    let mut parts = rest.split_whitespace();
    match verb.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "INFO" => Ok(Request::Info),
        "LIST" => Ok(Request::List),
        "METRICS" => {
            let req = match parts.next().map(str::to_ascii_uppercase).as_deref() {
                None => Request::Metrics,
                Some("SLOW") => Request::MetricsSlow,
                Some(other) => {
                    return Err(format!("unknown METRICS subcommand {other} (try SLOW)"))
                }
            };
            if let Some(extra) = parts.next() {
                return Err(format!(
                    "unexpected token after METRICS subcommand: {extra}"
                ));
            }
            Ok(req)
        }
        "QUIT" => Ok(Request::Quit),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "CACHE" => {
            let sub = parts
                .next()
                .ok_or_else(|| "CACHE needs a subcommand (STATS or CLEAR)".to_string())?;
            let cmd = match sub.to_ascii_uppercase().as_str() {
                "STATS" => CacheCmd::Stats,
                "CLEAR" => match parts.next().map(str::to_ascii_uppercase).as_deref() {
                    None => CacheCmd::Clear,
                    Some("DIMS") => CacheCmd::ClearDims,
                    Some(other) => {
                        return Err(format!(
                            "unknown CACHE CLEAR target {other} (try CLEAR or CLEAR dims)"
                        ))
                    }
                },
                other => {
                    return Err(format!(
                        "unknown CACHE subcommand {other} (try STATS, CLEAR, CLEAR dims)"
                    ))
                }
            };
            if let Some(extra) = parts.next() {
                return Err(format!("unexpected token after CACHE subcommand: {extra}"));
            }
            Ok(Request::Cache(cmd))
        }
        "QUERY" => {
            let (spec, options) = parse_inline_query(rest)?;
            Ok(Request::Query { spec, options })
        }
        "EXPLAIN" => {
            if rest.contains('=') {
                // Inline query text (clauses are key=value; names are not).
                let (spec, options) = parse_inline_query(rest)?;
                return Ok(Request::ExplainSpec { spec, options });
            }
            let query = parts
                .next()
                .ok_or_else(|| "EXPLAIN needs a query name or inline query text".to_string())?
                .to_ascii_lowercase();
            if let Some(extra) = parts.next() {
                return Err(format!("unexpected token after query name: {extra}"));
            }
            Ok(Request::Explain { query })
        }
        "RUN" => {
            let query = parts
                .next()
                .ok_or_else(|| "RUN needs a query name".to_string())?
                .to_ascii_lowercase();
            let mut options = Vec::new();
            for opt in parts {
                let (k, v) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("malformed option (want key=value): {opt}"))?;
                options.push((k.to_ascii_lowercase(), v.to_string()));
            }
            Ok(Request::Run { query, options })
        }
        other => Err(format!(
            "unknown verb {other} (try RUN, QUERY, EXPLAIN, LIST, INFO, PING, CACHE, METRICS, \
             QUIT, SHUTDOWN)"
        )),
    }
}

/// Parses the body of a `QUERY` (or inline `EXPLAIN`) request: tokens are
/// split bracket/quote-aware by `qppt-query`, then partitioned by key —
/// query-language clauses (`fact=`, `dim=`, …) go to the parser, every
/// other `key=value` token is a per-request option for
/// [`apply_overrides`]. The two key sets are disjoint, so clauses and
/// options may interleave freely on the wire.
type InlineQuery = (Box<QuerySpec>, Vec<(String, String)>);

fn parse_inline_query(body: &str) -> Result<InlineQuery, String> {
    let tokens = qppt_query::tokenize(body).map_err(|e| e.to_string())?;
    if tokens.is_empty() {
        return Err("QUERY needs inline query text (fact=…, dim=…, agg=…)".to_string());
    }
    let mut clauses: Vec<String> = Vec::new();
    let mut options: Vec<(String, String)> = Vec::new();
    for t in tokens {
        let key = t.split('=').next().expect("split yields at least one part");
        if qppt_query::is_clause_key(key) {
            clauses.push(t);
        } else {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| format!("malformed token (want clause or option key=value): {t}"))?;
            options.push((k.to_ascii_lowercase(), v.to_string()));
        }
    }
    let spec = qppt_query::parse_tokens(&clauses).map_err(|e| e.to_string())?;
    Ok((Box::new(spec), options))
}

/// Priority extracted from `RUN` options (not a [`PlanOptions`] knob).
pub const PRIORITY_KEY: &str = "priority";

/// Cache bypass extracted from `RUN` options (not a [`PlanOptions`] knob).
pub const CACHE_KEY: &str = "cache";

/// Response-mode switch extracted from `RUN` options (not a
/// [`PlanOptions`] knob): `mode=partial` requests the undecoded
/// partial-aggregate response the router consumes.
pub const MODE_KEY: &str = "mode";

/// Request-tracing switch extracted from `RUN` options (not a
/// [`PlanOptions`] knob): `trace=on|off`, or `trace=<id>` to pin the
/// trace id (router→shard propagation).
pub const TRACE_KEY: &str = "trace";

/// The per-request tracing control parsed from the `trace=` option.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No span collection (the default).
    #[default]
    Off,
    /// Collect spans; the server assigns the trace id.
    On,
    /// Collect spans under a caller-assigned trace id — the router sets
    /// this on shard requests so the shard's span tree stitches into the
    /// router's trace.
    Id(u64),
}

impl TraceMode {
    /// `true` when spans should be collected.
    pub fn enabled(&self) -> bool {
        !matches!(self, TraceMode::Off)
    }
}

/// Per-request controls that ride on a `RUN` line but are not plan
/// options: pool priority, the query-cache switch, the response mode,
/// and the tracing switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunControls {
    /// Pool priority (higher preempts lower for idle workers).
    pub priority: i32,
    /// `false` bypasses the query cache for this request only.
    pub use_cache: bool,
    /// `true` answers the undecoded partial aggregate (`mode=partial`)
    /// instead of the ordered, decoded result.
    pub partial: bool,
    /// Span collection for this request (`trace=` option).
    pub trace: TraceMode,
}

impl Default for RunControls {
    fn default() -> Self {
        Self {
            priority: 0,
            use_cache: true,
            partial: false,
            trace: TraceMode::Off,
        }
    }
}

/// Applies `RUN` option overrides onto the server's default plan options.
/// Returns the effective options plus the per-request controls (pool
/// priority, cache switch). Only execution-strategy knobs are accepted —
/// knobs that change which base indexes must exist (`prefer_kiss`,
/// `selection_via_set_ops`, `multidim_selections`) are rejected, since the
/// server prepared its indexes at startup.
pub fn apply_overrides(
    base: PlanOptions,
    options: &[(String, String)],
) -> Result<(PlanOptions, RunControls), String> {
    let mut opts = base;
    let mut controls = RunControls::default();
    for (k, v) in options {
        let bad = |what: &str| format!("bad value for {k} (want {what}): {v}");
        match k.as_str() {
            "parallelism" => opts.parallelism = v.parse().map_err(|_| bad("positive integer"))?,
            "morsel_bits" => opts.morsel_bits = v.parse().map_err(|_| bad("1..=16"))?,
            "join_buffer" => opts.join_buffer = v.parse().map_err(|_| bad("positive integer"))?,
            "select_join" => opts.select_join = parse_bool(v).ok_or_else(|| bad("bool"))?,
            PRIORITY_KEY => controls.priority = v.parse().map_err(|_| bad("integer"))?,
            CACHE_KEY => controls.use_cache = parse_bool(v).ok_or_else(|| bad("bool"))?,
            MODE_KEY => {
                controls.partial = match v.as_str() {
                    "partial" => true,
                    "full" => false,
                    _ => return Err(bad("full or partial")),
                }
            }
            TRACE_KEY => {
                // Booleans first so trace=1/trace=0 keep their on/off
                // meaning; any other number pins the trace id.
                controls.trace = match parse_bool(v) {
                    Some(true) => TraceMode::On,
                    Some(false) => TraceMode::Off,
                    None => TraceMode::Id(
                        v.parse()
                            .map_err(|_| bad("on, off, or a numeric trace id"))?,
                    ),
                }
            }
            other => {
                return Err(format!(
                    "unknown option {other} (try parallelism, morsel_bits, join_buffer, \
                     select_join, priority, cache, mode, trace)"
                ))
            }
        }
    }
    opts.validate().map_err(|e| e.to_string())?;
    Ok((opts, controls))
}

fn parse_bool(v: &str) -> Option<bool> {
    match v {
        "true" | "1" | "on" => Some(true),
        "false" | "0" | "off" => Some(false),
        _ => None,
    }
}

/// Execution statistics as served to clients (the `#` lines of a `RUN`
/// response, parsed back).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServedStats {
    /// End-to-end wall micros on the server (plan + execute + decode).
    pub total_micros: u128,
    /// Workers the pipeline was allowed, caller included:
    /// `clamp(parallelism, 1, pool size + 1)` — the connection thread
    /// participates in its own morsel job
    /// (`PooledEngine::pipeline_participants`).
    pub workers: usize,
    /// One rendered line per operator.
    pub op_lines: Vec<String>,
    /// The request's span tree (`# span` lines), empty unless the
    /// request carried `trace=on` / `trace=<id>`.
    pub spans: Vec<SpanRec>,
}

/// Writes a full `RUN` response (status, columns, rows, stats, `END`).
/// `spans` is the request's finished span tree (empty when untraced).
pub fn write_run_response(
    w: &mut impl Write,
    result: &QueryResult,
    stats: &ExecStats,
    workers: usize,
    spans: &[SpanRec],
) -> io::Result<()> {
    write_run_head(w, result)?;
    write_stats_lines(w, stats, workers, spans)?;
    writeln!(w, "END")
}

/// Writes the head of a `RUN` response: the `OK <n>` status, the `COLS`
/// line and one `ROW` line per row — everything before the stats lines.
/// It depends on the result alone, which is why the result tier stores it
/// rendered.
pub(crate) fn write_run_head(w: &mut impl Write, result: &QueryResult) -> io::Result<()> {
    writeln!(w, "OK {}", result.rows.len())?;
    let groups = if result.group_cols.is_empty() {
        "-".to_string()
    } else {
        result.group_cols.join(",")
    };
    writeln!(w, "COLS {} {}", groups, result.agg_cols.join(","))?;
    for row in &result.rows {
        write!(w, "ROW")?;
        for v in &row.key_values {
            match v {
                Value::Int(i) => write!(w, "\ti:{i}")?,
                Value::Str(s) => write!(w, "\ts:{s}")?,
            }
        }
        for a in &row.agg_values {
            write!(w, "\t{a}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes the `# total_micros=… workers=…` line — the one stats line that
/// differs on every request.
pub(crate) fn write_total_line(
    w: &mut impl Write,
    total_micros: u128,
    workers: usize,
) -> io::Result<()> {
    writeln!(w, "# total_micros={total_micros} workers={workers}")
}

/// Writes one `# op` line per operator.
pub(crate) fn write_op_lines(w: &mut impl Write, ops: &[OpStats]) -> io::Result<()> {
    for op in ops {
        writeln!(
            w,
            "# op {} | micros={} keys={} tuples={} index={} mem={}",
            op.label, op.micros, op.out_keys, op.out_tuples, op.index_kind, op.memory_bytes
        )?;
    }
    Ok(())
}

/// Writes one `# span` line per span of a finished request trace.
pub(crate) fn write_span_lines(w: &mut impl Write, spans: &[SpanRec]) -> io::Result<()> {
    for span in spans {
        writeln!(w, "# span {}", span.wire())?;
    }
    Ok(())
}

fn write_stats_lines(
    w: &mut impl Write,
    stats: &ExecStats,
    workers: usize,
    spans: &[SpanRec],
) -> io::Result<()> {
    write_total_line(w, stats.total_micros, workers)?;
    write_op_lines(w, &stats.ops)?;
    write_span_lines(w, spans)
}

/// Writes a full `PARTIAL` response (status, columns, `P` rows, stats,
/// `END`) — the shard-side answer to `mode=partial`. `spans` is the
/// request's finished span tree (empty when untraced).
pub fn write_partial_response(
    w: &mut impl Write,
    partial: &PartialAggregate,
    stats: &ExecStats,
    workers: usize,
    spans: &[SpanRec],
) -> io::Result<()> {
    writeln!(w, "OK partial {}", partial.groups.len())?;
    let groups = if partial.group_cols.is_empty() {
        "-".to_string()
    } else {
        partial.group_cols.join(",")
    };
    writeln!(w, "COLS {} {}", groups, partial.agg_cols.join(","))?;
    for (key, group_values, accs) in partial.groups.iter() {
        write!(w, "P\t{key}")?;
        for v in group_values {
            match v {
                Value::Int(i) => write!(w, "\ti:{i}")?,
                Value::Str(s) => write!(w, "\ts:{s}")?,
            }
        }
        for a in accs {
            write!(w, "\t{a}")?;
        }
        writeln!(w)?;
    }
    write_stats_lines(w, stats, workers, spans)?;
    writeln!(w, "END")
}

/// Writes a `METRICS SLOW` response: the ring oldest-first, one `slow …`
/// body line per entry followed by that request's `# span` lines. Shared
/// by the shard server and the router, so clients parse one shape.
pub fn write_slow_response(w: &mut dyn Write, entries: &[SlowEntry]) -> io::Result<()> {
    writeln!(w, "OK slow {}", entries.len())?;
    for e in entries {
        writeln!(w, "{}", e.wire())?;
        for span in &e.spans {
            writeln!(w, "# span {}", span.wire())?;
        }
    }
    writeln!(w, "END")
}

/// Parses the payload of a `PARTIAL` status line (`partial <group-count>`),
/// as returned by [`read_status`]. `None` if it is not a partial status.
pub fn parse_partial_status(status: &str) -> Option<usize> {
    status.strip_prefix("partial ")?.trim().parse().ok()
}

/// Reads the body of a `PARTIAL` response (everything after the status
/// line), reconstructing the [`PartialAggregate`] exactly as the shard
/// serialized it — `P` rows arrive, and stay, in ascending key order, each
/// with one group value per group column and one accumulator per aggregate
/// of its `COLS` line.
pub fn read_partial_body(
    r: &mut impl BufRead,
    row_count: usize,
) -> Result<(PartialAggregate, ServedStats), ClientError> {
    let cols = read_line(r)?;
    let rest = cols
        .strip_prefix("COLS ")
        .ok_or_else(|| ClientError::Protocol(format!("expected COLS line, got: {cols}")))?;
    let (groups, aggs) = rest
        .split_once(' ')
        .ok_or_else(|| ClientError::Protocol(format!("malformed COLS line: {cols}")))?;
    let group_cols: Vec<String> = if groups == "-" {
        Vec::new()
    } else {
        groups.split(',').map(str::to_string).collect()
    };
    let agg_cols: Vec<String> = aggs.split(',').map(str::to_string).collect();

    let mut groups = GroupRun::with_capacity(agg_cols.len(), row_count);
    let mut stats = ServedStats::default();
    loop {
        let line = read_line(r)?;
        if line == "END" {
            break;
        }
        if let Some(row) = line.strip_prefix("P\t") {
            let mut fields = row.split('\t');
            let key: u64 = fields
                .next()
                .and_then(|k| k.parse().ok())
                .ok_or_else(|| ClientError::Protocol(format!("bad P key in: {line}")))?;
            let mut group_values = Vec::with_capacity(group_cols.len());
            let mut accs = Vec::with_capacity(agg_cols.len());
            for field in fields {
                if let Some(i) = field.strip_prefix("i:") {
                    group_values.push(Value::Int(
                        i.parse().map_err(|_| {
                            ClientError::Protocol(format!("bad int field: {field}"))
                        })?,
                    ));
                } else if let Some(s) = field.strip_prefix("s:") {
                    group_values.push(Value::Str(s.to_string()));
                } else {
                    accs.push(field.parse().map_err(|_| {
                        ClientError::Protocol(format!("bad accumulator field: {field}"))
                    })?);
                }
            }
            if group_values.len() != group_cols.len() || accs.len() != agg_cols.len() {
                return Err(ClientError::Protocol(format!(
                    "P row does not match COLS ({} group values, {} accumulators): {line}",
                    group_cols.len(),
                    agg_cols.len()
                )));
            }
            if groups.keys().last().is_some_and(|&prev| prev >= key) {
                return Err(ClientError::Protocol(format!(
                    "P rows out of ascending key order at key {key}"
                )));
            }
            groups.push(key, group_values, &accs);
        } else if let Some(meta) = line.strip_prefix("# ") {
            if let Some(op) = meta.strip_prefix("op ") {
                stats.op_lines.push(op.to_string());
            } else if let Some(span) = meta.strip_prefix("span ") {
                stats.spans.push(
                    SpanRec::parse(span)
                        .map_err(|e| ClientError::Protocol(format!("bad span line: {e}")))?,
                );
            } else {
                for kv in meta.split_whitespace() {
                    match kv.split_once('=') {
                        Some(("total_micros", v)) => {
                            stats.total_micros = v.parse().unwrap_or_default()
                        }
                        Some(("workers", v)) => stats.workers = v.parse().unwrap_or_default(),
                        _ => {}
                    }
                }
            }
        } else {
            return Err(ClientError::Protocol(format!(
                "unexpected line in PARTIAL response: {line}"
            )));
        }
    }
    if groups.len() != row_count {
        return Err(ClientError::Protocol(format!(
            "group count mismatch: status said {row_count}, body had {}",
            groups.len()
        )));
    }
    Ok((
        PartialAggregate {
            group_cols,
            agg_cols,
            groups,
        },
        stats,
    ))
}

/// Client-side error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered `ERR <message>`.
    Server(String),
    /// The server answered something the client cannot parse.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn read_line(r: &mut impl BufRead) -> Result<String, ClientError> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(ClientError::Protocol(
            "connection closed mid-response".into(),
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads the status line of any response; `Ok` payload is the text after
/// `OK `, `ERR` becomes [`ClientError::Server`].
pub fn read_status(r: &mut impl BufRead) -> Result<String, ClientError> {
    let line = read_line(r)?;
    if let Some(rest) = line.strip_prefix("OK") {
        Ok(rest.trim_start().to_string())
    } else if let Some(msg) = line.strip_prefix("ERR ") {
        Err(ClientError::Server(msg.to_string()))
    } else {
        Err(ClientError::Protocol(format!("unexpected status: {line}")))
    }
}

/// Reads the body of a `RUN` response (everything after the status line),
/// reconstructing the [`QueryResult`] exactly as the server decoded it.
pub fn read_run_body(
    r: &mut impl BufRead,
    row_count: usize,
) -> Result<(QueryResult, ServedStats), ClientError> {
    let cols = read_line(r)?;
    let rest = cols
        .strip_prefix("COLS ")
        .ok_or_else(|| ClientError::Protocol(format!("expected COLS line, got: {cols}")))?;
    let (groups, aggs) = rest
        .split_once(' ')
        .ok_or_else(|| ClientError::Protocol(format!("malformed COLS line: {cols}")))?;
    let group_cols: Vec<String> = if groups == "-" {
        Vec::new()
    } else {
        groups.split(',').map(str::to_string).collect()
    };
    let agg_cols: Vec<String> = aggs.split(',').map(str::to_string).collect();

    let mut rows = Vec::with_capacity(row_count);
    let mut stats = ServedStats::default();
    loop {
        let line = read_line(r)?;
        if line == "END" {
            break;
        }
        if let Some(row) = line.strip_prefix("ROW") {
            let mut key_values = Vec::with_capacity(group_cols.len());
            let mut agg_values = Vec::with_capacity(agg_cols.len());
            for field in row.split('\t').skip(1) {
                if let Some(i) = field.strip_prefix("i:") {
                    key_values.push(Value::Int(i.parse().map_err(|_| {
                        ClientError::Protocol(format!("bad int field: {field}"))
                    })?));
                } else if let Some(s) = field.strip_prefix("s:") {
                    key_values.push(Value::Str(s.to_string()));
                } else {
                    agg_values.push(field.parse().map_err(|_| {
                        ClientError::Protocol(format!("bad aggregate field: {field}"))
                    })?);
                }
            }
            rows.push(ResultRow {
                key_values,
                agg_values,
            });
        } else if let Some(meta) = line.strip_prefix("# ") {
            if let Some(op) = meta.strip_prefix("op ") {
                stats.op_lines.push(op.to_string());
            } else if let Some(span) = meta.strip_prefix("span ") {
                stats.spans.push(
                    SpanRec::parse(span)
                        .map_err(|e| ClientError::Protocol(format!("bad span line: {e}")))?,
                );
            } else {
                for kv in meta.split_whitespace() {
                    match kv.split_once('=') {
                        Some(("total_micros", v)) => {
                            stats.total_micros = v.parse().unwrap_or_default()
                        }
                        Some(("workers", v)) => stats.workers = v.parse().unwrap_or_default(),
                        _ => {}
                    }
                }
            }
        } else {
            return Err(ClientError::Protocol(format!(
                "unexpected line in RUN response: {line}"
            )));
        }
    }
    if rows.len() != row_count {
        return Err(ClientError::Protocol(format!(
            "row count mismatch: status said {row_count}, body had {}",
            rows.len()
        )));
    }
    Ok((
        QueryResult {
            group_cols,
            agg_cols,
            rows,
        },
        stats,
    ))
}

/// Reads a multi-line text body (LIST/EXPLAIN): every line up to `END`.
pub fn read_text_body(r: &mut impl BufRead) -> Result<Vec<String>, ClientError> {
    let mut lines = Vec::new();
    loop {
        let line = read_line(r)?;
        if line == "END" {
            return Ok(lines);
        }
        lines.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parse_requests() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("info").unwrap(), Request::Info);
        assert_eq!(parse_request("  LIST  ").unwrap(), Request::List);
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        assert_eq!(parse_request("METRICS SLOW").unwrap(), Request::MetricsSlow);
        assert_eq!(parse_request("metrics slow").unwrap(), Request::MetricsSlow);
        assert!(parse_request("METRICS FAST").is_err());
        assert!(parse_request("METRICS SLOW extra").is_err());
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
        assert_eq!(parse_request("Shutdown").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request("EXPLAIN Q2.3").unwrap(),
            Request::Explain {
                query: "q2.3".into()
            }
        );
        assert_eq!(
            parse_request("run q4.1 parallelism=4 priority=2").unwrap(),
            Request::Run {
                query: "q4.1".into(),
                options: vec![
                    ("parallelism".into(), "4".into()),
                    ("priority".into(), "2".into())
                ],
            }
        );
        assert_eq!(
            parse_request("cache stats").unwrap(),
            Request::Cache(CacheCmd::Stats)
        );
        assert_eq!(
            parse_request("CACHE Clear").unwrap(),
            Request::Cache(CacheCmd::Clear)
        );
        assert_eq!(
            parse_request("CACHE CLEAR dims").unwrap(),
            Request::Cache(CacheCmd::ClearDims)
        );
        assert_eq!(
            parse_request("cache clear DIMS").unwrap(),
            Request::Cache(CacheCmd::ClearDims)
        );
        assert!(parse_request("CACHE").is_err());
        assert!(parse_request("CACHE FLUSH").is_err());
        assert!(parse_request("CACHE STATS extra").is_err());
        assert!(parse_request("CACHE CLEAR plans").is_err());
        assert!(parse_request("CACHE CLEAR dims extra").is_err());
        assert!(parse_request("").is_err());
        assert!(parse_request("FLY q1.1").is_err());
        assert!(parse_request("RUN").is_err());
        assert!(parse_request("RUN q1.1 nonsense").is_err());
        assert!(parse_request("EXPLAIN q1.1 extra").is_err());
    }

    #[test]
    fn parse_query_and_inline_explain_requests() {
        // Clause and option tokens interleave; the token key decides.
        let req = parse_request(
            "QUERY fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_year=1993] \
             parallelism=4 agg=sum(lo_revenue):r cache=off",
        )
        .unwrap();
        match req {
            Request::Query { spec, options } => {
                assert_eq!(spec.fact, "lineorder");
                assert_eq!(spec.dims.len(), 1);
                assert_eq!(spec.aggregates.len(), 1);
                assert_eq!(
                    options,
                    vec![
                        ("parallelism".to_string(), "4".to_string()),
                        ("cache".to_string(), "off".to_string())
                    ]
                );
            }
            other => panic!("want Query, got {other:?}"),
        }
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("QUERY fact=9bad").is_err());
        assert!(parse_request("QUERY fact=f dim=d[oops").is_err());
        assert!(parse_request("QUERY fact=f garbage").is_err());

        // EXPLAIN dispatches on '=': names stay names, text parses.
        assert!(matches!(
            parse_request("EXPLAIN q2.3"),
            Ok(Request::Explain { .. })
        ));
        match parse_request("EXPLAIN fact=f dim=d[join=k:fk] agg=sum(a):x select_join=off") {
            Ok(Request::ExplainSpec { spec, options }) => {
                assert_eq!(spec.fact, "f");
                assert_eq!(options.len(), 1);
            }
            other => panic!("want ExplainSpec, got {other:?}"),
        }
        assert!(
            parse_request("EXPLAIN fact=f oops=1 agg=sum(a):x").is_ok(),
            "unknown option keys are deferred to apply_overrides"
        );
        assert!(parse_request("EXPLAIN").is_err());
    }

    #[test]
    fn apply_overrides_accepts_exec_knobs_only() {
        let base = PlanOptions::default();
        let (opts, controls) = apply_overrides(
            base,
            &[
                ("parallelism".into(), "8".into()),
                ("morsel_bits".into(), "9".into()),
                ("select_join".into(), "off".into()),
                ("priority".into(), "-3".into()),
            ],
        )
        .unwrap();
        assert_eq!(opts.parallelism, 8);
        assert_eq!(opts.morsel_bits, 9);
        assert!(!opts.select_join);
        assert_eq!(controls.priority, -3);
        assert!(controls.use_cache, "cache defaults to on");

        let (_, controls) = apply_overrides(base, &[("cache".into(), "off".into())]).unwrap();
        assert!(!controls.use_cache);
        assert!(apply_overrides(base, &[("cache".into(), "maybe".into())]).is_err());

        assert!(apply_overrides(base, &[("prefer_kiss".into(), "false".into())]).is_err());
        assert!(apply_overrides(base, &[("parallelism".into(), "zero".into())]).is_err());
        // Values are validated, not just parsed.
        assert!(apply_overrides(base, &[("morsel_bits".into(), "40".into())]).is_err());
        assert!(apply_overrides(base, &[("parallelism".into(), "0".into())]).is_err());
    }

    #[test]
    fn run_response_roundtrip() {
        let result = QueryResult {
            group_cols: vec!["d_year".into(), "p_brand1".into()],
            agg_cols: vec!["revenue".into()],
            rows: vec![
                ResultRow {
                    key_values: vec![Value::Int(1997), Value::str("MFGR#12 X")],
                    agg_values: vec![1234567],
                },
                ResultRow {
                    key_values: vec![Value::Int(1998), Value::str("MFGR#45")],
                    agg_values: vec![-42],
                },
            ],
        };
        let stats = ExecStats {
            ops: vec![qppt_core::OpStats {
                label: "4-way star join-group".into(),
                out_keys: 2,
                out_tuples: 2,
                index_kind: "KISS-Tree".into(),
                memory_bytes: 64,
                micros: 1500,
            }],
            total_micros: 2000,
        };
        let mut buf = Vec::new();
        write_run_response(&mut buf, &result, &stats, 4, &[]).unwrap();
        let mut r = BufReader::new(&buf[..]);
        let status = read_status(&mut r).unwrap();
        let n: usize = status.parse().unwrap();
        assert_eq!(n, 2);
        let (parsed, served) = read_run_body(&mut r, n).unwrap();
        assert_eq!(parsed, result);
        assert_eq!(served.total_micros, 2000);
        assert_eq!(served.workers, 4);
        assert_eq!(served.op_lines.len(), 1);
        assert!(served.op_lines[0].contains("star join-group"));
        // The op line carries the operator's memory footprint.
        assert!(
            served.op_lines[0].contains("mem=64"),
            "op line missing mem=: {}",
            served.op_lines[0]
        );
        assert!(served.spans.is_empty(), "untraced responses have no spans");
    }

    #[test]
    fn traced_response_roundtrips_spans() {
        let result = QueryResult {
            group_cols: Vec::new(),
            agg_cols: vec!["revenue".into()],
            rows: vec![ResultRow {
                key_values: Vec::new(),
                agg_values: vec![7],
            }],
        };
        let mut trace = qppt_obs::Trace::new(99);
        trace.add(0, "plan", 10);
        trace.add(0, "exec", 50);
        let spans = trace.finish(80);
        let mut buf = Vec::new();
        write_run_response(&mut buf, &result, &ExecStats::default(), 1, &spans).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("# span id=0 parent=- name=request micros=80"));
        let mut r = BufReader::new(&buf[..]);
        let n: usize = read_status(&mut r).unwrap().parse().unwrap();
        let (parsed, served) = read_run_body(&mut r, n).unwrap();
        assert_eq!(parsed, result);
        assert_eq!(served.spans, spans);
        qppt_obs::validate_span_tree(&served.spans).expect("served spans form a valid tree");
    }

    /// A partial aggregate over `group_cols` and one `revenue` aggregate.
    fn partial_of(group_cols: &[&str], groups: &[(u64, Vec<Value>, i64)]) -> PartialAggregate {
        let mut run = GroupRun::with_capacity(1, groups.len());
        for (key, values, acc) in groups {
            run.push(*key, values.clone(), &[*acc]);
        }
        PartialAggregate {
            group_cols: group_cols.iter().map(|c| c.to_string()).collect(),
            agg_cols: vec!["revenue".into()],
            groups: run,
        }
    }

    #[test]
    fn partial_response_roundtrip() {
        let partial = partial_of(
            &["d_year", "p_brand1"],
            &[
                (3, vec![Value::Int(1997), Value::str("MFGR#12 X")], 1234567),
                (77, vec![Value::Int(1998), Value::str("MFGR#45")], -42),
            ],
        );
        let stats = ExecStats {
            ops: Vec::new(),
            total_micros: 321,
        };
        let mut buf = Vec::new();
        write_partial_response(&mut buf, &partial, &stats, 2, &[]).unwrap();
        let mut r = BufReader::new(&buf[..]);
        let status = read_status(&mut r).unwrap();
        let n = parse_partial_status(&status).expect("partial status");
        assert_eq!(n, 2);
        let (parsed, served) = read_partial_body(&mut r, n).unwrap();
        assert_eq!(parsed, partial);
        assert_eq!(served.total_micros, 321);
        assert_eq!(served.workers, 2);
        assert!(
            parse_partial_status("2").is_none(),
            "RUN status is not partial"
        );

        // Scalar partial: no group columns, key 0.
        let scalar = partial_of(&[], &[(0, Vec::new(), 99)]);
        let mut buf = Vec::new();
        write_partial_response(&mut buf, &scalar, &ExecStats::default(), 1, &[]).unwrap();
        let mut r = BufReader::new(&buf[..]);
        let n = parse_partial_status(&read_status(&mut r).unwrap()).unwrap();
        let (parsed, _) = read_partial_body(&mut r, n).unwrap();
        assert_eq!(parsed, scalar);
    }

    /// A `P` row must carry one group value per group column and one
    /// accumulator per aggregate of its `COLS` line: a short or long row is
    /// a protocol error (the router fails the replica over), never a row
    /// served with a column missing.
    #[test]
    fn partial_rows_must_match_their_cols_line() {
        for row in [
            "P\t5\t10",              // no group value
            "P\t5\ti:1997\ti:3\t10", // one group value too many
            "P\t5\ti:1997",          // no accumulator
            "P\t5\ti:1997\t10\t20",  // one accumulator too many
        ] {
            let body = format!("COLS d_year revenue\n{row}\nEND\n");
            match read_partial_body(&mut BufReader::new(body.as_bytes()), 1) {
                Err(ClientError::Protocol(msg)) => {
                    assert!(msg.contains("does not match COLS"), "{row}: {msg}")
                }
                other => panic!("{row} must be a protocol error, got {other:?}"),
            }
        }
        let body = "COLS d_year revenue\nP\t5\ti:1997\t10\nEND\n";
        let (parsed, _) = read_partial_body(&mut BufReader::new(body.as_bytes()), 1).unwrap();
        assert_eq!(
            parsed,
            partial_of(&["d_year"], &[(5, vec![Value::Int(1997)], 10)])
        );
    }

    #[test]
    fn mode_option_sets_partial_control() {
        let base = PlanOptions::default();
        let (_, controls) = apply_overrides(base, &[("mode".into(), "partial".into())]).unwrap();
        assert!(controls.partial);
        let (_, controls) = apply_overrides(base, &[("mode".into(), "full".into())]).unwrap();
        assert!(!controls.partial);
        assert!(apply_overrides(base, &[("mode".into(), "sideways".into())]).is_err());
    }

    #[test]
    fn trace_option_parses_modes() {
        let base = PlanOptions::default();
        let (_, controls) = apply_overrides(base, &[]).unwrap();
        assert_eq!(controls.trace, TraceMode::Off);
        let (_, controls) = apply_overrides(base, &[("trace".into(), "on".into())]).unwrap();
        assert_eq!(controls.trace, TraceMode::On);
        assert!(controls.trace.enabled());
        let (_, controls) = apply_overrides(base, &[("trace".into(), "off".into())]).unwrap();
        assert_eq!(controls.trace, TraceMode::Off);
        let (_, controls) = apply_overrides(base, &[("trace".into(), "12345".into())]).unwrap();
        assert_eq!(controls.trace, TraceMode::Id(12345));
        // Booleans win over numbers for 0/1.
        let (_, controls) = apply_overrides(base, &[("trace".into(), "1".into())]).unwrap();
        assert_eq!(controls.trace, TraceMode::On);
        assert!(apply_overrides(base, &[("trace".into(), "maybe".into())]).is_err());
        // A later duplicate wins — the router appends trace=<id> after
        // client options, so its id overrides a client's trace=on.
        let (_, controls) = apply_overrides(
            base,
            &[("trace".into(), "on".into()), ("trace".into(), "77".into())],
        )
        .unwrap();
        assert_eq!(controls.trace, TraceMode::Id(77));
    }

    #[test]
    fn scalar_result_roundtrip() {
        // Q1.x shape: no group columns.
        let result = QueryResult {
            group_cols: Vec::new(),
            agg_cols: vec!["revenue".into()],
            rows: vec![ResultRow {
                key_values: Vec::new(),
                agg_values: vec![99],
            }],
        };
        let mut buf = Vec::new();
        write_run_response(&mut buf, &result, &ExecStats::default(), 1, &[]).unwrap();
        let mut r = BufReader::new(&buf[..]);
        let n: usize = read_status(&mut r).unwrap().parse().unwrap();
        let (parsed, _) = read_run_body(&mut r, n).unwrap();
        assert_eq!(parsed, result);
    }

    #[test]
    fn err_status_surfaces_as_server_error() {
        let buf = b"ERR unknown query q9.9\n".to_vec();
        let mut r = BufReader::new(&buf[..]);
        match read_status(&mut r) {
            Err(ClientError::Server(m)) => assert!(m.contains("q9.9")),
            other => panic!("want server error, got {other:?}"),
        }
    }
}
