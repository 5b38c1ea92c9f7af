//! # qppt-query — the textual query language
//!
//! A compact, line-oriented surface syntax for [`QuerySpec`]: one query is
//! one line of `key=value` clauses, designed to ride inside a single
//! `QUERY` protocol line and to be writable by hand in `nc`. The parser
//! ([`parse`]) and pretty-printer ([`print()`]) round-trip `QuerySpec`
//! losslessly — `parse(&print(spec)) == spec` for every spec the language
//! can express, which includes all 13 SSB queries.
//!
//! ## Grammar
//!
//! ```text
//! query   = clause *( SP clause )                ; clauses in any order
//! clause  = "fact=" ident                        ; fact table (required)
//!         | "dim=" ident "[" dimbody "]"         ; one join, repeatable —
//!         |                                      ;   clause order = join order
//!         | "where=[" pred *( ";" pred ) "]"     ; fact residual predicates
//!         | "agg=" agg *( "," agg )              ; aggregates, repeatable
//!         | "group=" colref *( "," colref )      ; group-by columns
//!         | "order=" okey *( "," okey )          ; order-by terms
//!         | "id=" label                          ; spec id (default "adhoc")
//!
//! dimbody = "join=" ident ":" ident              ; dim join col : fact FK col
//!           *( ";" ( pred | "carry=" ident *( "," ident ) ) )
//! pred    = ident "=" value                      ; equality
//!         | ident SP "in" SP value *( "," value )
//!         | ident SP "between" SP value SP "and" SP value
//!         | ident SP "<" SP value
//! value   = int | "'" *qchar "'"                 ; '' escapes a quote
//! agg     = "sum(" expr "):" label
//! expr    = ident | ident "*" ident | ident "-" ident
//! colref  = ident "." ident                      ; dim-table-qualified …
//!         | ident                                ; … or bare, if exactly one
//!                                                ;   dim carries the column
//! okey    = ( "group" | "agg" ) ":" int [ ":desc" | ":asc" ]
//! ident   = ALPHA / "_" *( ALNUM / "_" )
//! ```
//!
//! Quoted values distinguish strings from integers (`1993` is an `Int`,
//! `'1993'` a `Str`), may contain any character (spaces, `#`, commas), and
//! escape an embedded quote by doubling it. Whitespace splits clauses only
//! outside `[...]` and quotes, so predicates read naturally:
//!
//! ```text
//! fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_year between 1992 and 1997;carry=d_year]
//!   where=[lo_discount between 1 and 3;lo_quantity < 25]
//!   agg=sum(lo_extendedprice*lo_discount):revenue
//! ```
//!
//! (shown wrapped; on the wire it is one line). The parser is purely
//! syntactic — catalog checks (unknown tables/columns, type mismatches,
//! index availability) live in `qppt_core::validate`, which the server
//! runs on every query before planning.

use qppt_storage::{
    AggExpr, AggOp, ColRef, DimSpec, Expr, OrderKey, OrderTerm, Predicate, QuerySpec, Value,
};

/// The clause keys of the query language. The server's `QUERY` verb uses
/// this set to split one token stream into query clauses and per-request
/// options (`parallelism=4`, `cache=off`, …) — the two key sets are
/// disjoint by construction.
pub const CLAUSE_KEYS: &[&str] = &["fact", "dim", "where", "agg", "group", "order", "id"];

/// `true` if `key` names a query-language clause (see [`CLAUSE_KEYS`]).
pub fn is_clause_key(key: &str) -> bool {
    CLAUSE_KEYS.contains(&key)
}

/// The id given to parsed queries with no `id=` clause.
pub const DEFAULT_ID: &str = "adhoc";

/// A syntax error, with enough context to act on from an `ERR` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(String);

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query syntax error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Splits a query (or `QUERY` request body) into clause/option tokens:
/// whitespace separates tokens only at bracket depth 0 and outside quoted
/// values, so `dim=date[d_year between 1992 and 1997]` is one token.
pub fn tokenize(body: &str) -> PResult<Vec<String>> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut depth = 0usize;
    let mut chars = body.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                cur.push(c);
                consume_quoted(&mut cur, &mut chars)?;
            }
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| ParseError::new("unbalanced ']'"))?;
                cur.push(c);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
    }
    if depth != 0 {
        return Err(ParseError::new("unbalanced '[' (missing ']')"));
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    Ok(tokens)
}

/// Consumes the remainder of a quoted value (the opening `'` is already in
/// `out`), honoring the `''` escape.
fn consume_quoted(
    out: &mut String,
    chars: &mut std::iter::Peekable<std::str::Chars>,
) -> PResult<()> {
    loop {
        match chars.next() {
            None => return Err(ParseError::new("unterminated quoted value")),
            Some('\'') => {
                out.push('\'');
                if chars.peek() == Some(&'\'') {
                    out.push(chars.next().expect("peeked"));
                } else {
                    return Ok(());
                }
            }
            Some(c) => out.push(c),
        }
    }
}

/// Splits `s` on `sep`, ignoring separators inside quoted values.
fn split_quoted(s: &str, sep: char) -> PResult<Vec<String>> {
    let mut parts = vec![String::new()];
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == sep {
            parts.push(String::new());
        } else {
            let cur = parts.last_mut().expect("non-empty");
            cur.push(c);
            if c == '\'' {
                consume_quoted(cur, &mut chars)?;
            }
        }
    }
    Ok(parts)
}

/// Splits `s` on whitespace runs outside quoted values.
fn split_ws_quoted(s: &str) -> PResult<Vec<String>> {
    let mut toks: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            if !cur.is_empty() {
                toks.push(std::mem::take(&mut cur));
            }
        } else {
            cur.push(c);
            if c == '\'' {
                consume_quoted(&mut cur, &mut chars)?;
            }
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Scalar pieces
// ---------------------------------------------------------------------------

fn ident(s: &str, what: &str) -> PResult<String> {
    let mut cs = s.chars();
    let ok = match cs.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            cs.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        _ => false,
    };
    if !ok {
        return Err(ParseError::new(format!(
            "{what} must be an identifier ([A-Za-z_][A-Za-z0-9_]*), got {s:?}"
        )));
    }
    Ok(s.to_string())
}

fn parse_label(s: &str, what: &str) -> PResult<String> {
    if s.is_empty()
        || !s
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.#-".contains(c))
    {
        return Err(ParseError::new(format!(
            "{what} must be non-empty [A-Za-z0-9_.#-]+, got {s:?}"
        )));
    }
    Ok(s.to_string())
}

fn parse_value(s: &str) -> PResult<Value> {
    let s = s.trim();
    if s.starts_with('\'') {
        let mut out = String::new();
        let mut cs = s.chars();
        cs.next(); // opening quote
        loop {
            match cs.next() {
                None => return Err(ParseError::new(format!("unterminated string value {s:?}"))),
                Some('\'') => match cs.next() {
                    Some('\'') => out.push('\''),
                    None => return Ok(Value::Str(out)),
                    Some(_) => {
                        return Err(ParseError::new(format!(
                            "unexpected text after closing quote in {s:?}"
                        )))
                    }
                },
                Some(c) => out.push(c),
            }
        }
    } else {
        s.parse::<i64>().map(Value::Int).map_err(|_| {
            ParseError::new(format!(
                "value {s:?} is neither an integer nor a quoted string (quote strings: 'ASIA')"
            ))
        })
    }
}

fn print_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses one query text (everything after the `QUERY` verb, or a full
/// stand-alone line). Every token must be a clause — option tokens the
/// server accepts (`parallelism=…`) are the caller's to strip first, via
/// [`tokenize`] + [`is_clause_key`] + [`parse_tokens`].
pub fn parse(text: &str) -> PResult<QuerySpec> {
    let tokens = tokenize(text)?;
    for t in &tokens {
        let key = t.split('=').next().unwrap_or(t);
        if !is_clause_key(key) {
            return Err(unknown_clause(key));
        }
    }
    parse_tokens(&tokens)
}

fn unknown_clause(key: &str) -> ParseError {
    ParseError::new(format!(
        "unknown clause {key:?} (try {})",
        CLAUSE_KEYS.join(", ")
    ))
}

/// Parses pre-tokenized clauses (see [`tokenize`]) into a [`QuerySpec`].
pub fn parse_tokens(tokens: &[String]) -> PResult<QuerySpec> {
    let mut fact: Option<String> = None;
    let mut id: Option<String> = None;
    let mut dims: Vec<DimSpec> = Vec::new();
    let mut fact_predicates: Option<Vec<Predicate>> = None;
    let mut aggregates: Vec<AggExpr> = Vec::new();
    let mut group_raw: Option<Vec<String>> = None;
    let mut order_by: Option<Vec<OrderKey>> = None;

    let once = |what: &str| ParseError::new(format!("duplicate {what}= clause"));
    for token in tokens {
        let (key, val) = token
            .split_once('=')
            .ok_or_else(|| ParseError::new(format!("expected key=value clause, got {token:?}")))?;
        match key {
            "fact" => {
                if fact.replace(ident(val, "fact table")?).is_some() {
                    return Err(once("fact"));
                }
            }
            "id" => {
                if id.replace(parse_label(val, "id")?).is_some() {
                    return Err(once("id"));
                }
            }
            "dim" => dims.push(parse_dim(val)?),
            "where" => {
                let body = bracketed(val, "where")?;
                let mut preds = Vec::new();
                for item in split_quoted(body, ';')? {
                    preds.push(parse_predicate(&item)?);
                }
                if fact_predicates.replace(preds).is_some() {
                    return Err(once("where"));
                }
            }
            "agg" => {
                for part in split_quoted(val, ',')? {
                    aggregates.push(parse_agg(part.trim())?);
                }
            }
            "group" => {
                let refs = split_quoted(val, ',')?
                    .iter()
                    .map(|r| r.trim().to_string())
                    .collect();
                if group_raw.replace(refs).is_some() {
                    return Err(once("group"));
                }
            }
            "order" => {
                let mut keys = Vec::new();
                for part in split_quoted(val, ',')? {
                    keys.push(parse_order_key(part.trim())?);
                }
                if order_by.replace(keys).is_some() {
                    return Err(once("order"));
                }
            }
            other => return Err(unknown_clause(other)),
        }
    }

    let fact = fact.ok_or_else(|| ParseError::new("missing fact= clause"))?;
    let group_by = resolve_group_refs(group_raw.unwrap_or_default(), &dims)?;
    Ok(QuerySpec {
        id: id.unwrap_or_else(|| DEFAULT_ID.to_string()),
        fact,
        dims,
        fact_predicates: fact_predicates.unwrap_or_default(),
        group_by,
        aggregates,
        order_by: order_by.unwrap_or_default(),
    })
}

/// Strips the mandatory `[...]` around a clause body.
fn bracketed<'a>(val: &'a str, clause: &str) -> PResult<&'a str> {
    val.strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ParseError::new(format!("{clause}= body must be bracketed: {clause}=[…]")))
}

fn parse_dim(val: &str) -> PResult<DimSpec> {
    let open = val
        .find('[')
        .ok_or_else(|| ParseError::new("dim= wants dim=<table>[join=<col>:<fact col>;…]"))?;
    let table = ident(&val[..open], "dim table")?;
    let body = val[open..]
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ParseError::new(format!("dim={table}[…] body must end with ']'")))?;

    let mut join: Option<(String, String)> = None;
    let mut predicates = Vec::new();
    let mut carried: Option<Vec<String>> = None;
    for item in split_quoted(body, ';')? {
        let item = item.trim();
        if let Some(j) = item.strip_prefix("join=") {
            let (jc, fc) = j.split_once(':').ok_or_else(|| {
                ParseError::new(format!(
                    "dim={table}: join= wants join=<dim col>:<fact col>"
                ))
            })?;
            let pair = (ident(jc, "join column")?, ident(fc, "fact FK column")?);
            if join.replace(pair).is_some() {
                return Err(ParseError::new(format!(
                    "dim={table}: duplicate join= item"
                )));
            }
        } else if let Some(c) = item.strip_prefix("carry=") {
            let cols = split_quoted(c, ',')?
                .iter()
                .map(|c| ident(c.trim(), "carried column"))
                .collect::<PResult<Vec<_>>>()?;
            if carried.replace(cols).is_some() {
                return Err(ParseError::new(format!(
                    "dim={table}: duplicate carry= item"
                )));
            }
        } else if !item.is_empty() {
            predicates.push(parse_predicate(item)?);
        }
    }
    let (join_col, fact_col) = join.ok_or_else(|| {
        ParseError::new(format!(
            "dim={table}: missing join=<dim col>:<fact col> item"
        ))
    })?;
    Ok(DimSpec {
        table,
        join_col,
        fact_col,
        predicates,
        carried: carried.unwrap_or_default(),
    })
}

fn parse_predicate(item: &str) -> PResult<Predicate> {
    let item = item.trim();
    let toks = split_ws_quoted(item)?;
    let err = || {
        ParseError::new(format!(
            "bad predicate {item:?} (want col=value, col in v1,v2, \
             col between lo and hi, or col < value)"
        ))
    };
    match toks.as_slice() {
        [one] => {
            let (col, v) = one.split_once('=').ok_or_else(err)?;
            Ok(Predicate::Eq {
                column: ident(col, "predicate column")?,
                value: parse_value(v)?,
            })
        }
        [col, op, v] if op == "=" => Ok(Predicate::Eq {
            column: ident(col, "predicate column")?,
            value: parse_value(v)?,
        }),
        [col, op, v] if op == "<" => Ok(Predicate::Lt {
            column: ident(col, "predicate column")?,
            value: parse_value(v)?,
        }),
        [col, op, rest @ ..] if op.eq_ignore_ascii_case("in") && !rest.is_empty() => {
            let list = rest.concat();
            let values = split_quoted(&list, ',')?
                .iter()
                .map(|v| parse_value(v))
                .collect::<PResult<Vec<_>>>()?;
            if values.is_empty() {
                return Err(err());
            }
            Ok(Predicate::In {
                column: ident(col, "predicate column")?,
                values,
            })
        }
        [col, op, lo, kw, hi]
            if op.eq_ignore_ascii_case("between") && kw.eq_ignore_ascii_case("and") =>
        {
            Ok(Predicate::Between {
                column: ident(col, "predicate column")?,
                lo: parse_value(lo)?,
                hi: parse_value(hi)?,
            })
        }
        _ => Err(err()),
    }
}

fn parse_agg(s: &str) -> PResult<AggExpr> {
    let err = || {
        ParseError::new(format!(
            "bad aggregate {s:?} (want sum(<col>|<a>*<b>|<a>-<b>):<label>)"
        ))
    };
    let inner = s
        .strip_prefix("sum(")
        .or_else(|| s.strip_prefix("SUM("))
        .ok_or_else(err)?;
    let (expr, label) = inner.rsplit_once("):").ok_or_else(err)?;
    let expr = if let Some((a, b)) = expr.split_once('*') {
        Expr::Mul(ident(a, "aggregate column")?, ident(b, "aggregate column")?)
    } else if let Some((a, b)) = expr.split_once('-') {
        Expr::Sub(ident(a, "aggregate column")?, ident(b, "aggregate column")?)
    } else {
        Expr::Col(ident(expr, "aggregate column")?)
    };
    Ok(AggExpr {
        op: AggOp::Sum,
        expr,
        label: parse_label(label, "aggregate label")?,
    })
}

fn parse_order_key(s: &str) -> PResult<OrderKey> {
    let err = || {
        ParseError::new(format!(
            "bad order term {s:?} (want group:<i> or agg:<i>, optionally :desc)"
        ))
    };
    let mut parts = s.split(':');
    let kind = parts.next().ok_or_else(err)?;
    let idx: usize = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
    let desc = match parts.next() {
        None => false,
        Some("desc") => true,
        Some("asc") => false,
        Some(_) => return Err(err()),
    };
    if parts.next().is_some() {
        return Err(err());
    }
    let term = match kind {
        "group" => OrderTerm::Group(idx),
        "agg" => OrderTerm::Agg(idx),
        _ => return Err(err()),
    };
    Ok(OrderKey { term, desc })
}

/// Resolves `group=` references: `table.column` is taken as written; a bare
/// `column` resolves to the unique dim that carries it (the group-by
/// contract — group columns must be carried — makes this the natural
/// shorthand).
fn resolve_group_refs(refs: Vec<String>, dims: &[DimSpec]) -> PResult<Vec<ColRef>> {
    let mut out = Vec::with_capacity(refs.len());
    for r in refs {
        if let Some((t, c)) = r.split_once('.') {
            out.push(ColRef {
                table: ident(t, "group table")?,
                column: ident(c, "group column")?,
            });
            continue;
        }
        let col = ident(&r, "group column")?;
        let carriers: Vec<&DimSpec> = dims.iter().filter(|d| d.carried.contains(&col)).collect();
        match carriers.as_slice() {
            [d] => out.push(ColRef {
                table: d.table.clone(),
                column: col,
            }),
            [] => {
                return Err(ParseError::new(format!(
                    "group column {col:?} is not carried by any dim \
                     (add it to a dim's carry=, or qualify as table.column)"
                )))
            }
            _ => {
                return Err(ParseError::new(format!(
                    "group column {col:?} is carried by several dims — qualify as table.column"
                )))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Pretty-printer
// ---------------------------------------------------------------------------

/// Renders a [`QuerySpec`] in the query language, canonically: `fact=`,
/// the `dim=` clauses in join order, `where=`, `agg=`, `group=`
/// (table-qualified), `order=`, `id=`. [`parse`] on the output yields the
/// spec back, field for field.
pub fn print(spec: &QuerySpec) -> String {
    use std::fmt::Write as _;
    let mut s = format!("fact={}", spec.fact);
    for d in &spec.dims {
        let _ = write!(s, " dim={}[join={}:{}", d.table, d.join_col, d.fact_col);
        for p in &d.predicates {
            let _ = write!(s, ";{}", print_predicate(p));
        }
        if !d.carried.is_empty() {
            let _ = write!(s, ";carry={}", d.carried.join(","));
        }
        s.push(']');
    }
    if !spec.fact_predicates.is_empty() {
        let preds: Vec<String> = spec.fact_predicates.iter().map(print_predicate).collect();
        let _ = write!(s, " where=[{}]", preds.join(";"));
    }
    if !spec.aggregates.is_empty() {
        let aggs: Vec<String> = spec
            .aggregates
            .iter()
            .map(|a| {
                let AggOp::Sum = a.op;
                format!("sum({}):{}", print_expr(&a.expr), a.label)
            })
            .collect();
        let _ = write!(s, " agg={}", aggs.join(","));
    }
    if !spec.group_by.is_empty() {
        let refs: Vec<String> = spec
            .group_by
            .iter()
            .map(|g| format!("{}.{}", g.table, g.column))
            .collect();
        let _ = write!(s, " group={}", refs.join(","));
    }
    if !spec.order_by.is_empty() {
        let keys: Vec<String> = spec
            .order_by
            .iter()
            .map(|k| {
                let (kind, i) = match k.term {
                    OrderTerm::Group(i) => ("group", i),
                    OrderTerm::Agg(i) => ("agg", i),
                };
                format!("{kind}:{i}{}", if k.desc { ":desc" } else { "" })
            })
            .collect();
        let _ = write!(s, " order={}", keys.join(","));
    }
    if !spec.id.is_empty() {
        let _ = write!(s, " id={}", spec.id);
    }
    s
}

fn print_predicate(p: &Predicate) -> String {
    match p {
        Predicate::Eq { column, value } => format!("{column}={}", print_value(value)),
        Predicate::In { column, values } => {
            let vs: Vec<String> = values.iter().map(print_value).collect();
            format!("{column} in {}", vs.join(","))
        }
        Predicate::Between { column, lo, hi } => {
            format!(
                "{column} between {} and {}",
                print_value(lo),
                print_value(hi)
            )
        }
        Predicate::Lt { column, value } => format!("{column} < {}", print_value(value)),
    }
}

fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Col(a) => a.clone(),
        Expr::Mul(a, b) => format!("{a}*{b}"),
        Expr::Sub(a, b) => format!("{a}-{b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_ssb::queries;

    #[test]
    fn issue_style_example_parses() {
        let q = parse(
            "fact=lineorder \
             dim=date[join=d_datekey:lo_orderdate;d_year between 1992 and 1997;carry=d_year] \
             agg=sum(lo_extendedprice*lo_discount):revenue group=d_year order=group:0",
        )
        .unwrap();
        assert_eq!(q.id, DEFAULT_ID);
        assert_eq!(q.fact, "lineorder");
        assert_eq!(q.dims.len(), 1);
        assert_eq!(q.dims[0].join_col, "d_datekey");
        assert_eq!(
            q.dims[0].predicates,
            vec![Predicate::between("d_year", 1992i64, 1997i64)]
        );
        // Bare group column resolved through the carrying dim.
        assert_eq!(q.group_by, vec![ColRef::new("date", "d_year")]);
        assert_eq!(q.order_by, vec![OrderKey::group(0)]);
    }

    #[test]
    fn all_13_ssb_queries_roundtrip_losslessly() {
        for spec in queries::all_queries() {
            let text = print(&spec);
            let parsed = parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", spec.id));
            assert_eq!(parsed, spec, "{} round-trip diverged:\n{text}", spec.id);
            // And printing the parse is a fixpoint.
            assert_eq!(print(&parsed), text, "{}", spec.id);
        }
    }

    #[test]
    fn values_distinguish_int_from_str_and_escape_quotes() {
        let q = parse(
            "fact=f dim=d[join=k:fk;a='1993';b=1993;c in 'x''y','UNITED KI1',7] agg=sum(m):s",
        )
        .unwrap();
        assert_eq!(
            q.dims[0].predicates,
            vec![
                Predicate::eq("a", "1993"),
                Predicate::eq("b", 1993i64),
                Predicate::is_in(
                    "c",
                    vec![Value::str("x'y"), Value::str("UNITED KI1"), Value::Int(7)]
                ),
            ]
        );
        // Round-trip keeps the types and the embedded quote.
        let text = print(&q);
        assert_eq!(parse(&text).unwrap(), q, "{text}");
    }

    #[test]
    fn where_clause_and_spaced_predicates() {
        let q = parse(
            "fact=f dim=d[join=k:fk] where=[q < 25;disc between 1 and 3;r = 'EUROPE'] \
             agg=sum(a*b):rev",
        )
        .unwrap();
        assert_eq!(
            q.fact_predicates,
            vec![
                Predicate::lt("q", 25i64),
                Predicate::between("disc", 1i64, 3i64),
                Predicate::eq("r", "EUROPE"),
            ]
        );
        assert_eq!(
            q.aggregates,
            vec![AggExpr::sum(Expr::Mul("a".into(), "b".into()), "rev")]
        );
    }

    #[test]
    fn syntax_errors_are_reported() {
        let cases = [
            ("", "missing fact"),
            ("fact=f fact=g", "duplicate fact"),
            ("fact=f nonsense=1", "unknown clause"),
            ("fact=f frob", "unknown clause"),
            ("fact=f dim=d[", "unbalanced"),
            ("fact=f dim=d]", "unbalanced"),
            ("fact=f dim=d[x=1]", "join="),
            ("fact=f dim=d[join=k:fk;a ~ 1]", "bad predicate"),
            ("fact=f dim=d[join=k:fk;a='x]", "unterminated"),
            ("fact=f dim=d[join=k:fk;a=ASIA]", "quote strings"),
            ("fact=f dim=d[join=k]", "join="),
            ("fact=f agg=avg(a):x", "bad aggregate"),
            ("fact=f agg=sum(a)", "bad aggregate"),
            ("fact=f order=group:x", "bad order"),
            ("fact=f order=rows:0", "bad order"),
            ("fact=f group=g", "not carried"),
            (
                "fact=f dim=d[join=k:fk;carry=g] dim=e[join=k2:fk2;carry=g] group=g",
                "several dims",
            ),
            ("fact=f id=a b", "unknown clause"),
            ("fact=9", "identifier"),
        ];
        for (text, want) in cases {
            match parse(text) {
                Err(e) => assert!(
                    e.to_string().contains(want),
                    "{text:?}: error {e:?} does not mention {want:?}"
                ),
                Ok(q) => panic!("{text:?} parsed as {q:?}"),
            }
        }
    }

    #[test]
    fn tokenize_respects_brackets_and_quotes() {
        let toks = tokenize("a=1 dim=d[x in 'a b','c'] cache=off").unwrap();
        assert_eq!(toks, vec!["a=1", "dim=d[x in 'a b','c']", "cache=off"]);
        assert!(tokenize("dim=d[oops").is_err());
        assert!(tokenize("x=']'").is_ok(), "brackets inside quotes are text");
        assert!(tokenize("x='unterminated").is_err());
    }

    #[test]
    fn clause_keys_are_disjoint_from_option_keys() {
        // The server's QUERY verb partitions tokens by key: these are the
        // per-request option keys (protocol::apply_overrides) and must
        // never collide with a clause.
        for opt in [
            "parallelism",
            "morsel_bits",
            "join_buffer",
            "select_join",
            "priority",
            "cache",
        ] {
            assert!(!is_clause_key(opt), "{opt} collides with a clause key");
        }
    }
}
