//! The metric vocabulary (names, units, directions, regression bounds), the
//! latency percentile rule, and the one-line JSON result the driver reads.
//!
//! `/BENCHMARK.json` repeats the two tables below for the driver; a unit
//! test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a client of the system sees (measured with tracing off). The
/// timing bounds sit at the contract's maximum because the 2-core sandbox
/// needs it: identical runs drifted by 10% within half an hour, and one
/// set of ten `served_hit` runs spread 34% where another spread 1.7% (see
/// the README's spread table). `write_refresh`'s `VmHWM` follows the
/// number of cycles that fit the window: its median moved 6.5% between sets.
pub const END_TO_END: &[MetricDef] = &[
    gated("qps", "1/s", Better::Higher, 0.25),
    gated("p50_ms", "ms", Better::Lower, 0.25),
    gated("p95_ms", "ms", Better::Lower, 0.25),
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Single-layer metrics (from the traced run only). A layer that is not on
/// a workload's path reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("index.lookup_ns", "ns", Better::Lower),
    layer("index.batch_lookup_ns", "ns", Better::Lower),
    layer("index.bytes_per_row", "B/row", Better::Lower),
    layer("storage.insert_us_per_row", "us", Better::Lower),
    layer("ssb.generate_s", "s", Better::Lower),
    layer("storage.index_build_s", "s", Better::Lower),
    layer("core.plan_us", "us", Better::Lower),
    layer("core.sigma_us", "us", Better::Lower),
    layer("core.decode_us", "us", Better::Lower),
    layer("core.keys_per_row", "ratio", Better::Lower),
    layer("par.exec_us", "us", Better::Lower),
    layer("query.parse_us", "us", Better::Lower),
    layer("cache.fingerprint_us", "us", Better::Lower),
    layer("cache.hit_ratio.plan", "ratio", Better::Higher),
    layer("cache.hit_ratio.dim", "ratio", Better::Higher),
    layer("cache.hit_ratio.selection", "ratio", Better::Higher),
    layer("cache.hit_ratio.result", "ratio", Better::Higher),
    layer("cache.evictions", "count", Better::Lower),
    layer("cache.bytes", "B", Better::Lower),
    layer("server.parse_us", "us", Better::Lower),
    layer("server.engine_us", "us", Better::Lower),
    layer("server.serialize_us", "us", Better::Lower),
    layer("server.wire_us", "us", Better::Lower),
    layer("router.self_us", "us", Better::Lower),
    layer("router.shard_skew_us", "us", Better::Lower),
    layer("share.engine_pct", "%", Better::Higher),
    layer("share.router_pct", "%", Better::Lower),
    layer("share.insert_pct", "%", Better::Lower),
    layer("trace.coverage", "ratio", Better::Higher),
    layer("trace.overhead", "ratio", Better::Higher),
];

/// Named values of one run, in table order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`. A speed-up "scaling" number is meaningless
    /// from a 2-core sandbox (and a lie from a 1-core one), so this
    /// benchmark refuses to emit anything labelled as one.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !name.contains("scaling"),
            "refusing to report a metric labelled scaling: {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result of one run: what the last stdout line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The driver's result line. Every metric of `table` must have been
    /// set; values print with all their digits (`{}` on `f64` is the
    /// shortest text that round-trips).
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|def| {
                let value = self
                    .metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name, value, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }

    /// The human-readable block: one `name value unit` row per metric.
    pub fn print_rows(&self, table: &[MetricDef]) {
        for def in table {
            if let Some(v) = self.metrics.get(def.name) {
                println!("{:<28} {:>16.4} {}", def.name, v, def.unit);
            }
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — anything higher is a statement about fewer than ten
/// requests. `None` below 20 samples (even the median fails the rule).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In basis points, so the count beyond is exact integer arithmetic.
    [9999u64, 9990, 9900, 9500, 9000, 5000]
        .into_iter()
        .find(|bp| samples as u64 * (10_000 - bp) >= 10 * 10_000)
        .map(|bp| bp as f64 / 100.0)
}

/// Relative worsening of `second` against `first` for a metric whose
/// improvement direction is `better` (positive = got worse).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

pub mod json {
    //! A small JSON reader — enough to read back this benchmark's own
    //! result line (`--check-repeat`, unit tests) and `/BENCHMARK.json`.

    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                other => panic!("expected a number, found {other:?}"),
            }
        }

        #[cfg(test)]
        pub fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("expected a string, found {other:?}"),
            }
        }

        #[cfg(test)]
        pub fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                other => panic!("expected an array, found {other:?}"),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", ch as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    fields.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(string(b, pos)?)),
            Some(_) => {
                let rest = &b[*pos..];
                for (word, json) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        *pos += word.len();
                        return Ok(json);
                    }
                }
                let len = rest
                    .iter()
                    .take_while(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .count();
                let text = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                let n = text
                    .parse()
                    .map_err(|_| format!("bad number {text:?} at byte {pos}"))?;
                *pos += len;
                Ok(Json::Num(n))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Strings without escapes beyond `\"` and `\\` — all this benchmark
    /// writes or reads.
    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {pos}"));
        }
        *pos += 1;
        let mut out = Vec::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("dangling escape")?;
                    *pos += 1;
                    out.push(esc);
                }
                _ => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::json::{self, Json};
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn result_line_round_trips() {
        let mut metrics = Metrics::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            metrics.set(def.name, 1.0 / 3.0 + i as f64);
        }
        let outcome = Outcome {
            attempted: 1234,
            failed: 0,
            metrics,
        };
        let parsed = json::parse(&outcome.to_json(END_TO_END)).expect("own output parses");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").unwrap().num(), 1234.0);
        assert_eq!(parsed.get("failed").unwrap().num(), 0.0);
        let Json::Obj(fields) = parsed.get("metrics").unwrap() else {
            panic!("metrics is an object");
        };
        assert_eq!(fields.len(), END_TO_END.len());
        for (i, def) in END_TO_END.iter().enumerate() {
            let m = parsed.get("metrics").unwrap().get(def.name).unwrap();
            // Bit-exact: the value prints with all its digits.
            assert_eq!(m.get("value").unwrap().num(), 1.0 / 3.0 + i as f64);
            assert_eq!(m.get("unit").unwrap().str(), def.unit);
        }
    }

    #[test]
    #[should_panic(expected = "scaling")]
    fn scaling_labels_are_refused() {
        Metrics::default().set("par.scaling_2x", 1.9);
    }

    /// `/BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let path = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break candidate;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        };
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json reads");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).expect(key).arr();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").unwrap().str(), def.name);
                assert_eq!(entry.get("unit").unwrap().str(), def.unit);
                let better = match def.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(entry.get("better").unwrap().str(), better, "{}", def.name);
                assert_eq!(entry.get("bound").map(Json::num), def.bound, "{}", def.name);
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").unwrap().str())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").unwrap().num(),
            crate::RUN_SECONDS as f64
        );
    }
}
