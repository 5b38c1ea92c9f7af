//! Named metric families with label sets, rendered in Prometheus text
//! exposition format.
//!
//! Registration is get-or-create by `(name, labels)`: the first caller
//! allocates the metric, later callers get the same `Arc`. Callers hold
//! the returned handles and record through them lock-free; the registry
//! mutex is only taken at registration and render time. Families render
//! in registration order so scrapes are stable and diffable.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, LATENCY_BUCKETS_MICROS};

/// A `(key, value)` label pair; values are rendered escaped per the
/// Prometheus text format.
pub type Label = (&'static str, String);

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<Label>,
    metric: Metric,
}

struct Family {
    name: Cow<'static, str>,
    help: &'static str,
    kind: &'static str, // "counter" | "gauge" | "histogram"
    series: Vec<Series>,
}

/// The process-wide metric registry behind the `METRICS` verb.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: impl Into<Cow<'static, str>>, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, Vec::new())
    }

    /// Registers (or retrieves) a counter with a label set.
    pub fn counter_with(
        &self,
        name: impl Into<Cow<'static, str>>,
        help: &'static str,
        labels: Vec<Label>,
    ) -> Arc<Counter> {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = Self::family(&mut families, name.into(), help, "counter");
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            match &s.metric {
                Metric::Counter(c) => return c.clone(),
                _ => panic!("metric {} registered with a different type", family.name),
            }
        }
        let c = Arc::new(Counter::new());
        family.series.push(Series {
            labels,
            metric: Metric::Counter(c.clone()),
        });
        c
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, Vec::new())
    }

    /// Registers (or retrieves) a gauge with a label set.
    pub fn gauge_with(
        &self,
        name: impl Into<Cow<'static, str>>,
        help: &'static str,
        labels: Vec<Label>,
    ) -> Arc<Gauge> {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = Self::family(&mut families, name.into(), help, "gauge");
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            match &s.metric {
                Metric::Gauge(g) => return g.clone(),
                _ => panic!("metric {} registered with a different type", family.name),
            }
        }
        let g = Arc::new(Gauge::new());
        family.series.push(Series {
            labels,
            metric: Metric::Gauge(g.clone()),
        });
        g
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(
        &self,
        name: impl Into<Cow<'static, str>>,
        help: &'static str,
    ) -> Arc<Histogram> {
        self.histogram_with(name, help, Vec::new())
    }

    /// Registers (or retrieves) a histogram with a label set.
    pub fn histogram_with(
        &self,
        name: impl Into<Cow<'static, str>>,
        help: &'static str,
        labels: Vec<Label>,
    ) -> Arc<Histogram> {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = Self::family(&mut families, name.into(), help, "histogram");
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            match &s.metric {
                Metric::Histogram(h) => return h.clone(),
                _ => panic!("metric {} registered with a different type", family.name),
            }
        }
        let h = Arc::new(Histogram::new());
        family.series.push(Series {
            labels,
            metric: Metric::Histogram(h.clone()),
        });
        h
    }

    fn family<'a>(
        families: &'a mut Vec<Family>,
        name: Cow<'static, str>,
        help: &'static str,
        kind: &'static str,
    ) -> &'a mut Family {
        if let Some(i) = families.iter().position(|f| f.name == name) {
            assert_eq!(
                families[i].kind, kind,
                "metric {name} registered as both {} and {kind}",
                families[i].kind
            );
            return &mut families[i];
        }
        families.push(Family {
            name,
            help,
            kind,
            series: Vec::new(),
        });
        families.last_mut().expect("just pushed")
    }

    /// Renders the full exposition in Prometheus text format. Families
    /// appear in registration order; histogram buckets are cumulative
    /// with a trailing `+Inf` bucket, `_sum`, and `_count`.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut out = String::new();
        for family in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind));
            for series in &family.series {
                match &series.metric {
                    Metric::Counter(c) => out.push_str(&sample_line(
                        &family.name,
                        &series.labels,
                        None,
                        c.get() as i64,
                    )),
                    Metric::Gauge(g) => {
                        out.push_str(&sample_line(&family.name, &series.labels, None, g.get()))
                    }
                    Metric::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cum += c;
                            let le = LATENCY_BUCKETS_MICROS
                                .get(i)
                                .map(|b| b.to_string())
                                .unwrap_or_else(|| "+Inf".to_string());
                            let mut labels = series.labels.clone();
                            labels.push(("le", le));
                            out.push_str(&sample_line(
                                &family.name,
                                &labels,
                                Some("_bucket"),
                                cum as i64,
                            ));
                        }
                        out.push_str(&sample_line(
                            &family.name,
                            &series.labels,
                            Some("_sum"),
                            h.sum() as i64,
                        ));
                        out.push_str(&sample_line(
                            &family.name,
                            &series.labels,
                            Some("_count"),
                            h.count() as i64,
                        ));
                    }
                }
            }
        }
        out
    }
}

fn sample_line(name: &str, labels: &[Label], suffix: Option<&str>, value: i64) -> String {
    let mut line = String::new();
    line.push_str(name);
    if let Some(s) = suffix {
        line.push_str(s);
    }
    if !labels.is_empty() {
        line.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        line.push('}');
    }
    line.push_str(&format!(" {value}\n"));
    line
}

/// Escapes a label value per the Prometheus text format.
pub fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("qppt_test_total", "test counter");
        let b = r.counter("qppt_test_total", "test counter");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        let q = r.counter_with("qppt_req_total", "reqs", vec![("verb", "QUERY".into())]);
        let p = r.counter_with("qppt_req_total", "reqs", vec![("verb", "PING".into())]);
        q.add(3);
        p.add(5);
        assert_eq!(q.get(), 3);
        assert_eq!(p.get(), 5);
        let text = r.render();
        assert!(text.contains("qppt_req_total{verb=\"QUERY\"} 3"));
        assert!(text.contains("qppt_req_total{verb=\"PING\"} 5"));
        // One HELP/TYPE pair for the whole family.
        assert_eq!(text.matches("# TYPE qppt_req_total counter").count(), 1);
    }

    #[test]
    fn render_histogram_is_cumulative_with_inf() {
        let r = Registry::new();
        let h = r.histogram("qppt_lat_micros", "latency");
        h.record(7);
        h.record(7);
        h.record(u64::MAX); // overflow bucket
        let text = r.render();
        assert!(text.contains("# TYPE qppt_lat_micros histogram"));
        assert!(text.contains("qppt_lat_micros_bucket{le=\"10\"} 2"));
        assert!(text.contains("qppt_lat_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("qppt_lat_micros_count 3"));
    }

    #[test]
    fn gauge_renders_negative() {
        let r = Registry::new();
        let g = r.gauge("qppt_depth", "queue depth");
        g.set(-2);
        assert!(r.render().contains("qppt_depth -2"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
