//! A named-metric registry with one Prometheus-text renderer.
//!
//! Each part of the serving stack creates its counters, gauges and
//! histograms here, once, under stable names with static labels
//! (`kind`, `stage`, `code`, …), and keeps the returned `Arc`s to
//! update them; `/metrics` is then a [`Registry::render`] call instead
//! of each layer hand-formatting its own block. Histograms render as
//! real cumulative `_bucket{le=…}` series (boundaries in **seconds**,
//! from [`Histogram::bucket_le_ns`]) plus `_sum`/`_count`, so quantiles
//! can be computed server-side by any Prometheus-compatible scraper.
//!
//! Creating a series is rare (startup) and rendering is debug-path, so
//! the registry itself is a plain `Mutex<Vec<…>>`; the *metrics* stay
//! lock-free — the registry only holds `Arc`s to them.

use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};

/// A handle to one registered metric.
#[derive(Debug, Clone)]
enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Point-in-time gauge.
    Gauge(Arc<Gauge>),
    /// Log₂ nanosecond histogram (rendered in seconds).
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// Named metric families, rendered as Prometheus text.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name` + `labels`,
    /// creating it on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.get_or_insert(name, labels, help, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as {other:?}, wanted counter"),
        }
    }

    /// Returns the gauge registered under `name` + `labels`, creating
    /// it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, help, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Returns the histogram registered under `name` + `labels`,
    /// creating it on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, help, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as {other:?}, wanted histogram"),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut fams = self.families.lock().unwrap();
        if let Some(f) = fams
            .iter()
            .find(|f| f.name == name && f.labels == labels)
        {
            return f.metric.clone();
        }
        let metric = make();
        fams.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Renders every registered family as Prometheus text exposition:
    /// `# HELP`/`# TYPE` once per metric name (first-registration
    /// order), then one series line per label set. Histogram families
    /// expand into cumulative `_bucket{le="<seconds>"}` lines up to the
    /// highest occupied bucket, a `+Inf` bucket, `_sum` (seconds) and
    /// `_count` — an empty histogram still renders its `+Inf` bucket
    /// so scrapers always see the series.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::with_capacity(4096);
        let mut seen: Vec<&str> = Vec::new();
        for f in fams.iter() {
            if seen.contains(&f.name.as_str()) {
                continue;
            }
            seen.push(&f.name);
            let kind = match &f.metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            if !f.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            }
            out.push_str(&format!("# TYPE {} {}\n", f.name, kind));
            for g in fams.iter().filter(|g| g.name == f.name) {
                render_series(&mut out, g);
            }
        }
        out
    }
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn render_series(out: &mut String, f: &Family) {
    match &f.metric {
        Metric::Counter(c) => {
            out.push_str(&format!("{}{} {}\n", f.name, fmt_labels(&f.labels, None), c.get()));
        }
        Metric::Gauge(g) => {
            out.push_str(&format!("{}{} {}\n", f.name, fmt_labels(&f.labels, None), g.get()));
        }
        Metric::Histogram(h) => {
            let counts = h.bucket_counts();
            let last = counts.iter().rposition(|&c| c > 0);
            let mut cum = 0u64;
            if let Some(last) = last {
                for (b, &c) in counts.iter().enumerate().take(last + 1) {
                    cum += c;
                    let le = format!("{}", Histogram::bucket_le_ns(b) as f64 / 1e9);
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        f.name,
                        fmt_labels(&f.labels, Some(("le", &le))),
                        cum
                    ));
                }
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                f.name,
                fmt_labels(&f.labels, Some(("le", "+Inf"))),
                cum
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                f.name,
                fmt_labels(&f.labels, None),
                h.total_ns() as f64 / 1e9
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                f.name,
                fmt_labels(&f.labels, None),
                h.count()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_metric() {
        let r = Registry::new();
        let a = r.counter("ah_test_total", &[("shard", "0")], "help");
        let b = r.counter("ah_test_total", &[("shard", "0")], "help");
        let c = r.counter("ah_test_total", &[("shard", "1")], "help");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(c.get(), 0);
        let text = r.render();
        assert!(text.contains("ah_test_total{shard=\"0\"} 1"), "{text}");
        assert!(text.contains("ah_test_total{shard=\"1\"} 0"), "{text}");
        // HELP/TYPE appear once for the whole family.
        assert_eq!(text.matches("# TYPE ah_test_total counter").count(), 1);
    }

    #[test]
    fn histogram_renders_cumulative_buckets_in_seconds() {
        let r = Registry::new();
        let h = r.histogram("ah_lat_seconds", &[("backend", "AH")], "latency");
        h.record_ns(1); // bucket 0, le 1e-9
        h.record_ns(3); // bucket 1, le 3e-9
        h.record_ns(3);
        let text = r.render();
        assert!(text.contains("# TYPE ah_lat_seconds histogram"), "{text}");
        assert!(
            text.contains("ah_lat_seconds_bucket{backend=\"AH\",le=\"0.000000001\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ah_lat_seconds_bucket{backend=\"AH\",le=\"0.000000003\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("ah_lat_seconds_bucket{backend=\"AH\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("ah_lat_seconds_count{backend=\"AH\"} 3"), "{text}");
        assert!(text.contains("ah_lat_seconds_sum{backend=\"AH\"} 0.000000007"), "{text}");
    }

    #[test]
    fn help_and_type_emit_once_per_family_across_call_sites() {
        // The invariant the Prometheus exposition format demands: a
        // family registered under many label sets — by *different call
        // sites, interleaved with other families* (exactly how the
        // server's metrics, its tracer and a reloader share one registry) —
        // renders one # HELP and one # TYPE line, with every series of
        // the family grouped contiguously under them.
        let r = Registry::new();
        // Call site 1: the "edge" registers shard 0 series.
        r.counter("ah_multi_total", &[("shard", "0")], "multi help").inc();
        r.histogram("ah_multi_seconds", &[("shard", "0")], "hist help");
        // Call site 2: an unrelated family lands in between.
        r.gauge("ah_other_gauge", &[], "other").set(3);
        // Call site 3: a "lane" registers more label sets of the same
        // families.
        r.counter("ah_multi_total", &[("shard", "1")], "multi help");
        r.counter("ah_multi_total", &[("shard", "2"), ("backend", "AH")], "multi help");
        r.histogram("ah_multi_seconds", &[("shard", "1")], "hist help");

        let text = r.render();
        for family in ["ah_multi_total", "ah_multi_seconds", "ah_other_gauge"] {
            assert_eq!(
                text.matches(&format!("# TYPE {family} ")).count(),
                1,
                "TYPE for {family} must appear exactly once:\n{text}"
            );
            assert_eq!(
                text.matches(&format!("# HELP {family} ")).count(),
                1,
                "HELP for {family} must appear exactly once:\n{text}"
            );
        }
        // All three label sets rendered under the one header…
        assert!(text.contains("ah_multi_total{shard=\"0\"} 1"), "{text}");
        assert!(text.contains("ah_multi_total{shard=\"1\"} 0"), "{text}");
        assert!(
            text.contains("ah_multi_total{shard=\"2\",backend=\"AH\"} 0"),
            "{text}"
        );
        // …and grouped contiguously: no series line of another family
        // may sit between a family's TYPE line and its last series.
        let type_pos = text.find("# TYPE ah_multi_total").unwrap();
        let last_series = text.rfind("ah_multi_total{").unwrap();
        let between = &text[type_pos..last_series];
        assert!(
            !between.contains("ah_other_gauge") && !between.contains("ah_multi_seconds"),
            "family block interleaved with another family:\n{text}"
        );
    }

    #[test]
    fn empty_histogram_still_renders_inf_bucket() {
        let r = Registry::new();
        r.histogram("ah_empty_seconds", &[], "");
        let text = r.render();
        assert!(text.contains("ah_empty_seconds_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("ah_empty_seconds_count 0"), "{text}");
    }
}
