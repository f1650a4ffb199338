//! A small metrics registry: named counters, gauges and histograms.
//!
//! One registry per run. Names are dotted paths (`"commit.latency_us"`,
//! `"msgs.vote.bytes"`); [`MetricsRegistry::to_json`] serialises the whole
//! registry for summary files.
//!
//! **Ordering guarantee**: all three sections are backed by `BTreeMap`s, so
//! every snapshot — `to_json`, the name iterators — lists metrics in sorted
//! key order, regardless of insertion order. Bench diffs and CI assertions
//! may rely on two registries with the same contents serialising to
//! byte-identical JSON.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::json::JsonObject;

/// Named counters, gauges and histograms for one run.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_default() += delta;
    }

    /// Reads counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets counter `name` to an absolute `value`, read off a monotone
    /// source another component owns (an atomic of the transport, the
    /// cache, the ledger).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`, creating it with
    /// [`Histogram::for_latency_us`] sizing on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::for_latency_us)
            .record(value);
    }

    /// Replaces histogram `name` with an absolute snapshot (used by
    /// publishers that maintain their own histogram and export it whole,
    /// e.g. the ledger's fsync-latency histogram).
    pub fn set_histogram(&mut self, name: &str, histogram: Histogram) {
        self.histograms.insert(name.to_string(), histogram);
    }

    /// Reads histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Serialises the registry as
    /// `{"counters":{...},"gauges":{...},"histograms":{name:summary}}`.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (k, v) in &self.counters {
            counters.field_u64(k, *v);
        }
        let mut gauges = JsonObject::new();
        for (k, v) in &self.gauges {
            gauges.field_f64(k, *v);
        }
        let mut hists = JsonObject::new();
        for (k, h) in &self.histograms {
            hists.field_raw(k, &h.summary().to_json_ms());
        }
        let mut o = JsonObject::new();
        o.field_raw("counters", &counters.finish());
        o.field_raw("gauges", &gauges.finish());
        o.field_raw("histograms", &hists.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.incr("msgs.vote.count", 1);
        r.incr("msgs.vote.count", 2);
        assert_eq!(r.counter("msgs.vote.count"), 3);
        assert_eq!(r.counter("unknown"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("throughput_bps", 10.0);
        r.set_gauge("throughput_bps", 12.5);
        assert_eq!(r.gauge("throughput_bps"), Some(12.5));
    }

    #[test]
    fn histograms_observe() {
        let mut r = MetricsRegistry::new();
        r.observe("commit.latency_us", 31_000);
        r.observe("commit.latency_us", 35_000);
        let h = r.histogram("commit.latency_us").unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn set_counter_is_idempotent_where_incr_accumulates() {
        let mut r = MetricsRegistry::new();
        r.set_counter("net.bytes_out", 100);
        r.set_counter("net.bytes_out", 100); // re-snapshot, same source
        assert_eq!(r.counter("net.bytes_out"), 100);
        r.set_counter("net.bytes_out", 250);
        assert_eq!(r.counter("net.bytes_out"), 250);
        r.incr("net.bytes_out", 1);
        assert_eq!(r.counter("net.bytes_out"), 251);
    }

    #[test]
    fn snapshot_order_is_deterministic_regardless_of_insertion_order() {
        // Two registries, same metrics, opposite insertion orders: the
        // JSON must be byte-identical and keys sorted — bench diffs and CI
        // greps depend on it.
        let mut a = MetricsRegistry::new();
        a.incr("z.last", 1);
        a.incr("a.first", 2);
        a.set_gauge("m.mid", 3.0);
        a.set_gauge("b.early", 4.0);
        a.observe("stage.vote_to_qc", 5);
        a.observe("stage.mempool_queue", 6);

        let mut b = MetricsRegistry::new();
        b.observe("stage.mempool_queue", 6);
        b.observe("stage.vote_to_qc", 5);
        b.set_gauge("b.early", 4.0);
        b.set_gauge("m.mid", 3.0);
        b.incr("a.first", 2);
        b.incr("z.last", 1);

        let (ja, jb) = (a.to_json(), b.to_json());
        assert_eq!(ja, jb);
        assert!(ja.find("\"a.first\"").unwrap() < ja.find("\"z.last\"").unwrap());
        assert!(ja.find("\"b.early\"").unwrap() < ja.find("\"m.mid\"").unwrap());
        assert!(ja.find("stage.mempool_queue").unwrap() < ja.find("stage.vote_to_qc").unwrap());
    }

    #[test]
    fn json_contains_all_sections() {
        let mut r = MetricsRegistry::new();
        r.incr("a", 1);
        r.set_gauge("b", 2.0);
        r.observe("c", 3);
        let j = r.to_json();
        assert!(j.contains("\"counters\":{\"a\":1}"));
        assert!(j.contains("\"gauges\":{\"b\":2}"));
        assert!(j.contains("\"c\":{\"count\":1"));
    }
}
