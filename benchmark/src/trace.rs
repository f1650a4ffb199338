//! The traced run's recorder: spans around every call the benchmark makes
//! into the program, and a 1 Hz sampler of counters at the same
//! boundaries. Everything stays in memory until the run ends. Spans inside
//! the program are a later issue.
//!
//! The sampler runs on the benchmark's control thread (between its 5 ms
//! polls) because heights and counters are read through `&Cluster`, which
//! that thread owns.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::proc;

/// Id of the root span every other span descends from.
pub const ROOT: u32 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

/// Counters read at one sampling boundary.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub at_us: u64,
    pub cpu_s: BTreeMap<&'static str, f64>,
    pub accepted: u64,
    pub refused: u64,
    pub wakeups: u64,
    pub frames: u64,
    pub quorum_height: u64,
    pub min_height: u64,
    pub max_height: u64,
}

/// Which layer a thread's processor time belongs to, by thread name.
pub fn thread_class(name: &str) -> &'static str {
    const CLASSES: [(&str, &str); 8] = [
        ("net-shard-", "netpool"),
        ("net-dial", "netpool"),
        ("net-ingest", "netpool"),
        ("net-verify-", "verify"),
        ("batch-assembler", "assembler"),
        ("ledger-", "ledger"),
        ("driver-", "driver"),
        ("bench-", "bench"),
    ];
    CLASSES
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("other", |(_, c)| c)
}

/// Per-thread-class processor seconds since a baseline. Threads come and
/// go (a killed node's driver, a restarted one), so each thread's last
/// reading is kept: a class total is the sum over its threads of
/// last − baseline, with baseline 0 for threads born after it.
#[derive(Debug, Default)]
pub struct ClassCpu {
    main_tid: u64,
    /// tid → (class, baseline, last reading).
    threads: BTreeMap<u64, (&'static str, f64, f64)>,
}

impl ClassCpu {
    /// Starts counting now. `main_tid` is the benchmark's control thread,
    /// whose name is the binary's.
    pub fn baseline(main_tid: u64) -> ClassCpu {
        let mut cpu = ClassCpu {
            main_tid,
            threads: BTreeMap::new(),
        };
        for (tid, name, s) in proc::threads() {
            cpu.threads.insert(tid, (cpu.class_of(tid, &name), s, s));
        }
        cpu
    }

    fn class_of(&self, tid: u64, name: &str) -> &'static str {
        if tid == self.main_tid {
            "bench"
        } else {
            thread_class(name)
        }
    }

    pub fn sample(&mut self) {
        for (tid, name, s) in proc::threads() {
            let class = self.class_of(tid, &name);
            self.threads
                .entry(tid)
                .and_modify(|t| t.2 = s)
                .or_insert((class, 0.0, s));
        }
    }

    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (class, base, last) in self.threads.values() {
            *out.entry(*class).or_insert(0.0) += last - base;
        }
        out
    }
}

/// Spans and samples of one run. Disabled, it records nothing.
#[derive(Debug, Default)]
pub struct Recorder {
    pub enabled: bool,
    pub spans: Vec<Span>,
    pub samples: Vec<Sample>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            ..Recorder::default()
        }
    }

    /// Records a finished span; returns its id (for children).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u32,
        start_us: u64,
        end_us: u64,
        attrs: Vec<(&'static str, f64)>,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_us,
                end_us,
                attrs,
            });
        }
        id
    }

    /// The whole trace as one document.
    pub fn to_json(&self, run_id: &str, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut attrs = Json::obj();
                for (k, v) in &s.attrs {
                    attrs = attrs.set(k, *v);
                }
                Json::obj()
                    .set("id", s.id as u64)
                    .set("parent", s.parent as u64)
                    .set("run", run_id)
                    .set("name", s.name)
                    .set("start_us", s.start_us)
                    .set("end_us", s.end_us)
                    .set("attrs", attrs)
            })
            .collect::<Vec<_>>();
        let samples = self
            .samples
            .iter()
            .map(|s| {
                let mut cpu = Json::obj();
                for (k, v) in &s.cpu_s {
                    cpu = cpu.set(k, *v);
                }
                Json::obj()
                    .set("at_us", s.at_us)
                    .set("cpu_s", cpu)
                    .set("pool_accepted", s.accepted)
                    .set("pool_refused", s.refused)
                    .set("netpool_wakeups", s.wakeups)
                    .set("netpool_frames", s.frames)
                    .set("quorum_height", s.quorum_height)
                    .set("min_height", s.min_height)
                    .set("max_height", s.max_height)
            })
            .collect::<Vec<_>>();
        Json::obj()
            .set("run", run_id)
            .set("workload", workload)
            .set("seed", seed)
            .set("spans", spans)
            .set("samples", samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_map_to_layers() {
        assert_eq!(thread_class("net-shard-1"), "netpool");
        assert_eq!(thread_class("net-verify-0"), "verify");
        assert_eq!(thread_class("batch-assembler"), "assembler");
        assert_eq!(thread_class("driver-P3"), "driver");
        assert_eq!(thread_class("ledger-P0"), "ledger");
        assert_eq!(thread_class("introspect-P2"), "other");
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut off = Recorder::new(false);
        off.span("x", ROOT, 0, 1, vec![]);
        assert!(off.spans.is_empty());
        let mut on = Recorder::new(true);
        let parent = on.span("window", ROOT, 0, 10, vec![("blocks", 3.0)]);
        on.span("generator.tick", parent, 0, 5, vec![]);
        assert_eq!(on.spans[1].parent, parent);
        assert!(on
            .to_json("r", "w", 1)
            .encode()
            .contains("\"name\":\"generator.tick\""));
    }
}
