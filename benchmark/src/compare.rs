//! `compare <a.json> <b.json>`: is B no worse than A?
//!
//! For every (end-to-end metric, workload) pair both files report, prints
//! both medians, both spreads between repeats, the difference and the
//! bound, and labels the pair
//! `same` (B's median is not worse than A's by more than the bound),
//! `worse`, or `unresolved` (the spread between repeats on either side is
//! wider than the bound, so the pair cannot be judged).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, FAILED_SHARE_BOUND};
use crate::stats::{median, spread_share};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one pair from each side's repeats.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let verdict = if spread_share(a) > m.bound || spread_share(b) > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    (ma, mb, verdict)
}

/// `(workload, metric) → values over repeats`, plus failed shares.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut values = Values::new();
    for run in doc
        .get("runs")
        .ok_or(format!("{path}: no \"runs\""))?
        .as_array()
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        for (name, entry) in run.get("end_to_end").map(Json::as_object).unwrap_or(&[]) {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        let attempted = run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        values
            .entry((workload, "failed_share".to_string()))
            .or_default()
            .push(failed / attempted.max(1.0));
    }
    Ok(values)
}

/// Prints the table; `Ok(true)` when no pair is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<13} {:<26} {:>14} {:>14} {:>8} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "A spread", "B spread", "diff", "bound"
    );
    let mut clean = true;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for workload in workloads {
        for m in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
            let key = (workload.clone(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb, verdict) = judge(m, va, vb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{workload:<13} {:<26} {ma:>14.3} {mb:>14.3} {:>7.2}% {:>7.2}% {:>+8.2}% {:>5.0}%  {}",
                format!("{} [{}]", m.name, m.unit),
                spread_share(va) * 100.0,
                spread_share(vb) * 100.0,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        let key = (workload.clone(), "failed_share".to_string());
        if let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) {
            let (ma, mb) = (median(va).unwrap_or(0.0), median(vb).unwrap_or(0.0));
            let worse = mb - ma > FAILED_SHARE_BOUND;
            clean &= !worse;
            println!(
                "{workload:<13} {:<26} {ma:>14.5} {mb:>14.5} {:>8} {:>8} {:>+9.5} {:>6.3}  {}",
                "failed_share [ratio]",
                "",
                "",
                mb - ma,
                FAILED_SHARE_BOUND,
                if worse { "worse" } else { "same" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn worse_means_beyond_the_bound_in_the_bad_direction() {
        let latency = metric("tx_commit_p50_ms"); // lower is better, 10 %
        assert_eq!(judge(latency, &[100.0], &[109.0]).2, Verdict::Same);
        assert_eq!(judge(latency, &[100.0], &[111.0]).2, Verdict::Worse);
        assert_eq!(judge(latency, &[100.0], &[50.0]).2, Verdict::Same);
        let goodput = metric("goodput_tps"); // higher is better, 10 %
        assert_eq!(judge(goodput, &[1000.0], &[880.0]).2, Verdict::Worse);
        assert_eq!(judge(goodput, &[1000.0], &[2000.0]).2, Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let latency = metric("tx_commit_p50_ms");
        let noisy = [80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(
            judge(latency, &noisy, &[100.0, 101.0, 99.0, 100.0]).2,
            Verdict::Unresolved
        );
        let steady = [99.0, 100.0, 101.0, 100.0];
        let (ma, mb, verdict) = judge(latency, &steady, &[120.0, 121.0, 119.0, 120.0]);
        assert_eq!((ma, mb, verdict), (100.0, 120.0, Verdict::Worse));
    }
}
