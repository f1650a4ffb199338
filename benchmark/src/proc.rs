//! Processor time and memory of this process, read from `/proc`.

/// Linux reports task times in `USER_HZ` units, fixed at 100 per second
/// on every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime (fields 14 and 15) of a `stat` line, in seconds. The
/// command name (field 2) may hold spaces, so fields count from the last
/// `)`.
fn cpu_seconds_of(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Processor seconds of the whole process so far, exited threads included.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_of(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// The calling thread's id.
pub fn own_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Processor seconds of one live thread; 0 once it has exited.
pub fn thread_cpu_s(tid: u64) -> f64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .ok()
        .and_then(|s| cpu_seconds_of(&s))
        .unwrap_or(0.0)
}

/// `(thread id, name, processor seconds)` of every live thread.
pub fn threads() -> Vec<(u64, String, f64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            Some((tid, name.trim().to_string(), cpu_seconds_of(&stat)?))
        })
        .collect()
}

/// A `kB` line of `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix(key))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of the process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0 1 2 3";
        assert_eq!(cpu_seconds_of(line), Some(3.0));
        assert!(process_cpu_s() >= 0.0);
        assert!(threads().iter().any(|(tid, _, _)| *tid == own_tid()));
    }
}
