//! Shared helpers for the experiment binaries of the Moonshot reproduction.
//!
//! The binaries live in `src/bin/`; each regenerates one table or figure of
//! the paper. This library holds the scale-selection logic they share.

#![forbid(unsafe_code)]

use moonshot_sim::experiment::Scale;

/// Reads the experiment scale from `MOONSHOT_SCALE` (`quick`, `standard`,
/// `paper`), defaulting to `standard`.
pub fn scale_from_env() -> Scale {
    match std::env::var("MOONSHOT_SCALE").as_deref() {
        Ok("quick") => Scale::quick(),
        Ok("paper") => Scale::paper(),
        _ => Scale::standard(),
    }
}

/// Returns `results/<name>`, creating the `results/` directory. All
/// experiment binaries write their CSV / JSON / JSONL artifacts there.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    dir.join(name)
}

/// Writes `contents` to `results/<name>` and logs the path to stderr.
pub fn write_results(name: &str, contents: &str) {
    let path = results_path(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}
