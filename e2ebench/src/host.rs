//! What the benchmark reads about its host and its own processes: the
//! result stamp (host, compiler, build profile, commit, source digest) and
//! per-process peak RSS and CPU time from `/proc`.

use crate::json::{num, obj, string};
use crate::sha256::Sha256;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// The host part of the stamp. Results whose host differs are never
/// compared.
pub fn host() -> Value {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    obj([
        ("cpus", num(cpus as f64)),
        ("cpu_model", string(cpu_model)),
        ("kernel", string(kernel)),
    ])
}

/// The full stamp for results produced from the source tree at `root`.
pub fn stamp(root: &Path) -> Value {
    obj([
        ("host", host()),
        ("rustc", string(env!("E2EBENCH_RUSTC"))),
        ("profile", string(env!("E2EBENCH_PROFILE"))),
        ("commit", git_head(root).map_or(Value::Null, string)),
        ("source_sha256", string(source_digest(root))),
    ])
}

/// `HEAD`'s commit when `root` is a git checkout, read from the files git
/// keeps (no git process).
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// SHA-256 over every file that builds the program under test (the root
/// manifest and lock file, `src/`, `crates/` and `vendor/`), in path
/// order. It names the code a result measured even where no git metadata
/// exists.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Sha256::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        h.update(rel.to_string_lossy().as_bytes());
        h.update(&[0]);
        let body = std::fs::read(&path).unwrap_or_default();
        h.update(&(body.len() as u64).to_le_bytes());
        h.update(&body);
    }
    h.hex()
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name != "target" && name != ".git" {
                collect(&entry.path(), out);
            }
        }
    }
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// User plus system CPU time of this process, in seconds (Linux reports
/// it in ticks of 1/100 s).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Bytes of every file under `dir` (0 when it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect(dir, &mut files);
    files
        .iter()
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .sum()
}
